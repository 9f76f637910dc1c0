import csv
import dataclasses
import hashlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from envload import cli
from envload import dataset as dataset_mod
from envload import lda as lda_mod
from envload import sampling as sampling_mod
from envload.cli import main
from envload.dataset import (
    LABEL_NAMES,
    SYSTEM_CONSTANTS,
    ClassLabel,
    Dataset,
    FeatureId,
    read_dataset,
    write_dataset,
)
from envload.lda import accuracy, class_stats, fit_lda
from envload.pca import fit_pca, project
from envload.preprocess import SplitConfig, Thresholds, apply_normalizer, fit_normalizer, split
from envload.sampling import SamplerConfig
from envload.surrogate import SurrogateConfig, load_config

BENCH = Path(__file__).resolve().parents[1] / "bench"
# a run with default options is the benchmark's `paper` workload, file for file
PINNED_DIGESTS = json.loads((BENCH / "reference_sha256.json").read_text())["paper"]
BENCH_SURROGATE = BENCH / "surrogate.json"

EXPECTED_FILES = {
    "config.json",
    "dataset.csv",
    "train.csv",
    "test.csv",
    "scree.csv",
    "loadings.csv",
    "scores_1_2.csv",
    "scores_1_3.csv",
    "scores_2_3.csv",
    "efs_accuracy.csv",
    "summary.json",
}


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_default")
    assert main(["run", "--out", str(out)]) == 0
    return out


@pytest.fixture
def write_run_calls(monkeypatch):
    """The output directories that main hands to write_run, which still writes."""
    calls = []
    write_run = cli.write_run

    def recording_write_run(run, out):
        calls.append(out)
        write_run(run, out)

    monkeypatch.setattr(cli, "write_run", recording_write_run)
    return calls


def _write_synthetic_loads(path: Path, n: int) -> None:
    lines = ["row_index,load"]
    values = {0: 60.0, 1: 82.0, 2: 95.0}
    for i in range(n):
        lines.append(f"{i},{values[i % 3] + (i % 7) * 0.5}")
    path.write_text("\n".join(lines) + "\n")


class TestRunAll:
    def test_manifest(self, default_run):
        names = {p.name for p in default_run.iterdir()}
        grids = {n for n in names if n.startswith("decision_grid_")}
        assert len(grids) == 6
        assert EXPECTED_FILES <= names
        assert names == EXPECTED_FILES | grids

    def test_summary_split_counts(self, default_run):
        summary = json.loads((default_run / "summary.json").read_text())
        assert summary["counts"]["total"] == 600
        assert summary["counts"]["train"]["total"] == 210
        assert summary["counts"]["test"]["total"] == 390

    def test_summary_is_recomputable_from_csvs(self, default_run):
        summary = json.loads((default_run / "summary.json").read_text())
        dataset = read_dataset(default_run / "dataset.csv")
        train = read_dataset(default_run / "train.csv")
        test = read_dataset(default_run / "test.csv")

        for part, ds in (("train", train), ("test", test)):
            for lbl in ClassLabel:
                count = int(np.count_nonzero(ds.labels == lbl))
                assert summary["counts"][part]["per_class"][lbl.csv_value] == count
        for lbl in ClassLabel:
            count = int(np.count_nonzero(dataset.labels == lbl))
            assert summary["counts"]["per_class"][lbl.csv_value] == count

        norm = fit_normalizer(train.features)
        x_train, x_test = (apply_normalizer(norm, ds.features) for ds in (train, test))
        by_name = {f.column_name: f for f in FeatureId}
        stats = class_stats(x_train, train.labels)
        for key in ("pca_selected", "efs_selected"):
            entry = summary["lda"][key]
            model = fit_lda(stats, [[int(by_name[n]) for n in entry["features"]]])
            [train_acc] = accuracy(model, x_train, train.labels)
            [test_acc] = accuracy(model, x_test, test.labels)
            assert entry["train_accuracy"] == train_acc
            assert entry["test_accuracy"] == test_acc

        with open(default_run / "scree.csv", newline="") as fh:
            ratios = [float(row["ratio"]) for row in csv.DictReader(fh)]
        assert summary["pca"]["explained_variance_ratio"] == ratios

    def test_grid_files_have_expected_columns(self, default_run):
        grid = next(p for p in default_run.iterdir() if p.name.startswith("decision_grid_"))
        with open(grid, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["x", "y", "label"]
            rows = list(reader)
        assert len(rows) == 50 * 50
        assert {r[2] for r in rows} <= {"low", "medium", "high"}

    def test_default_outputs_match_pinned_digests(self, default_run):
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in default_run.iterdir()
        }
        assert digests == PINNED_DIGESTS

    def test_each_grid_equals_its_member_alone(self, tmp_path, monkeypatch, normalized_train):
        # the default run's grids, scored on the six padded grid members of
        # the one stack of eight, are the grids of each pair fit alone, and
        # the pinned files
        calls = []
        decision_grid = lda_mod.decision_grid

        def recording_grid(model, i, xs, ys):
            calls.append((model, i, xs, ys))
            return decision_grid(model, i, xs, ys)

        monkeypatch.setattr(lda_mod, "decision_grid", recording_grid)
        result = cli.run(cli.configs())
        assert [i for _, i, _, _ in calls] == list(range(6))
        stats = class_stats(*normalized_train)
        for (model, i, xs, ys), (_, _, codes) in zip(calls, result.grids.values()):
            assert model.cols[i, 2:].tolist() == [-1, -1]
            alone = fit_lda(stats, model.cols[[i], :2])
            assert codes.tolist() == decision_grid(alone, 0, xs, ys).tolist(), i
        cli.write_run(result, tmp_path)
        grids = sorted(tmp_path.glob("decision_grid_*.csv"))
        assert [p.name for p in grids] == sorted(f"decision_grid_{p}.csv" for p in result.grids)
        for path in grids:
            assert (hashlib.sha256(path.read_bytes()).hexdigest()
                    == PINNED_DIGESTS[path.name]), path.name

    def test_run_writes_nothing_and_write_run_writes_the_pins(self, tmp_path, monkeypatch):
        def no_write(*args):
            raise AssertionError(f"run wrote {args[:2]}")

        monkeypatch.chdir(tmp_path)  # where the default --out would go
        with monkeypatch.context() as mp:
            for name in ("write_dataset", "write_csvs"):
                mp.setattr(cli, name, no_write)
            result = cli.run(cli.configs())
        assert list(tmp_path.iterdir()) == []
        cli.write_run(result, tmp_path / "out")
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (tmp_path / "out").iterdir()} == PINNED_DIGESTS

    def test_config_echo_contains_all_stages(self, default_run):
        echo = json.loads((default_run / "config.json").read_text())
        assert set(echo) == {"generate", "surrogate", "thresholds", "split", "efs", "train"}
        assert echo["generate"] == {"seed": 42, "n_per_material": 100}
        assert echo["surrogate"]["system_constants"]["glazing_u_value"] == 0.6


class TestConfigEcho:
    def test_ingest_run_echoes_ingest_and_no_surrogate(self, tmp_path):
        loads = tmp_path / "loads.csv"
        _write_synthetic_loads(loads, 60)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--n-per-material", "10",
                     "--ingest-loads", str(loads)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["ingest"] == {"loads_path": str(loads)}
        assert "surrogate" not in echo
        assert json.loads((out / "summary.json").read_text())["config"] == echo

    def test_echo_is_the_configs_as_dicts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--seed", "3", "--n-per-material", "20",
                     "--surrogate-config", str(BENCH_SURROGATE), "--no-stratify",
                     "--efs-metric", "cv5"]) == 0
        expected = {
            "generate": dataclasses.asdict(SamplerConfig(seed=3, n_per_material=20)),
            "surrogate": {"config": dataclasses.asdict(load_config(BENCH_SURROGATE)),
                          "system_constants": SYSTEM_CONSTANTS},
            "thresholds": dataclasses.asdict(Thresholds()),
            "split": dataclasses.asdict(SplitConfig(stratified=False)),
            "efs": {"metric": "cv5", "cv_seed": 42},
            "train": {"grid_resolution": 50},
        }
        assert json.loads((out / "config.json").read_text()) == expected
        assert json.loads((out / "summary.json").read_text())["config"] == expected

    @pytest.mark.parametrize("config, field, value", [
        (SamplerConfig, "seed", np.uint64(7)),
        (SamplerConfig, "n_per_material", np.int32(5)),
        (SplitConfig, "train_fraction", np.float32(0.5)),
        (SplitConfig, "seed", np.int64(3)),
        (Thresholds, "low_max", np.int64(70)),
        (SurrogateConfig, "hdd", np.int64(800)),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_numpy_scalars_are_stored_and_echoed_as_plain_numbers(self, config, field, value):
        # the value a config holds is the one its echo shows
        cfg = config(**{field: value})
        assert type(getattr(cfg, field)) is type(getattr(config(), field))
        echoed = json.loads(json.dumps(dataclasses.asdict(cfg)))[field]
        assert echoed == getattr(cfg, field) == value

    def test_option_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["run"])
        # repr, so that an int default where the field is a float (75 for
        # 75.0) differs, as it would in config.json
        assert (repr(SamplerConfig(seed=args.seed, n_per_material=args.n_per_material))
                == repr(SamplerConfig()))
        assert (repr(Thresholds(low_max=args.low_max, high_min=args.high_min))
                == repr(Thresholds()))
        assert (repr(SplitConfig(train_fraction=args.train_frac, seed=args.split_seed,
                                 stratified=not args.no_stratify))
                == repr(SplitConfig()))
        assert args.surrogate_config is None and args.ingest_loads is None


class TestDeterminismAndComposition:
    def test_identical_configs_are_byte_identical(self, tmp_path):
        loads = tmp_path / "loads.csv"
        _write_synthetic_loads(loads, 60)
        args = ["--n-per-material", "10", "--ingest-loads", str(loads)]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--out", str(a), *args]) == 0
        assert main(["run", "--out", str(b), *args]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir())
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_run_reads_nothing_back_and_writes_each_dataset_once(
        self, tmp_path, monkeypatch
    ):
        def no_read(path):
            raise AssertionError(f"run read back {path}")

        calls = []

        def recording_write(dataset, path, parts):
            calls.append((Path(path).name, [Path(p).name for p in parts]))
            write_dataset(dataset, path, parts)

        # the loader at its source, and the name that cli imports
        monkeypatch.setattr(dataset_mod, "read_dataset", no_read)
        monkeypatch.setattr(cli, "read_dataset", no_read)
        monkeypatch.setattr(cli, "write_dataset", recording_write)
        assert main(["run", "--out", str(tmp_path / "out"), "--n-per-material", "10"]) == 0
        assert calls == [("dataset.csv", ["train.csv", "test.csv"])]

    @pytest.mark.parametrize("options", [[], ["--efs-metric", "cv5"], ["--ingest-loads"]],
                             ids=["default", "cv5", "ingest"])
    def test_a_dataset_is_built_only_where_data_enters(self, tmp_path, monkeypatch, options):
        # one from the sampler, one as the loads attach and one as the labels
        # do; past the split the stages pass arrays
        if options == ["--ingest-loads"]:
            loads = tmp_path / "loads.csv"
            _write_synthetic_loads(loads, 60)
            options = ["--n-per-material", "10", "--ingest-loads", str(loads)]
        built = []
        post_init = Dataset.__post_init__
        monkeypatch.setattr(Dataset, "__post_init__", lambda ds: built.append(post_init(ds)))
        cli.run(cli.configs(options))
        assert len(built) == 3

    def test_the_dataset_holds_the_rows_the_sampler_wrote(self, monkeypatch):
        # the sampler writes each material into its slot of one matrix, and
        # that matrix, not a copy, is the features of every Dataset of the run
        slots = []
        draw_into = sampling_mod._draw_into

        def recording_draw(out, *args):
            slots.append(out)
            draw_into(out, *args)

        monkeypatch.setattr(sampling_mod, "_draw_into", recording_draw)
        result = cli.run(cli.configs(["--n-per-material", "10"]))
        assert len(slots) == 6
        assert all(np.shares_memory(result.dataset.features, slot) for slot in slots)

    @pytest.mark.parametrize("options, bound_mib", [([], 2.2), (["--train-frac", "0.7"], 4.2)],
                             ids=["bulk-split", "42000-train-rows"])
    def test_stage_train_holds_each_part_once(self, monkeypatch, options, bound_mib):
        # 60 000 rows. The train part is gathered and then normalized in
        # place, class_stats centres each class's gather in place, and the
        # test part is scored in blocks of lda.chunk_rows rows. When the
        # z-scores and the centred rows were second arrays, the tracemalloc
        # peaks were 4.29 MiB at the bulk workload's split (21 000 train rows,
        # 39 000 test rows: 2.08 MiB) and 4.75 MiB at 42 000 train rows
        # (2.24 MiB), with numpy 2.4 on x86-64; 2.45 and 3.83 MiB when the
        # test part was one array, and 1.92 and 3.83 MiB now: the train part
        # sets the second peak
        peaks = []
        stage_train = cli.stage_train

        def traced(*args):
            tracemalloc.start()
            try:
                return stage_train(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(cli, "stage_train", traced)
        cli.run(cli.configs(["--n-per-material", "10000", *options]))
        assert peaks[0] <= bound_mib * 2**20, peaks

    @pytest.mark.parametrize("options, several_blocks", [
        (["--n-per-material", "10000", "--train-frac", "0.05"], True),
        (["--n-per-material", "100"], False),
    ], ids=["57000-test-rows", "390-test-rows"])
    def test_blocked_test_accuracy_equals_accuracy(self, monkeypatch, options, several_blocks):
        # stage_train scores the test part a block of chunk_rows rows at a
        # time; its test accuracies equal lda.accuracy on the whole part,
        # here where the part spans several blocks and ends mid-block, and
        # where it is less than one
        stacks = []
        fit_stack = cli._fit_stack

        def recording_fit(*args):
            stacks.append(fit_stack(*args))
            return stacks[-1]

        monkeypatch.setattr(cli, "_fit_stack", recording_fit)
        result = cli.run(cli.configs(options))
        final = stacks[0].members(slice(0, len(result.features)))
        test = ~result.in_train
        n_test, rows = int(test.sum()), lda_mod.chunk_rows(final)
        assert (n_test > 2 * rows and n_test % rows > 0) if several_blocks else n_test < rows
        x = apply_normalizer(result.norm, result.dataset.features[test])
        whole = accuracy(final, x, result.dataset.labels[test]).tolist()
        assert [test_acc for _, test_acc in result.accuracy.values()] == whole


@pytest.fixture(scope="module", params=[["--grid-resolution", "2"],
                                        ["--no-stratify", "--grid-resolution", "7"]],
                ids=["stratified-2", "unstratified-7"])
def seed7_run(request, tmp_path_factory):
    """A run at --seed 7 --n-per-material 30 with the decision_grid calls it made."""
    out = tmp_path_factory.mktemp("seed7")
    grids = []
    decision_grid = lda_mod.decision_grid

    def recording_grid(model, i, xs, ys):
        grids.append((model, i, xs, ys))
        return decision_grid(model, i, xs, ys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lda_mod, "decision_grid", recording_grid)
        assert main(["run", "--out", str(out), "--seed", "7", "--n-per-material", "30",
                     *request.param]) == 0
    return out, "--no-stratify" not in request.param, grids


def _text(path: Path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


class TestFormattedOnce:
    """Files written from lines formatted once equal those formatted per file."""

    def test_split_files_equal_written_parts(self, seed7_run, tmp_path):
        out, stratified, _ = seed7_run
        dataset = read_dataset(out / "dataset.csv")
        in_train = split(dataset, SplitConfig(seed=42, stratified=stratified))
        for name, rows in (("train.csv", in_train), ("test.csv", ~in_train)):
            part = Dataset(dataset.material_index[rows], dataset.features[rows],
                           dataset.loads[rows], dataset.labels[rows])
            write_dataset(part, tmp_path / name)
            assert _text(out / name) == _text(tmp_path / name), name

    def test_scores_equal_pairwise_projections(self, seed7_run):
        out, _, _ = seed7_run
        train = read_dataset(out / "train.csv")
        x = apply_normalizer(fit_normalizer(train.features), train.features)
        model = fit_pca(x)
        labels = [LABEL_NAMES[c] for c in train.labels.tolist()]
        for i, j in ((1, 2), (1, 3), (2, 3)):
            scores = project(model, x, [i, j]).tolist()
            expected = f"pc{i},pc{j},label\r\n" + "".join(
                f"{a!r},{b!r},{lbl}\r\n" for (a, b), lbl in zip(scores, labels)
            )
            assert _text(out / f"scores_{i}_{j}.csv") == expected

    def test_grids_equal_pointwise_predictions(self, seed7_run):
        # reference: the z-space model rewritten for raw units (coefficients
        # over sigma, intercepts less coef . mu), applied to the raw grid points
        out, _, grids = seed7_run
        train = read_dataset(out / "train.csv")
        norm = fit_normalizer(train.features)
        n = json.loads((out / "config.json").read_text())["train"]["grid_resolution"]
        names = {f"decision_grid_{a.column_name}_{b.column_name}.csv": [a, b]
                 for a in FeatureId for b in FeatureId}
        written = sorted(out.glob("decision_grid_*.csv"))
        assert len(grids) == len(written) == 6
        stats = class_stats(apply_normalizer(norm, train.features), train.labels)
        for path in written:
            cols = names[path.name]
            model = fit_lda(stats, [cols])
            coef = model.coef[0] / [norm.std_devs[f] for f in cols]
            intercept = model.intercept[0] - coef @ [norm.means[f] for f in cols]
            bounds = []
            for f in cols:
                lo, hi = train.features[:, f].min(), train.features[:, f].max()
                bounds += [lo - cli.GRID_MARGIN * (hi - lo), hi + cli.GRID_MARGIN * (hi - lo)]
            xs, ys = lda_mod.grid_axes(tuple(float(b) for b in bounds), n)
            points = [(x, y) for y in ys for x in xs]
            scores = np.array(points) @ coef.T + intercept
            codes = [model.classes[k] for k in np.argmax(scores, axis=1)]
            assert _text(path) == "x,y,label\r\n" + "".join(
                f"{x!r},{y!r},{LABEL_NAMES[c]}\r\n" for (x, y), c in zip(points, codes)
            ), path.name


class TestWriters:
    def test_csv_files_are_csv_writer_output_in_grid_order(self, tmp_path):
        # off the pinned default: tiny grids, cv5, unstratified split
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--n-per-material", "10",
                     "--grid-resolution", "3", "--efs-metric", "cv5", "--no-stratify"]) == 0
        written = sorted(out.glob("*.csv"))
        assert len(written) == 15
        for path in written:
            rows = list(csv.reader(io.StringIO(_text(path), newline="")))
            expected = io.StringIO(newline="")
            csv.writer(expected).writerows(rows)
            assert _text(path) == expected.getvalue(), path.name
            if path.name.startswith("decision_grid_"):
                points = [(x, y) for x, y, _ in rows[1:]]
                xs = [x for x, _ in points[:3]]
                ys = [y for _, y in points[::3]]
                assert sorted(xs, key=float) == xs and len(set(xs)) == 3, path.name
                assert sorted(ys, key=float) == ys and len(set(ys)) == 3, path.name
                assert points == [(x, y) for y in ys for x in xs], path.name


class TestIngestPath:
    def test_ingested_loads_land_in_dataset(self, tmp_path):
        loads = tmp_path / "loads.csv"
        _write_synthetic_loads(loads, 60)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--n-per-material", "10",
                     "--ingest-loads", str(loads)]) == 0
        ds = read_dataset(out / "dataset.csv")
        assert ds.loads[0] == 60.0
        assert ds.loads[1] == 82.5
        assert ClassLabel(ds.labels[0]) is ClassLabel.LOW

    def test_a_default_runs_own_loads_ingested_write_the_pins(self, tmp_path, default_run):
        # only config.json and summary.json echo the config, which names the loads file
        loads = tmp_path / "loads.csv"
        loads.write_text("row_index,load\n" + "".join(
            f"{i},{q!r}\n" for i, q in enumerate(read_dataset(default_run / "dataset.csv")
                                                 .loads.tolist())))
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--ingest-loads", str(loads)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests.keys() == PINNED_DIGESTS.keys()
        echo = {"config.json", "summary.json"}
        assert ({name: d for name, d in digests.items() if name not in echo}
                == {name: d for name, d in PINNED_DIGESTS.items() if name not in echo})


class TestErrorHandling:
    def test_pipeline_error_exit_2_names_stage_and_cleans_up(
        self, tmp_path, capsys, write_run_calls
    ):
        bad = tmp_path / "bad_loads.csv"
        bad.write_text("row_index,load\n0,80.0\n")  # misses rows 1..59
        out = tmp_path / "out"
        code = main(["run", "--out", str(out), "--n-per-material", "10",
                     "--ingest-loads", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error in stage ingest" in err
        assert list(out.iterdir()) == []
        assert write_run_calls == []  # a failed stage writes nothing

    def test_simulate_error_cleans_partial_outputs(
        self, tmp_path, capsys, write_run_calls
    ):
        # each constant is finite, but hdd + cdd overflows to an infinite load
        cfg = tmp_path / "surrogate.json"
        cfg.write_text(json.dumps({"hdd": 1e308, "cdd": 1e308}))
        out = tmp_path / "out"
        code = main(["run", "--out", str(out), "--surrogate-config", str(cfg)])
        assert code == 2
        assert ("error in stage simulate: row 0, column load: must be finite and >= 0, got inf"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []
        assert write_run_calls == []  # a failed stage writes nothing

    def test_split_failure_after_dataset_written_cleans_up(
        self, tmp_path, capsys, write_run_calls
    ):
        loads = tmp_path / "loads.csv"
        rows = [f"{i},{95.0 if i == 0 else 60.0 + 20.0 * (i % 2)}" for i in range(60)]
        loads.write_text("row_index,load\n" + "\n".join(rows) + "\n")  # one high row
        out = tmp_path / "out"
        code = main(["run", "--out", str(out), "--n-per-material", "10",
                     "--ingest-loads", str(loads)])
        assert code == 2
        assert "error in stage split" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert write_run_calls == []  # a failed stage writes nothing

    @pytest.mark.parametrize("n_per_material", [4, 5, 6])
    def test_efs_with_every_subset_failed_is_an_efs_error(
        self, tmp_path, capsys, write_run_calls, n_per_material
    ):
        # a cv5 fold trains on one row of a class, so every one of the 127 fits
        # fails; the first-enumerated 4-subset is no selection
        out = tmp_path / "out"
        code = main(["run", "--out", str(out), "--n-per-material", str(n_per_material),
                     "--efs-metric", "cv5"])
        assert code == 2
        assert ("error in stage efs: every 4-feature subset's LDA fit failed in the cv5 sweep"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []
        assert write_run_calls == []  # a failed stage writes nothing

    @pytest.mark.parametrize("name", ["train.csv", "summary.json"])
    def test_output_path_that_is_a_directory_is_a_stage_error(self, tmp_path, capsys, name):
        # write_run opens train.csv with its first file and summary.json near
        # its end; either way the files it wrote before are removed
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        (out / name / "kept.txt").write_text("kept\n")
        code = main(["run", "--out", str(out), "--n-per-material", "10"])
        assert code == 2
        assert "error in stage write: " in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [name]  # no output file of the run
        assert [p.name for p in (out / name).iterdir()] == ["kept.txt"]
        assert (out / name / "kept.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_that_is_not_a_directory_is_usage_error(self, tmp_path, capsys, below):
        # a file: FileExistsError; a path below a file: NotADirectoryError
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "out" if below else taken
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", str(out), "--n-per-material", "10"])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "envload: error: [Errno " in err and f"'{out}'\n" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    @pytest.mark.parametrize("members, member, name", [
        (8, 0, "PCA-4"), (8, 1, "EFS-4"),
        (8, 2, "decision grid thickness_density"),
        (8, 7, "decision grid thermal_conductivity_specific_heat_capacity"),
    ], ids=["pca-4", "efs-4", "grid", "grid-last"])
    def test_failed_lda_member_is_a_train_error(
        self, tmp_path, capsys, monkeypatch, write_run_calls, members, member, name
    ):
        # the first stack of `members` members comes back with `member` failed:
        # PCA-4, EFS-4 and the six grid pairs are one stack of eight
        fit = lda_mod.fit_lda
        todo = [True]

        def failing_fit(stats, cols):
            model = fit(stats, cols)
            if todo[0] and len(model.failed) == members:
                todo[0] = False
                failed = model.failed.copy()
                failed[member] = True
                model = dataclasses.replace(model, failed=failed)
            return model

        monkeypatch.setattr(lda_mod, "fit_lda", failing_fit)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--n-per-material", "10"]) == 2
        assert (f"error in stage train: the {name} LDA model did not fit"
                in capsys.readouterr().err)
        assert not todo[0]
        assert list(out.iterdir()) == []
        assert write_run_calls == []  # a failed stage writes nothing

    @pytest.mark.parametrize("option, value, message", [
        ("--train-frac", "1.5", "train_fraction must be in (0, 1), got 1.5"),
        ("--low-max", "95", "low_max must be < high_min, got 95.0 >= 90.0"),
        ("--grid-resolution", "1", "--grid-resolution must be >= 2, got 1"),
    ], ids=["train-frac", "low-max", "grid-resolution"])
    def test_bad_run_option_is_usage_error(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", str(out), option, value])
        assert excinfo.value.code == 1
        assert f"envload: error: {message}" in capsys.readouterr().err
        assert not out.exists()  # rejected before any stage ran

    @pytest.mark.parametrize("option", ["--seed", "--split-seed", "--cv-seed"])
    @pytest.mark.parametrize("value", ["-1", str(2**64), "4.5"])
    def test_seed_outside_u64_is_usage_error(self, tmp_path, capsys, option, value):
        # a generator takes its seed modulo 2^64: -1 would alias 2^64 - 1
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", str(out), option, value])
        assert excinfo.value.code == 1
        assert (f"error: argument {option}: must be an integer in [0, 2**64), got '{value}'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        argv = ["--n-per-material", "10"]
        for option in ("--seed", "--split-seed", "--cv-seed"):
            argv += [option, str(2**64 - 1)]
        assert main(["run", "--out", str(tmp_path / "out"), *argv]) == 0

    @pytest.mark.parametrize("option, field", [("--low-max", "low_max"),
                                               ("--high-min", "high_min")])
    def test_nan_threshold_is_usage_error(self, tmp_path, capsys, option, field):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", str(out), option, "nan"])
        assert excinfo.value.code == 1
        assert f"envload: error: {field} must be a number, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_high_min_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--n-per-material", "10",
                     "--high-min", "inf"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["thresholds"]["high_min"] == float("inf")
        assert summary["counts"]["per_class"]["high"] == 0

    def test_non_finite_surrogate_constant_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "surrogate.json"
        cfg.write_text('{"hdd": NaN}')
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", str(out), "--surrogate-config", str(cfg)])
        assert excinfo.value.code == 1
        assert "envload: error: hdd must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["q_base", "w_solar", "w_thermal", "w_visual"])
    def test_negative_surrogate_offset_or_weight_is_usage_error(self, tmp_path, capsys, field):
        # with every offset and weight >= 0, no load can be negative
        cfg = tmp_path / "surrogate.json"
        cfg.write_text(json.dumps({field: -0.5}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", str(out), "--surrogate-config", str(cfg)])
        assert excinfo.value.code == 1
        assert f"envload: error: {field} must be >= 0, got -0.5\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ('{"q_base": null}', "q_base must be a number, got null"),
        ('{"q_base": [1]}', "q_base must be a number, got [1.0]"),
        ('{"hdd": true}', "hdd must be a number, got true"),
        ('{"r_wall": "5"}', 'r_wall must be a number, got "5"'),
        ('[{"q_base": 1}]', "surrogate config must be a JSON object, got list"),
        ('{"cdd": 1' + "0" * 400 + "}", "cdd must be finite, got inf"),
    ], ids=["null", "list", "bool", "string", "top-level-list", "huge-int"])
    def test_non_number_surrogate_value_is_usage_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "surrogate.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", str(out), "--surrogate-config", str(cfg)])
        assert excinfo.value.code == 1
        assert f"envload: error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--bogus-flag"])
        assert excinfo.value.code == 1
        # `run` is the only command
        out = tmp_path / "out"
        for argv in (["train", "--out", str(out)], ["ingest"], ["pca", "--out", str(out)]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 1, argv
            assert not out.exists(), argv

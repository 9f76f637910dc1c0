import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from envload import cli
from envload.cli import main
from envload.dataset import ClassLabel, FeatureId, read_dataset
from envload.lda import accuracy, fit_lda
from envload.preprocess import apply_normalizer, fit_normalizer

PINNED_DIGESTS = Path(__file__).parent / "data" / "default_run_sha256.json"

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
                count = sum(1 for r in ds.rows if r.label == lbl)
                assert summary["counts"][part]["per_class"][lbl.csv_value] == count
        for lbl in ClassLabel:
            count = sum(1 for r in dataset.rows if r.label == lbl)
            assert summary["counts"]["per_class"][lbl.csv_value] == count

        norm = fit_normalizer(train)
        train_n = apply_normalizer(norm, train)
        test_n = apply_normalizer(norm, test)
        by_name = {f.column_name: f for f in FeatureId}
        for key in ("pca_selected", "efs_selected"):
            entry = summary["lda"][key]
            cols = [int(by_name[n]) for n in entry["features"]]
            model = fit_lda(train_n.feature_matrix()[:, cols], train_n.labels())
            train_acc = accuracy(model, train_n.feature_matrix()[:, cols], train_n.labels())
            test_acc = accuracy(model, test_n.feature_matrix()[:, cols], test_n.labels())
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
        pinned = json.loads(PINNED_DIGESTS.read_text())
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in default_run.iterdir()
        }
        assert digests == pinned

    def test_config_echo_contains_all_stages(self, default_run):
        echo = json.loads((default_run / "config.json").read_text())
        assert set(echo) == {"generate", "surrogate", "thresholds", "split", "efs", "train"}
        assert echo["generate"] == {"seed": 42, "n_per_material": 100}
        assert echo["surrogate"]["system_constants"]["glazing_u_value"] == 0.6


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

    @pytest.mark.parametrize("path", ["ingest_train", "simulate_cv5"])
    def test_run_all_equals_subcommand_chain(self, tmp_path, path):
        if path == "ingest_train":
            loads = tmp_path / "loads.csv"
            _write_synthetic_loads(loads, 60)
            load_step = ["ingest", "--ingest-loads", str(loads)]
            n, efs_args = "10", []
        else:
            surrogate = tmp_path / "surrogate.json"
            surrogate.write_text(json.dumps({"q_base": 0.0, "r_wall": 1.0}))
            load_step = ["simulate", "--surrogate-config", str(surrogate)]
            n, efs_args = "20", ["--efs-metric", "cv5"]
        whole, chained = tmp_path / "whole", tmp_path / "chained"
        assert main(["run", "--out", str(whole), "--n-per-material", n,
                     *load_step[1:], *efs_args]) == 0
        for argv in (
            ["generate", "--n-per-material", n],
            load_step,
            ["label"],
            ["split"],
            ["pca"],
            ["efs", *efs_args],
            ["train"],
        ):
            assert main([*argv, "--out", str(chained)]) == 0
        names = sorted(p.name for p in whole.iterdir())
        assert names == sorted(p.name for p in chained.iterdir())
        for name in names:
            assert (whole / name).read_bytes() == (chained / name).read_bytes(), name

    def test_run_reads_nothing_back_and_writes_each_dataset_once(
        self, tmp_path, monkeypatch
    ):
        def no_read(path):
            raise AssertionError(f"run read back {path}")

        written = []
        write = cli.write_dataset

        def recording_write(dataset, path):
            written.append(Path(path).name)
            write(dataset, path)

        monkeypatch.setattr(cli, "read_dataset", no_read)
        monkeypatch.setattr(cli, "write_dataset", recording_write)
        assert main(["run", "--out", str(tmp_path / "out"), "--n-per-material", "10"]) == 0
        assert sorted(written) == ["dataset.csv", "test.csv", "train.csv"]


class TestIngestPath:
    def test_ingested_loads_land_in_dataset(self, tmp_path):
        loads = tmp_path / "loads.csv"
        _write_synthetic_loads(loads, 60)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--n-per-material", "10",
                     "--ingest-loads", str(loads)]) == 0
        ds = read_dataset(out / "dataset.csv")
        assert ds.rows[0].load == 60.0
        assert ds.rows[1].load == 82.5
        assert ds.rows[0].label is ClassLabel.LOW


class TestErrorHandling:
    def test_pipeline_error_exit_2_names_stage_and_cleans_up(self, tmp_path, capsys):
        bad = tmp_path / "bad_loads.csv"
        bad.write_text("row_index,load\n0,80.0\n")  # misses rows 1..59
        out = tmp_path / "out"
        code = main(["run", "--out", str(out), "--n-per-material", "10",
                     "--ingest-loads", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error in stage ingest" in err
        assert list(out.iterdir()) == []  # partial outputs removed

    def test_simulate_error_cleans_partial_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "surrogate.json"
        cfg.write_text(json.dumps({"q_base": -1000.0}))
        out = tmp_path / "out"
        code = main(["run", "--out", str(out), "--surrogate-config", str(cfg)])
        assert code == 2
        assert "error in stage simulate" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_split_failure_after_dataset_written_cleans_up(self, tmp_path, capsys):
        loads = tmp_path / "loads.csv"
        rows = [f"{i},{95.0 if i == 0 else 60.0 + 20.0 * (i % 2)}" for i in range(60)]
        loads.write_text("row_index,load\n" + "\n".join(rows) + "\n")  # one high row
        out = tmp_path / "out"
        code = main(["run", "--out", str(out), "--n-per-material", "10",
                     "--ingest-loads", str(loads)])
        assert code == 2
        assert "error in stage split" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--bogus-flag"])
        assert excinfo.value.code == 1

    def test_missing_required_ingest_argument(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["ingest"])
        assert excinfo.value.code == 1

    def test_stage_error_without_inputs(self, tmp_path, capsys):
        out = tmp_path / "empty"
        code = main(["pca", "--out", str(out)])
        assert code == 2
        assert "error in stage pca" in capsys.readouterr().err

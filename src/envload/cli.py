"""Command-line pipeline orchestration.

    generate -> simulate (or ingest) -> label -> split -> pca -> efs -> train

`envload run` is the one command, and it computes, then writes. Each stage
is one function that takes values (Dataset, Normalizer, PcaModel,
EfsReport) and returns values; no stage takes a path or writes a file.
`run(cfg)` chains the stages in memory and returns a Run, the frozen value
of all that the run found. `write_run(run, out)` is the only code that
formats or writes: it writes each output file once and reads none back. It
hands every table to dataset's writer as cell blocks (dataset.float_cells
and text_cells); write_csvs writes every CSV a chunk of rows at a time, so
no file's text is ever held whole, and dataset.csv, train.csv and test.csv
share each chunk's cells.

The config classes (SamplerConfig, SurrogateConfig, Thresholds, SplitConfig)
state each run parameter once: they give the options their defaults, and
the config echo, built before any stage runs, is their asdict. It is
<out>/config.json and part of summary.json, so a run is reproducible from
its outputs. Plot data is CSV for external tools; nothing is rendered here.

Exit codes: 0 success, 1 usage error (bad option values included, checked
before any stage runs), 2 pipeline error: a failed stage writes nothing,
and a failed write ("stage write") removes the files it wrote.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import efs as efs_mod, lda as lda_mod, pca as pca_mod
from .dataset import (
    LABEL_NAMES, N_FEATURES, SYSTEM_CONSTANTS, ClassLabel, Dataset, FeatureId,
    builtin_material_library, csv_text, float_cells, text_cells, write_csvs, write_dataset,
    read_dataset,  # unused here; bench/spans.py wraps it by this name, so it goes with that site
)
from .preprocess import (Normalizer, SplitConfig, Thresholds, apply_normalizer, fit_normalizer,
                         label_dataset, split)
from .sampling import SamplerConfig, check_seed, generate_dataset
from .surrogate import SurrogateConfig, ingest_external_loads, load_config, simulate_dataset

DEFAULT_GRID_RESOLUTION = 50
GRID_MARGIN = 0.05  # fractional margin added around the training range

_EFS_METRIC_FLAGS = {"train": efs_mod.METRIC_TRAIN, "cv5": efs_mod.METRIC_CV5}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A seed option's value, an integer in [0, 2**64) (see check_seed)."""
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2**64), got {text!r}") from None


@dataclass(frozen=True, eq=False)
class Run:
    """All that one run found, in the order the stages found it."""

    dataset: Dataset                 # labelled, every row
    in_train: np.ndarray             # the split: mask of dataset's train rows
    norm: Normalizer                 # fitted on the train rows
    pca: pca_mod.PcaModel            # of the normalized train rows
    scores: np.ndarray               # (n_train, 3): their PC1-3 scores
    efs: efs_mod.EfsReport
    features: dict[str, list[FeatureId]]      # "PCA-4" and "EFS-4": each final model's
    accuracy: dict[str, tuple[float, float]]  # the same: (train, test) accuracy
    grids: dict[str, tuple[np.ndarray, ...]]  # "f1_f2": raw xs, ys and codes, y outer
    echo: dict                       # the config echo


# ---------------------------------------------------------------------------
# pipeline stages

def stage_generate(cfg: SamplerConfig) -> Dataset:
    return generate_dataset(builtin_material_library(), cfg)


def stage_simulate(dataset: Dataset, cfg: SurrogateConfig) -> Dataset:
    return simulate_dataset(dataset, cfg)


def stage_label(dataset: Dataset, thresholds: Thresholds) -> Dataset:
    return label_dataset(dataset, thresholds)


def stage_split(dataset: Dataset, cfg: SplitConfig) -> np.ndarray:
    return split(dataset, cfg)


def stage_pca(train: Dataset) -> tuple[Normalizer, pca_mod.PcaModel, np.ndarray]:
    """The normalizer of the train rows, the PCA model of the normalized
    rows and their PC1-3 scores."""
    norm = fit_normalizer(train)
    train_n = apply_normalizer(norm, train)
    model = pca_mod.fit_pca(train_n.features)
    return norm, model, pca_mod.project(model, train_n.features, [1, 2, 3])


def stage_efs(train: Dataset, metric: str, cv_seed: int) -> efs_mod.EfsReport:
    report = efs_mod.run_efs(train, metric=metric, cv_seed=cv_seed)
    if report.best_per_size[4].fit_failed:
        raise ValueError(f"every 4-feature subset's LDA fit failed in the {metric} "
                         "sweep, so there is no EFS-4 subset to select")
    return report


def _fit_stack(stats: lda_mod.ClassStats, members: dict[str, Sequence[FeatureId]]
               ) -> lda_mod.LdaModel:
    """One stacked LDA fit of the named feature subsets. A run scores and
    writes every member, so a member whose fit failed is an error."""
    model = lda_mod.fit_lda(stats, [[int(f) for f in fs] for fs in members.values()])
    for name, failed in zip(members, model.failed.tolist()):
        if failed:
            raise ValueError(
                f"the {name} LDA model did not fit: a column is constant within every "
                f"class, or the pooled covariance is singular up to ridge "
                f"{lda_mod.RIDGE_LADDER[-1]:g}")
    return model


def _decision_grids(features: list[FeatureId], bounds: np.ndarray, stats: lda_mod.ClassStats,
                    norm: Normalizer, resolution: int) -> dict[str, tuple[np.ndarray, ...]]:
    """Six pairwise decision-region grids over the selected features, in raw
    units within bounds, a (2, 7) array of lows and highs, fit as one stack
    of six from `stats`, each grid scored on its member. The model works in
    normalized space, so each axis is z-scored as apply_normalizer does; a
    constant feature (sigma = 0) has zero-width bounds, which grid_axes rejects."""
    # canonical order keeps the file names stable
    pairs = {f"{f1.column_name}_{f2.column_name}": (f1, f2)
             for f1, f2 in combinations(sorted(features, key=int), 2)}
    model = _fit_stack(stats, {f"decision grid {pair}": fs for pair, fs in pairs.items()})
    grids = {}
    for i, (pair, fs) in enumerate(pairs.items()):
        axes = lda_mod.grid_axes(tuple(bounds[:, fs].T.ravel().tolist()), resolution)
        xs, ys = (np.array(axis) for axis in axes)
        xs_z, ys_z = ((axis - norm.means[f]) / norm.std_devs[f] for axis, f in zip((xs, ys), fs))
        grids[pair] = xs, ys, lda_mod.decision_grid(model, i, xs_z, ys_z)
    return grids


def stage_train(dataset: Dataset, in_train: np.ndarray, norm: Normalizer,
                pca_model: pca_mod.PcaModel, report: efs_mod.EfsReport,
                grid_resolution: int) -> tuple[dict, dict, dict]:
    """The PCA-4 and EFS-4 models, fit as one stack of two on the normalized
    train rows: each one's features and (train, test) accuracy, and the
    decision grids of the PCA-4 features."""
    def normalized(rows: np.ndarray) -> tuple:  # one part at a time: test is most rows
        part = apply_normalizer(norm, dataset.select(rows))
        return part.features, part.labels

    features = {"PCA-4": pca_mod.top_features(pca_model, 4),
                "EFS-4": list(report.best_per_size[4].subset)}
    stats = lda_mod.class_stats(*normalized(in_train))
    final = _fit_stack(stats, features)
    train_acc, test_acc = (lda_mod.accuracy(final, *normalized(rows)).tolist()
                           for rows in (in_train, ~in_train))
    lo, hi = (f(dataset.features, axis=0, where=in_train[:, None], initial=v)
              for f, v in ((np.min, np.inf), (np.max, -np.inf)))  # of the raw train rows
    bounds = np.array([lo - GRID_MARGIN * (hi - lo), hi + GRID_MARGIN * (hi - lo)])
    grids = _decision_grids(features["PCA-4"], bounds, stats, norm, grid_resolution)
    return features, dict(zip(features, zip(train_acc, test_acc))), grids


def run(cfg: argparse.Namespace, on_stage: Callable[[str], object] = lambda stage: None) -> Run:
    """Every stage in memory, with the configs that `configs` builds. Calls
    on_stage with each stage's name before running it; writes nothing."""
    on_stage("generate")
    dataset = stage_generate(cfg.sampler)
    if cfg.ingest_loads:
        on_stage("ingest")
        dataset = ingest_external_loads(dataset, cfg.ingest_loads)
    else:
        on_stage("simulate")
        dataset = stage_simulate(dataset, cfg.surrogate)
    on_stage("label")
    dataset = stage_label(dataset, cfg.thresholds)
    on_stage("split")
    in_train = stage_split(dataset, cfg.split)
    on_stage("pca")
    norm, pca_model, scores = stage_pca(dataset.select(in_train))
    on_stage("efs")
    report = stage_efs(dataset.select(in_train), cfg.metric, cfg.cv_seed)
    on_stage("train")
    features, accuracy, grids = stage_train(dataset, in_train, norm, pca_model, report,
                                            cfg.grid_resolution)
    return Run(dataset, in_train, norm, pca_model, scores, report, features, accuracy, grids,
               cfg.echo)


# ---------------------------------------------------------------------------
# the writer

def _class_counts(labels: np.ndarray) -> dict[str, int]:
    return dict(zip(LABEL_NAMES, np.bincount(labels, minlength=len(ClassLabel)).tolist()))


def _subset_entry(result: efs_mod.SubsetResult) -> dict:
    return {
        "subset": [f.column_name for f in result.subset],
        "metric": result.metric_value,
        "fit_failed": result.fit_failed,
    }


def _summary(run: Run) -> dict:
    labels, in_train = run.dataset.labels, run.in_train
    names = {name: [f.column_name for f in fs] for name, fs in run.features.items()}
    return {
        "config": run.echo,
        "counts": {
            "total": len(labels),
            "per_class": _class_counts(labels),
            **{part: {"total": int(rows.sum()), "per_class": _class_counts(labels[rows])}
               for part, rows in (("train", in_train), ("test", ~in_train))},
        },
        "pca": {
            "explained_variance_ratio": [float(r) for r in run.pca.explained_variance_ratio],
            "cumulative_ratio": [float(c) for c in run.pca.cumulative_ratio],
            "top_features": names["PCA-4"],
        },
        "efs": {
            "best_per_size": {
                str(size): _subset_entry(r) for size, r in run.efs.best_per_size.items()
            },
            "overall_best": _subset_entry(run.efs.overall_best),
        },
        "lda": {
            key: {"features": names[name], "train_accuracy": run.accuracy[name][0],
                  "test_accuracy": run.accuracy[name][1]}
            for key, name in (("pca_selected", "PCA-4"), ("efs_selected", "EFS-4"))
        },
    }


def write_run(run: Run, out: str | Path) -> None:
    """Write every output file of a run into the directory out, created if
    need be. A failed write removes the files written so far, then raises."""
    Path(out).mkdir(parents=True, exist_ok=True)
    created: list[Path] = []

    def new(name: str) -> Path:
        """The path of a file about to be written, recorded before it is opened."""
        created.append(Path(out, name))
        return created[-1]

    def csv(name: str, header: Sequence[str], blocks: Sequence[np.ndarray]) -> None:
        """A CSV file whose cells are the blocks side by side (see csv_text)."""
        write_csvs([(new(name), header)], len(blocks[0]),
                   lambda rows: csv_text([b[rows] for b in blocks]))

    try:
        write_dataset(run.dataset, new("dataset.csv"),
                      {new("train.csv"): run.in_train, new("test.csv"): ~run.in_train})
        pcs = np.arange(run.pca.p)
        csv("scree.csv", ["pc", "ratio", "cumulative"],
            [text_cells(pcs + 1, pcs), float_cells(np.column_stack(
                [run.pca.explained_variance_ratio, run.pca.cumulative_ratio]))])
        names, loadings = zip(*pca_mod.loading_report(run.pca))
        csv("loadings.csv", ["feature"] + [f"pc{j + 1}" for j in pcs],
            [text_cells(names, np.arange(len(names))), float_cells(np.array(loadings))])

        pairs = ((1, 2), (1, 3), (2, 3))
        train_labels = run.dataset.labels[run.in_train]

        def chunk_text(rows: slice) -> list:
            # each PC's scores are formatted once and shared by the two files that show it
            cells = float_cells(run.scores[rows])
            labels = text_cells(LABEL_NAMES, train_labels[rows])
            return [csv_text([cells[:, i - 1], cells[:, j - 1], labels])[0] for i, j in pairs]

        write_csvs([(new(f"scores_{i}_{j}.csv"), (f"pc{i}", f"pc{j}", "label"))
                    for i, j in pairs], len(run.scores), chunk_text)
        results = run.efs.all_results
        sizes = np.array([len(r.subset) for r in results])
        csv("efs_accuracy.csv", ["subset", "size", "metric", "flag"],
            [text_cells([r.subset_names() for r in results], np.arange(len(results))),
             text_cells(range(1, N_FEATURES + 1), sizes - 1),
             float_cells(np.array([r.metric_value for r in results])),
             text_cells([0, 1], np.array([r.fit_failed for r in results], dtype=np.intp))])
        for pair, (xs, ys, codes) in run.grids.items():
            xs, ys = float_cells(xs), float_cells(ys)
            # points in decision_grid's order: y outer, x inner
            csv(f"decision_grid_{pair}.csv", ["x", "y", "label"],
                [np.tile(xs, (len(ys), 1)), np.repeat(ys, len(xs), axis=0),
                 text_cells(LABEL_NAMES, codes)])
        for name, data in (("summary.json", _summary(run)), ("config.json", run.echo)):
            new(name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    except BaseException:
        for path in created:  # never raises; a directory a failed open met stays
            with suppress(OSError):
                path.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# command wiring

def _configs(args: argparse.Namespace) -> argparse.Namespace:
    """Every config object that the options describe, and the config echo of
    them all, built before any stage runs; a bad value raises ValueError (or
    OSError for a JSON file)."""
    cfg = argparse.Namespace(
        sampler=SamplerConfig(seed=args.seed, n_per_material=args.n_per_material),
        surrogate=(load_config(args.surrogate_config) if args.surrogate_config
                   else SurrogateConfig()),
        ingest_loads=args.ingest_loads,
        thresholds=Thresholds(low_max=args.low_max, high_min=args.high_min),
        split=SplitConfig(train_fraction=args.train_frac, seed=args.split_seed,
                          stratified=not args.no_stratify),
        metric=_EFS_METRIC_FLAGS[args.efs_metric],
        cv_seed=args.cv_seed,
        grid_resolution=args.grid_resolution,
    )
    if args.grid_resolution < 2:
        raise ValueError(f"--grid-resolution must be >= 2, got {args.grid_resolution}")
    loads = ({"ingest": {"loads_path": args.ingest_loads}} if args.ingest_loads
             else {"surrogate": {"config": asdict(cfg.surrogate),
                                 "system_constants": SYSTEM_CONSTANTS}})
    cfg.echo = {
        "generate": asdict(cfg.sampler),
        **loads,
        "thresholds": asdict(cfg.thresholds),
        "split": asdict(cfg.split),
        "efs": {"metric": cfg.metric, "cv_seed": args.cv_seed},
        "train": {"grid_resolution": args.grid_resolution},
    }
    return cfg


def configs(options: Sequence[str] = ()) -> argparse.Namespace:
    """The configs of `envload run` with these options, e.g. ["--seed", "7"]."""
    return _configs(build_parser().parse_args(["run", *options]))


# `run`'s options: argparse keywords by flag; a config class's field gives
# its option's default
_OPTIONS = {
    "--seed": dict(type=_seed, default=SamplerConfig.seed, help="sampler seed"),
    "--n-per-material": dict(type=int, default=SamplerConfig.n_per_material),
    "--surrogate-config": dict(default=None, metavar="JSON",
                               help="JSON file overriding surrogate constants"),
    "--ingest-loads": dict(default=None, metavar="CSV",
                           help="attach externally computed loads instead of simulating"),
    "--low-max": dict(type=float, default=Thresholds.low_max),
    "--high-min": dict(type=float, default=Thresholds.high_min),
    "--train-frac": dict(type=float, default=SplitConfig.train_fraction),
    "--split-seed": dict(type=_seed, default=SplitConfig.seed),
    "--no-stratify": dict(action="store_true"),
    "--efs-metric": dict(choices=sorted(_EFS_METRIC_FLAGS), default="train"),
    "--cv-seed": dict(type=_seed, default=42),
    "--grid-resolution": dict(type=int, default=DEFAULT_GRID_RESOLUTION),
    "--out": dict(default="out", help="output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="envload", description=__doc__.splitlines()[0])
    run = parser.add_subparsers(dest="command", required=True).add_parser(
        "run", help="full pipeline")
    for flag, kwargs in _OPTIONS.items():
        run.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _configs(args)
        Path(args.out).mkdir(parents=True, exist_ok=True)  # an --out that names a file fails here
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    stage = [args.command]
    try:
        result = run(cfg, stage.append)
        stage.append("write")
        write_run(result, args.out)
    except Exception as exc:
        print(f"error in stage {stage[-1]}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

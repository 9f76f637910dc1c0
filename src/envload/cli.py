"""Command-line pipeline orchestration.

    generate -> simulate (or ingest) -> label -> split -> pca -> efs -> train

`envload run` is the one command. Each stage is one function: it takes its
inputs as objects (Dataset, Normalizer, PcaModel, EfsReport), returns its
outputs and writes only the files it owns; stage_split owns dataset.csv,
train.csv and test.csv. `run` chains the stages in memory, so it writes each
output file once and reads none of them back. Each stage hands its tables to
dataset's writer as cell blocks (dataset.float_cells and text_cells);
write_csvs writes every CSV a chunk of rows at a time, so this module formats
no CSV text itself and no file's text is ever held whole.

The config classes (SamplerConfig, SurrogateConfig, Thresholds, SplitConfig)
state each run parameter once: they give the options their defaults, and
the config echo, built before any stage runs, is their asdict. It is
<out>/config.json and part of summary.json, so a run is reproducible from
its outputs. Plot data is CSV for external tools; nothing is rendered here.

Exit codes: 0 success, 1 usage error (bad option values included, checked
before any stage runs), 2 pipeline error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import asdict
from itertools import combinations
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import efs as efs_mod
from . import lda as lda_mod
from . import pca as pca_mod
from .dataset import (
    ClassLabel,
    Dataset,
    FeatureId,
    LABEL_NAMES,
    N_FEATURES,
    SYSTEM_CONSTANTS,
    builtin_material_library,
    csv_text,
    float_cells,
    read_dataset,  # unused here; bench/spans.py wraps it by this name, so it goes with that site
    text_cells,
    write_csvs,
    write_dataset,
)
from .preprocess import (
    Normalizer,
    SplitConfig,
    Thresholds,
    apply_normalizer,
    fit_normalizer,
    label_dataset,
    split,
)
from .sampling import SamplerConfig, check_seed, generate_dataset
from .surrogate import (
    SurrogateConfig,
    ingest_external_loads,
    load_config,
    simulate_dataset,
)

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


class _Out:
    """The output directory and the files written to it so far, which a
    failed command removes again."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.created: list[Path] = []

    def new(self, name: str) -> Path:
        """The path of a file about to be written, recorded before it is opened."""
        path = self.path / name
        self.created.append(path)
        return path

    def csv(self, name: str, header: Sequence[str], blocks: Sequence[np.ndarray]) -> None:
        """Write a CSV file of the named columns, whose cells are the blocks
        side by side (see dataset.csv_text)."""
        write_csvs([(self.new(name), header)], len(blocks[0]),
                   lambda rows: csv_text([b[rows] for b in blocks]))

    def json(self, name: str, data: dict) -> None:
        self.new(name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pipeline stages

def stage_generate(cfg: SamplerConfig) -> Dataset:
    return generate_dataset(builtin_material_library(), cfg)


def stage_simulate(dataset: Dataset, cfg: SurrogateConfig) -> Dataset:
    return simulate_dataset(dataset, cfg)


def stage_label(dataset: Dataset, thresholds: Thresholds) -> Dataset:
    return label_dataset(dataset, thresholds)


def stage_split(out: _Out, dataset: Dataset, cfg: SplitConfig) -> tuple[Dataset, Dataset]:
    """Split a dataset, and write it as dataset.csv with its two parts as
    train.csv and test.csv, each row formatted once."""
    in_train = split(dataset, cfg)
    write_dataset(dataset, out.new("dataset.csv"),
                  {out.new("train.csv"): in_train, out.new("test.csv"): ~in_train})
    return dataset.select(in_train), dataset.select(~in_train)


def stage_pca(out: _Out, train_n: Dataset) -> pca_mod.PcaModel:
    model = pca_mod.fit_pca(train_n.features)
    pcs = np.arange(model.p)
    out.csv("scree.csv", ["pc", "ratio", "cumulative"],
            [text_cells(pcs + 1, pcs),
             float_cells(np.column_stack([model.explained_variance_ratio,
                                          model.cumulative_ratio]))])
    names, loadings = zip(*pca_mod.loading_report(model))
    out.csv("loadings.csv", ["feature"] + [f"pc{j + 1}" for j in pcs],
            [text_cells(names, np.arange(len(names))),
             float_cells(np.array(loadings))])
    scores = pca_mod.project(model, train_n.features, [1, 2, 3])
    pairs = ((1, 2), (1, 3), (2, 3))

    def chunk_text(rows: slice) -> list:
        # each PC's scores are formatted once and shared by the two files that show it
        cells = float_cells(scores[rows])
        labels = text_cells(LABEL_NAMES, train_n.labels[rows])
        return [csv_text([cells[:, i - 1], cells[:, j - 1], labels])[0] for i, j in pairs]

    write_csvs([(out.new(f"scores_{i}_{j}.csv"), (f"pc{i}", f"pc{j}", "label"))
                for i, j in pairs], len(scores), chunk_text)
    return model


def stage_efs(out: _Out, train: Dataset, metric: str, cv_seed: int) -> efs_mod.EfsReport:
    report = efs_mod.run_efs(train, metric=metric, cv_seed=cv_seed)
    if report.best_per_size[4].fit_failed:
        raise ValueError(f"every 4-feature subset's LDA fit failed in the {metric} "
                         "sweep, so there is no EFS-4 subset to select")
    results = report.all_results
    sizes = np.array([len(r.subset) for r in results])
    out.csv("efs_accuracy.csv", ["subset", "size", "metric", "flag"],
            [text_cells([r.subset_names() for r in results], np.arange(len(results))),
             text_cells(range(1, N_FEATURES + 1), sizes - 1),
             float_cells(np.array([r.metric_value for r in results])),
             text_cells([0, 1], np.array([r.fit_failed for r in results], dtype=np.intp))])
    return report


def _class_counts(labels: np.ndarray) -> dict[str, int]:
    counts = np.bincount(labels, minlength=len(ClassLabel)).tolist()
    return dict(zip(LABEL_NAMES, counts))


def _subset_entry(result: efs_mod.SubsetResult) -> dict:
    return {
        "subset": [f.column_name for f in result.subset],
        "metric": result.metric_value,
        "fit_failed": result.fit_failed,
    }


def _fit_stack(
    stats: lda_mod.ClassStats, members: dict[str, Sequence[FeatureId]]
) -> lda_mod.LdaModel:
    """One stacked LDA fit of the named feature subsets. The CLI scores and
    writes every member, so a member whose fit failed is an error."""
    model = lda_mod.fit_lda(stats, [[int(f) for f in fs] for fs in members.values()])
    for name, failed in zip(members, model.failed.tolist()):
        if failed:
            raise ValueError(
                f"the {name} LDA model did not fit: a column is constant within every "
                f"class, or the pooled covariance is singular up to ridge "
                f"{lda_mod.RIDGE_LADDER[-1]:g}")
    return model


def _emit_decision_grids(
    out: _Out,
    features: list[FeatureId],
    train: Dataset,
    stats: lda_mod.ClassStats,
    norm: Normalizer,
    resolution: int,
) -> None:
    """Six pairwise decision-region grids over the selected features, in raw
    feature units, fit as one stack of six from `stats`, each grid scored on
    its member. The model works in normalized space, so each axis is
    z-scored as apply_normalizer does before predicting; a constant feature
    (sigma = 0) has zero-width bounds, which grid_axes rejects."""
    raw = train.features
    # canonical order keeps the file names stable
    pairs = {f"{f1.column_name}_{f2.column_name}": (f1, f2)
             for f1, f2 in combinations(sorted(features, key=int), 2)}
    model = _fit_stack(stats, {f"decision grid {pair}": fs for pair, fs in pairs.items()})
    for i, (pair, (f1, f2)) in enumerate(pairs.items()):
        bounds = []
        for f in (f1, f2):
            lo, hi = float(raw[:, f].min()), float(raw[:, f].max())
            margin = GRID_MARGIN * (hi - lo)
            bounds.extend([lo - margin, hi + margin])
        axes = lda_mod.grid_axes(tuple(bounds), resolution)
        xs_z, ys_z = ((np.array(axis) - norm.means[f]) / norm.std_devs[f]
                      for axis, f in zip(axes, (f1, f2)))
        codes = lda_mod.decision_grid(model, i, xs_z, ys_z)
        xs, ys = (float_cells(np.array(axis)) for axis in axes)
        # points in decision_grid's order: y outer, x inner
        out.csv(f"decision_grid_{pair}.csv", ["x", "y", "label"],
                [np.tile(xs, (len(ys), 1)), np.repeat(ys, len(xs), axis=0),
                 text_cells(LABEL_NAMES, codes)])


def stage_train(
    out: _Out,
    train: Dataset,
    test: Dataset,
    norm: Normalizer,
    train_n: Dataset,
    pca_model: pca_mod.PcaModel,
    report: efs_mod.EfsReport,
    grid_resolution: int,
    echo: dict,
) -> None:
    test_n = apply_normalizer(norm, test)
    pca_features = pca_mod.top_features(pca_model, 4)
    efs_features = list(report.best_per_size[4].subset)
    stats = lda_mod.class_stats(train_n.features, train_n.labels)
    final = _fit_stack(stats, {"PCA-4": pca_features, "EFS-4": efs_features})
    train_acc = lda_mod.accuracy(final, train_n.features, train_n.labels).tolist()
    test_acc = lda_mod.accuracy(final, test_n.features, test_n.labels).tolist()
    _emit_decision_grids(out, pca_features, train, stats, norm, grid_resolution)

    # train and test partition the labelled dataset, so its counts are their sums
    train_counts = _class_counts(train.labels)
    test_counts = _class_counts(test.labels)
    summary = {
        "config": echo,
        "counts": {
            "total": len(train) + len(test),
            "per_class": {k: train_counts[k] + test_counts[k] for k in train_counts},
            "train": {"total": len(train), "per_class": train_counts},
            "test": {"total": len(test), "per_class": test_counts},
        },
        "pca": {
            "explained_variance_ratio": [float(r) for r in pca_model.explained_variance_ratio],
            "cumulative_ratio": [float(c) for c in pca_model.cumulative_ratio],
            "top_features": [f.column_name for f in pca_features],
        },
        "efs": {
            "best_per_size": {
                str(size): _subset_entry(r) for size, r in report.best_per_size.items()
            },
            "overall_best": _subset_entry(report.overall_best),
        },
        "lda": {
            "pca_selected": {
                "features": [f.column_name for f in pca_features],
                "train_accuracy": train_acc[0],
                "test_accuracy": test_acc[0],
            },
            "efs_selected": {
                "features": [f.column_name for f in efs_features],
                "train_accuracy": train_acc[1],
                "test_accuracy": test_acc[1],
            },
        },
    }
    out.json("summary.json", summary)


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
        thresholds=Thresholds(low_max=args.low_max, high_min=args.high_min),
        split=SplitConfig(train_fraction=args.train_frac, seed=args.split_seed,
                          stratified=not args.no_stratify),
        metric=_EFS_METRIC_FLAGS[args.efs_metric],
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


def _pipeline(args: argparse.Namespace, cfg: argparse.Namespace, out: _Out) -> Iterator[str]:
    """Every stage in memory. Yields each stage's name before running it;
    each dataset is dropped once the next stage has replaced it."""
    yield "generate"
    dataset = stage_generate(cfg.sampler)
    if args.ingest_loads:
        yield "ingest"
        dataset = ingest_external_loads(dataset, args.ingest_loads)
    else:
        yield "simulate"
        dataset = stage_simulate(dataset, cfg.surrogate)
    yield "label"
    dataset = stage_label(dataset, cfg.thresholds)
    yield "split"
    train, test = stage_split(out, dataset, cfg.split)
    del dataset
    yield "pca"
    norm = fit_normalizer(train)
    train_n = apply_normalizer(norm, train)
    pca_model = stage_pca(out, train_n)
    yield "efs"
    report = stage_efs(out, train, cfg.metric, args.cv_seed)
    yield "train"
    stage_train(out, train, test, norm, train_n, pca_model, report, args.grid_resolution, cfg.echo)


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
    out = _Out(Path(args.out))
    try:
        cfg = _configs(args)
        out.path.mkdir(parents=True, exist_ok=True)  # an --out that names a file fails here
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    stage = args.command
    try:
        for stage in _pipeline(args, cfg, out):
            pass
        out.json("config.json", cfg.echo)
    except Exception as exc:
        for path in out.created:  # never raises; a directory a failed open met stays
            with suppress(OSError):
                path.unlink(missing_ok=True)
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

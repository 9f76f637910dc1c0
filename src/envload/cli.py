"""Command-line pipeline orchestration.

    generate -> simulate (or ingest) -> label -> split -> pca -> efs -> train

`envload run` is the one command. Each stage is one function: it takes its
inputs as objects (Dataset, Normalizer, PcaModel, EfsReport), returns its
outputs and writes only the files it owns; stage_split owns dataset.csv,
train.csv and test.csv. `run` chains the stages in memory, so it writes each
output file once and reads none of them back. The dataset and score CSVs are
written a chunk of rows at a time, so no file's text is ever held whole.

Every stage records its parameters in <out>/config.json; the final
summary.json embeds that echo so a run is fully reproducible from its
outputs. Plot data is emitted as CSV for external tools; nothing is
rendered here.

Exit codes: 0 success, 1 usage error (bad option values included, checked
before any stage runs), 2 pipeline error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from itertools import chain, combinations
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import efs as efs_mod
from . import lda as lda_mod
from . import pca as pca_mod
from .dataset import (
    ClassLabel,
    Dataset,
    FeatureId,
    LABEL_ENDS,
    LABEL_NAMES,
    SYSTEM_CONSTANTS,
    builtin_material_library,
    read_dataset,  # unused here; bench/spans.py wraps it by this name, so it goes with that site
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
from .sampling import SamplerConfig, generate_dataset
from .surrogate import (
    SurrogateConfig,
    config_to_json,
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


def _float_cell(v: float) -> str:
    return repr(float(v))


class _Out:
    """The output directory: the files written to it so far, which a failed
    command removes again, and the config echo that becomes config.json."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.created: list[Path] = []
        self.echo: dict = {}

    def new(self, name: str) -> Path:
        """The path of a file about to be written, recorded before it is opened."""
        path = self.path / name
        self.created.append(path)
        return path

    def csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
        # no cell of these files needs quoting, so each line is its cells
        # joined by commas and ended by "\r\n", as csv.writer would write it
        with open(self.new(name), "w", newline="") as fh:
            fh.write("\r\n".join(map(",".join, chain([header], rows))) + "\r\n")

    def json(self, name: str, data: dict) -> None:
        self.new(name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pipeline stages

def stage_generate(out: _Out, cfg: SamplerConfig) -> Dataset:
    out.echo["generate"] = {"seed": cfg.seed, "n_per_material": cfg.n_per_material}
    return generate_dataset(builtin_material_library(), cfg)


def stage_simulate(out: _Out, dataset: Dataset, cfg: SurrogateConfig) -> Dataset:
    out.echo["surrogate"] = {
        "config": config_to_json(cfg),
        "system_constants": SYSTEM_CONSTANTS,
    }
    return simulate_dataset(dataset, cfg)


def stage_ingest(out: _Out, dataset: Dataset, loads_path: str) -> Dataset:
    out.echo["ingest"] = {"loads_path": str(loads_path)}
    return ingest_external_loads(dataset, loads_path)


def stage_label(out: _Out, dataset: Dataset, thresholds: Thresholds) -> Dataset:
    out.echo["thresholds"] = {"low_max": thresholds.low_max, "high_min": thresholds.high_min}
    return label_dataset(dataset, thresholds)


def stage_split(out: _Out, dataset: Dataset, cfg: SplitConfig) -> tuple[Dataset, Dataset]:
    """Split a dataset, and write it as dataset.csv with its two parts as
    train.csv and test.csv, each row formatted once."""
    out.echo["split"] = {
        "train_fraction": cfg.train_fraction,
        "seed": cfg.seed,
        "stratified": cfg.stratified,
    }
    in_train = split(dataset, cfg)
    write_dataset(dataset, out.new("dataset.csv"),
                  {out.new("train.csv"): in_train, out.new("test.csv"): ~in_train})
    return dataset.select(in_train), dataset.select(~in_train)


def stage_pca(out: _Out, train_n: Dataset) -> pca_mod.PcaModel:
    model = pca_mod.fit_pca(train_n.features)
    out.csv(
        "scree.csv",
        ["pc", "ratio", "cumulative"],
        [
            [str(i + 1), _float_cell(model.explained_variance_ratio[i]),
             _float_cell(model.cumulative_ratio[i])]
            for i in range(model.p)
        ],
    )
    out.csv(
        "loadings.csv",
        ["feature"] + [f"pc{j + 1}" for j in range(model.p)],
        [
            [name] + [_float_cell(v) for v in row]
            for name, row in pca_mod.loading_report(model)
        ],
    )
    scores = pca_mod.project(model, train_n.features, [1, 2, 3])
    pairs = ((1, 2), (1, 3), (2, 3))

    def chunk_lines(rows: slice) -> list:
        # each PC's scores are formatted once and shared by the two files that show it
        pcs = [list(map(repr, col)) for col in scores[rows].T.tolist()]
        ends = list(map(LABEL_ENDS.__getitem__, train_n.labels[rows].tolist()))
        return [map(",".join, zip(pcs[i - 1], pcs[j - 1], ends)) for i, j in pairs]

    write_csvs([(out.new(f"scores_{i}_{j}.csv"), f"pc{i},pc{j},label") for i, j in pairs],
               len(scores), chunk_lines)
    return model


def stage_efs(out: _Out, train: Dataset, metric: str, cv_seed: int) -> efs_mod.EfsReport:
    out.echo["efs"] = {"metric": metric, "cv_seed": cv_seed}
    report = efs_mod.run_efs(train, metric=metric, cv_seed=cv_seed)
    out.csv(
        "efs_accuracy.csv",
        ["subset", "size", "metric", "flag"],
        [
            [r.subset_names(), str(len(r.subset)), _float_cell(r.metric_value),
             str(int(r.fit_failed))]
            for r in report.all_results
        ],
    )
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
    model = lda_mod.fit_lda(stats.subset([[int(f) for f in fs] for fs in members.values()]))
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
    feature units, fit as one stack of six sliced from `stats` and scored one
    member at a time. The model works in normalized space, so each axis is
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
        codes = lda_mod.decision_grid(lda_mod.member(model, i), xs_z, ys_z)
        xs, ys = (list(map(repr, axis)) for axis in axes)
        # points in decision_grid's order: y outer, x inner
        out.csv(f"decision_grid_{pair}.csv", ["x", "y", "label"],
                zip(xs * len(ys), [y for y in ys for _ in xs],
                    map(LABEL_NAMES.__getitem__, codes.tolist())))


def stage_train(
    out: _Out,
    train: Dataset,
    test: Dataset,
    norm: Normalizer,
    train_n: Dataset,
    pca_model: pca_mod.PcaModel,
    report: efs_mod.EfsReport,
    grid_resolution: int,
) -> None:
    out.echo["train"] = {"grid_resolution": grid_resolution}
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
        "config": out.echo,
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
    """Every config object that the options describe, built before any stage
    runs; a bad value raises ValueError (or OSError for a JSON file)."""
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
    return cfg


def _pipeline(args: argparse.Namespace, cfg: argparse.Namespace, out: _Out) -> Iterator[str]:
    """Every stage in memory. Yields each stage's name before running it;
    each dataset is dropped once the next stage has replaced it."""
    yield "generate"
    dataset = stage_generate(out, cfg.sampler)
    if args.ingest_loads:
        yield "ingest"
        dataset = stage_ingest(out, dataset, args.ingest_loads)
    else:
        yield "simulate"
        dataset = stage_simulate(out, dataset, cfg.surrogate)
    yield "label"
    dataset = stage_label(out, dataset, cfg.thresholds)
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
    stage_train(out, train, test, norm, train_n, pca_model, report, args.grid_resolution)


# `run`'s options: argparse keywords by flag
_OPTIONS = {
    "--seed": dict(type=int, default=42, help="sampler seed"),
    "--n-per-material": dict(type=int, default=100),
    "--surrogate-config": dict(default=None, metavar="JSON",
                               help="JSON file overriding surrogate constants"),
    "--ingest-loads": dict(default=None, metavar="CSV",
                           help="attach externally computed loads instead of simulating"),
    "--low-max": dict(type=float, default=75.0),
    "--high-min": dict(type=float, default=90.0),
    "--train-frac": dict(type=float, default=0.35),
    "--split-seed": dict(type=int, default=42),
    "--no-stratify": dict(action="store_true"),
    "--efs-metric": dict(choices=sorted(_EFS_METRIC_FLAGS), default="train"),
    "--cv-seed": dict(type=int, default=42),
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
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    out = _Out(Path(args.out))
    out.path.mkdir(parents=True, exist_ok=True)
    stage = args.command
    try:
        for stage in _pipeline(args, cfg, out):
            pass
        out.json("config.json", out.echo)
    except Exception as exc:
        for path in out.created:  # never raises; a directory a failed open met stays
            with suppress(OSError):
                path.unlink(missing_ok=True)
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

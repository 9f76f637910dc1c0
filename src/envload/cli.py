"""Command-line pipeline orchestration.

    generate -> simulate (or ingest) -> label -> split -> pca -> efs -> train

Each stage is one function: it takes its inputs as objects (Dataset,
Normalizer, PcaModel, EfsReport), returns its outputs and writes only the
files it owns. `run` chains the stages in memory, so it writes each output
file once and reads none of them back. Each subcommand runs one stage on
the files in the output directory: it loads the stage's inputs, calls the
same stage function and writes its outputs, so chaining the subcommands
reproduces `run` byte for byte.

Every stage records its parameters in <out>/config.json; the final
summary.json embeds that echo so a run is fully reproducible from its
outputs. Plot data is emitted as CSV for external tools; nothing is
rendered here.

Exit codes: 0 success, 1 usage error (bad option values included, checked
before any stage runs), 2 pipeline error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Iterator

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
    builtin_material_library,
    builtin_system_constants,
    constants_to_json,
    read_dataset,
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
_BY_NAME = {f.column_name: f for f in FeatureId}


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

    def _new(self, name: str) -> Path:
        path = self.path / name
        self.created.append(path)
        return path

    def load(self, name: str) -> Dataset:
        return read_dataset(self.path / name)

    def dataset(self, name: str, dataset: Dataset) -> None:
        write_dataset(dataset, self._new(name))

    def csv(self, name: str, header: list[str], rows: list[list[str]]) -> None:
        with open(self._new(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def json(self, name: str, data: dict) -> None:
        self._new(name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pipeline stages

def stage_generate(out: _Out, cfg: SamplerConfig) -> Dataset:
    out.echo["generate"] = {"seed": cfg.seed, "n_per_material": cfg.n_per_material}
    return generate_dataset(builtin_material_library(), cfg)


def stage_simulate(out: _Out, dataset: Dataset, cfg: SurrogateConfig) -> Dataset:
    out.echo["surrogate"] = {
        "config": config_to_json(cfg),
        "system_constants": constants_to_json(builtin_system_constants()),
    }
    return simulate_dataset(dataset, cfg)


def stage_ingest(out: _Out, dataset: Dataset, loads_path: str) -> Dataset:
    out.echo["ingest"] = {"loads_path": str(loads_path)}
    return ingest_external_loads(dataset, loads_path)


def stage_label(out: _Out, dataset: Dataset, thresholds: Thresholds) -> Dataset:
    out.echo["thresholds"] = {"low_max": thresholds.low_max, "high_min": thresholds.high_min}
    labeled = label_dataset(dataset, thresholds)
    out.dataset("dataset.csv", labeled)
    return labeled


def stage_split(out: _Out, dataset: Dataset, cfg: SplitConfig) -> tuple[Dataset, Dataset]:
    out.echo["split"] = {
        "train_fraction": cfg.train_fraction,
        "seed": cfg.seed,
        "stratified": cfg.stratified,
    }
    train, test = split(dataset, cfg)
    out.dataset("train.csv", train)
    out.dataset("test.csv", test)
    return train, test


def _normalize(train: Dataset) -> tuple[Normalizer, Dataset]:
    norm = fit_normalizer(train)
    return norm, apply_normalizer(norm, train)


def stage_pca(out: _Out, train_n: Dataset) -> pca_mod.PcaModel:
    model = pca_mod.fit_pca(train_n)
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
    labels = [LABEL_NAMES[c] for c in train_n.labels.tolist()]
    for i, j in ((1, 2), (1, 3), (2, 3)):
        scores = pca_mod.project(model, train_n, [i, j]).tolist()
        out.csv(
            f"scores_{i}_{j}.csv",
            [f"pc{i}", f"pc{j}", "label"],
            [[_float_cell(a), _float_cell(b), lbl] for (a, b), lbl in zip(scores, labels)],
        )
    return model


def stage_efs(out: _Out, train: Dataset, metric: str, cv_seed: int) -> efs_mod.EfsReport:
    out.echo["efs"] = {"metric": metric, "cv_seed": cv_seed}
    report = efs_mod.run_efs(train, metric=metric, cv_seed=cv_seed)
    out.csv(
        "efs_accuracy.csv",
        ["subset", "size", "metric", "flag"],
        [
            [r.subset_names(), str(r.size), _float_cell(r.metric_value),
             str(int(r.fit_failed))]
            for r in report.all_results
        ],
    )
    return report


def _read_pca(path: Path, n_fit: int) -> pca_mod.PcaModel:
    """The model that `pca` wrote to scree.csv and loadings.csv. Those keep
    only the variance ratios and |loadings|, so the eigenvalues come back as
    the ratios and the loadings unsigned; ranking and the summary need no more."""
    with open(path / "scree.csv", newline="") as fh:
        scree = np.array([[float(r["ratio"]), float(r["cumulative"])]
                          for r in csv.DictReader(fh)]).reshape(-1, 2)
    loadings = np.zeros((N_FEATURES, len(scree)))
    with open(path / "loadings.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            loadings[_BY_NAME[row["feature"]]] = [
                float(row[f"pc{j + 1}"]) for j in range(len(scree))
            ]
    return pca_mod.PcaModel(scree[:, 0], scree[:, 0], scree[:, 1], loadings, n_fit)


def _read_efs(path: Path, metric: str) -> efs_mod.EfsReport:
    """The report that `efs` wrote to efs_accuracy.csv."""
    with open(path, newline="") as fh:
        results = [
            efs_mod.SubsetResult(
                subset=tuple(_BY_NAME[n] for n in row["subset"].split("+")),
                size=int(row["size"]),
                metric_value=float(row["metric"]),
                metric_kind=metric,
                fit_failed=bool(int(row["flag"])),
            )
            for row in csv.DictReader(fh)
        ]
    return efs_mod.build_report(results, metric)


def _class_counts(labels: np.ndarray) -> dict[str, int]:
    counts = np.bincount(labels, minlength=len(ClassLabel)).tolist()
    return dict(zip(LABEL_NAMES, counts))


def _subset_entry(result: efs_mod.SubsetResult) -> dict:
    return {
        "subset": [f.column_name for f in result.subset],
        "metric": result.metric_value,
        "fit_failed": result.fit_failed,
    }


def _fit_on_features(
    features: list[FeatureId], train_n: Dataset, test_n: Dataset
) -> tuple[float, float]:
    cols = [int(f) for f in features]
    x_train = train_n.features[:, cols]
    x_test = test_n.features[:, cols]
    model = lda_mod.fit_lda(x_train, train_n.labels)
    return (
        lda_mod.accuracy(model, x_train, train_n.labels),
        lda_mod.accuracy(model, x_test, test_n.labels),
    )


def _emit_decision_grids(
    out: _Out,
    features: list[FeatureId],
    train: Dataset,
    train_n: Dataset,
    norm: Normalizer,
    resolution: int,
) -> None:
    """Six pairwise decision-region grids over the selected features, in raw
    feature units (the model works in normalized space)."""
    raw = train.features
    ordered = sorted(features, key=int)  # canonical order keeps names stable
    pairs = [
        (ordered[a], ordered[b])
        for a in range(len(ordered))
        for b in range(a + 1, len(ordered))
    ]
    for f1, f2 in pairs:
        cols = [int(f1), int(f2)]
        model = lda_mod.fit_lda(train_n.features[:, cols], train_n.labels)
        bounds = []
        for f in (f1, f2):
            lo, hi = float(raw[:, f].min()), float(raw[:, f].max())
            margin = GRID_MARGIN * (hi - lo)
            bounds.extend([lo - margin, hi + margin])
        # grid in raw units; normalize per feature before predicting
        grid_raw = lda_mod.decision_grid(
            _denormalized_twin(model, norm, f1, f2), tuple(bounds), resolution
        )
        out.csv(
            f"decision_grid_{f1.column_name}_{f2.column_name}.csv",
            ["x", "y", "label"],
            [[_float_cell(x), _float_cell(y), lbl.csv_value] for x, y, lbl in grid_raw],
        )


def _denormalized_twin(
    model: lda_mod.LdaModel, norm: Normalizer, f1: FeatureId, f2: FeatureId
) -> lda_mod.LdaModel:
    """Rewrite a 2-feature model fit in z-space to accept raw coordinates.

    z = (x - mu) / sigma is affine, so delta_k(z(x)) stays linear in x:
    coefficients divide by sigma, intercepts absorb the mean shift.
    """
    sigmas = np.array([norm.std_devs[f1] or 1.0, norm.std_devs[f2] or 1.0])
    mus = np.array([norm.means[f1], norm.means[f2]])
    coef = model.coef / sigmas
    intercept = model.intercept - coef @ mus
    return lda_mod.LdaModel(
        classes=model.classes,
        means=model.means,
        pooled_covariance=model.pooled_covariance,
        solver=model.solver,
        log_priors=model.log_priors,
        p=2,
        coef=coef,
        intercept=intercept,
    )


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
    if 4 not in report.best_per_size:
        raise ValueError("the EFS report has no size-4 subsets")
    pca_features = pca_mod.top_features(pca_model, 4)
    efs_features = list(report.best_per_size[4].subset)
    pca_train_acc, pca_test_acc = _fit_on_features(pca_features, train_n, test_n)
    efs_train_acc, efs_test_acc = _fit_on_features(efs_features, train_n, test_n)
    _emit_decision_grids(out, pca_features, train, train_n, norm, grid_resolution)

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
                "train_accuracy": pca_train_acc,
                "test_accuracy": pca_test_acc,
            },
            "efs_selected": {
                "features": [f.column_name for f in efs_features],
                "train_accuracy": efs_train_acc,
                "test_accuracy": efs_test_acc,
            },
        },
    }
    out.json("summary.json", summary)


# ---------------------------------------------------------------------------
# command wiring

def _configs(args: argparse.Namespace) -> argparse.Namespace:
    """Every config object that the command's options describe, built before
    any stage runs; a bad value raises ValueError (or OSError for a JSON file)."""
    given = vars(args)
    cfg = argparse.Namespace()
    if "n_per_material" in given:
        cfg.sampler = SamplerConfig(seed=args.seed, n_per_material=args.n_per_material)
    if "surrogate_config" in given:
        cfg.surrogate = (load_config(args.surrogate_config) if args.surrogate_config
                         else SurrogateConfig())
    if "low_max" in given:
        cfg.thresholds = Thresholds(low_max=args.low_max, high_min=args.high_min)
    if "train_frac" in given:
        cfg.split = SplitConfig(train_fraction=args.train_frac, seed=args.split_seed,
                                stratified=not args.no_stratify)
    if "efs_metric" in given:
        cfg.metric = _EFS_METRIC_FLAGS[args.efs_metric]
    if given.get("grid_resolution", 2) < 2:
        raise ValueError(f"--grid-resolution must be >= 2, got {args.grid_resolution}")
    return cfg


def _pipeline(args: argparse.Namespace, cfg: argparse.Namespace, out: _Out) -> Iterator[str]:
    """`run`: every stage in memory. Yields each stage's name before running it;
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
    norm, train_n = _normalize(train)
    pca_model = stage_pca(out, train_n)
    yield "efs"
    report = stage_efs(out, train, cfg.metric, args.cv_seed)
    yield "train"
    stage_train(out, train, test, norm, train_n, pca_model, report, args.grid_resolution)


def _train_from_files(args: argparse.Namespace, cfg: argparse.Namespace, out: _Out) -> None:
    train, test = out.load("train.csv"), out.load("test.csv")
    norm, train_n = _normalize(train)
    pca_model = _read_pca(out.path, len(train))
    report = _read_efs(out.path / "efs_accuracy.csv", out.echo["efs"]["metric"])
    stage_train(out, train, test, norm, train_n, pca_model, report, args.grid_resolution)


def _subcommand(name: str, action):
    """Steps of a one-stage subcommand: continue the config echo in --out, then act."""
    def steps(args: argparse.Namespace, cfg: argparse.Namespace, out: _Out) -> Iterator[str]:
        yield name
        path = out.path / "config.json"
        out.echo = json.loads(path.read_text()) if path.exists() else {}
        action(args, cfg, out)
    return steps


# each subcommand's options (argparse keywords by flag); `run` takes them all
# and makes --ingest-loads optional
_OPTIONS = {
    "generate": {"--seed": dict(type=int, default=42, help="sampler seed"),
                 "--n-per-material": dict(type=int, default=100)},
    "simulate": {"--surrogate-config": dict(
        default=None, metavar="JSON", help="JSON file overriding surrogate constants")},
    "ingest": {"--ingest-loads": dict(required=True, metavar="CSV")},
    "label": {"--low-max": dict(type=float, default=75.0),
              "--high-min": dict(type=float, default=90.0)},
    "split": {"--train-frac": dict(type=float, default=0.35),
              "--split-seed": dict(type=int, default=42),
              "--no-stratify": dict(action="store_true")},
    "efs": {"--efs-metric": dict(choices=sorted(_EFS_METRIC_FLAGS), default="train"),
            "--cv-seed": dict(type=int, default=42)},
    "train": {"--grid-resolution": dict(type=int, default=DEFAULT_GRID_RESOLUTION)},
}
_RUN_INGEST = dict(default=None, metavar="CSV",
                   help="attach externally computed loads instead of simulating")

# name, help, and the action that loads the stage's inputs from --out, runs
# the stage and writes what `run` keeps in memory
_SUBCOMMANDS = (
    ("generate", "sample the material library",
     lambda a, c, o: o.dataset("dataset.csv", stage_generate(o, c.sampler))),
    ("simulate", "attach surrogate loads",
     lambda a, c, o: o.dataset("dataset.csv", stage_simulate(
         o, o.load("dataset.csv"), c.surrogate))),
    ("ingest", "attach externally computed loads",
     lambda a, c, o: o.dataset("dataset.csv", stage_ingest(
         o, o.load("dataset.csv"), a.ingest_loads))),
    ("label", "label loads into classes",
     lambda a, c, o: stage_label(o, o.load("dataset.csv"), c.thresholds)),
    ("split", "train/test split",
     lambda a, c, o: stage_split(o, o.load("dataset.csv"), c.split)),
    ("pca", "scree, loadings, and PC scores",
     lambda a, c, o: stage_pca(o, _normalize(o.load("train.csv"))[1])),
    ("efs", "exhaustive feature-subset sweep",
     lambda a, c, o: stage_efs(o, o.load("train.csv"), c.metric, a.cv_seed)),
    ("train", "fit final models, grids, and summary", _train_from_files),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="envload", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="full pipeline")
    run.set_defaults(steps=_pipeline)
    for name, help_text, action in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(steps=_subcommand(name, action))
        for flag, kwargs in _OPTIONS.get(name, {}).items():
            p.add_argument(flag, **kwargs)
            run.add_argument(flag, **(_RUN_INGEST if flag == "--ingest-loads" else kwargs))
    for p in sub.choices.values():
        p.add_argument("--out", default="out", help="output directory")
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
        for stage in args.steps(args, cfg, out):
            pass
        out.json("config.json", out.echo)
    except Exception as exc:
        for path in out.created:
            path.unlink(missing_ok=True)
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

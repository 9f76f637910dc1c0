"""Principal component analysis of normalized training features.

Loadings are raw eigenvector components (signed, unit-norm columns); reports
print their absolute values. Covariance uses 1/(n-1) scaling about the
column means. Loading rows follow the canonical feature order; the report
reorders labels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, FeatureId, N_FEATURES
from .numerics import SymMatrix, jacobi_eigen

# Row order used by loading_report, chosen for side-by-side comparison with
# conventional loading tables; internal storage never changes order.
REPORT_ROW_ORDER = (
    FeatureId.THICKNESS,
    FeatureId.THERMAL_CONDUCTIVITY,
    FeatureId.SPECIFIC_HEAT_CAPACITY,
    FeatureId.DENSITY,
    FeatureId.THERMAL_ABSORPTANCE,
    FeatureId.SOLAR_ABSORPTANCE,
    FeatureId.VISUAL_ABSORPTANCE,
)


@dataclass(frozen=True)
class PcaModel:
    eigenvalues: np.ndarray             # (p,) descending
    explained_variance_ratio: np.ndarray
    cumulative_ratio: np.ndarray
    loadings: np.ndarray                # (p, p), rows = features, cols = PCs
    n_fit: int

    @property
    def p(self) -> int:
        return len(self.eigenvalues)


def fit_pca_matrix(x: np.ndarray) -> PcaModel:
    """Fit on a raw (n, p) matrix; callers normalize beforehand."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {x.shape}")
    n, p = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows to fit, got {n}")
    centered = x - x.mean(axis=0)
    cov = SymMatrix.from_full(centered.T @ centered / (n - 1))
    decomp = jacobi_eigen(cov)
    total = float(decomp.eigenvalues.sum())
    if total <= 0.0:
        raise ValueError("zero total variance: cannot compute variance ratios")
    ratios = decomp.eigenvalues / total
    return PcaModel(
        eigenvalues=decomp.eigenvalues,
        explained_variance_ratio=ratios,
        cumulative_ratio=np.cumsum(ratios),
        loadings=decomp.eigenvectors,
        n_fit=n,
    )


def fit_pca(train_normalized: Dataset) -> PcaModel:
    """Fit on a normalized dataset's feature matrix."""
    return fit_pca_matrix(train_normalized.features)


def loading_report(model: PcaModel) -> list[tuple[str, list[float]]]:
    """Absolute loadings, one row per feature in REPORT_ROW_ORDER."""
    if model.p != N_FEATURES:
        raise ValueError(f"report is defined for {N_FEATURES} features, model has {model.p}")
    return [
        (f.column_name, [abs(float(v)) for v in model.loadings[f]])
        for f in REPORT_ROW_ORDER
    ]


def top_features(model: PcaModel, k: int) -> list[FeatureId]:
    """Features ranked by |PC1 loading| descending, ties by canonical order."""
    if model.p != N_FEATURES:
        raise ValueError(f"feature ranking needs {N_FEATURES} features, model has {model.p}")
    if not 1 <= k <= N_FEATURES:
        raise ValueError(f"k must be in 1..{N_FEATURES}, got {k}")
    pc1 = np.abs(model.loadings[:, 0])
    ranked = sorted(FeatureId, key=lambda f: (-pc1[f], int(f)))
    return ranked[:k]


def project(
    model: PcaModel, dataset_normalized: Dataset, components: Sequence[int]
) -> np.ndarray:
    """Score matrix for the selected 1-based PC indices.

    The dataset must be normalized with the same normalizer used at fit.
    """
    for c in components:
        if not 1 <= c <= model.p:
            raise ValueError(f"component index {c} outside 1..{model.p}")
    cols = [c - 1 for c in components]
    return dataset_normalized.features @ model.loadings[:, cols]

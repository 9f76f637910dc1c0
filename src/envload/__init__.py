"""Material-property Monte Carlo sampling, surrogate thermal loads, and
LDA/PCA/exhaustive-feature-selection analysis for building envelopes."""

from .dataset import (
    ClassLabel,
    Dataset,
    FeatureId,
    MaterialLibrary,
    SYSTEM_CONSTANTS,
    builtin_material_library,
    read_dataset,
    write_dataset,
)
from .efs import EfsReport, SubsetResult, enumerate_subsets, run_efs
from .lda import ClassStats, LdaModel, accuracy, class_stats, decision_grid, fit_lda
from .pca import PcaModel, fit_pca, loading_report, project, top_features
from .preprocess import (
    Normalizer,
    SplitConfig,
    Thresholds,
    apply_normalizer,
    fit_normalizer,
    label_dataset,
    label_load,
    split,
)
from .sampling import SamplerConfig, generate_dataset, sample_material
from .surrogate import (
    SurrogateConfig,
    annual_thermal_load,
    areal_heat_capacity,
    ingest_external_loads,
    simulate_dataset,
    wall_u_value,
)

__version__ = "0.1.0"

__all__ = [
    "ClassLabel",
    "ClassStats",
    "Dataset",
    "EfsReport",
    "FeatureId",
    "LdaModel",
    "MaterialLibrary",
    "Normalizer",
    "PcaModel",
    "SamplerConfig",
    "SplitConfig",
    "SubsetResult",
    "SurrogateConfig",
    "SYSTEM_CONSTANTS",
    "Thresholds",
    "accuracy",
    "annual_thermal_load",
    "apply_normalizer",
    "areal_heat_capacity",
    "builtin_material_library",
    "class_stats",
    "decision_grid",
    "enumerate_subsets",
    "fit_lda",
    "fit_normalizer",
    "fit_pca",
    "generate_dataset",
    "ingest_external_loads",
    "label_dataset",
    "label_load",
    "loading_report",
    "project",
    "read_dataset",
    "run_efs",
    "sample_material",
    "simulate_dataset",
    "split",
    "top_features",
    "wall_u_value",
    "write_dataset",
]

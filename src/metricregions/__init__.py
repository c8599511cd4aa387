"""Distribution-free prediction regions for metric-space responses.

Split a sample, estimate a conditional center (a Fréchet mean under the
chosen metric), and calibrate ball radii on held-out residuals so that
finite-sample marginal coverage is guaranteed without distributional
assumptions.  Radii can be global (homoscedastic), local over nearest
calibration neighbors (heteroscedastic), tuned for coverage, or shifted
by a conformal offset from a third split.
"""

from .errors import (
    DimensionMismatch,
    EmptyEvalSet,
    EmptyValues,
    IncompatibleMetric,
    InvalidConfig,
    InvalidDataset,
    KGridEmpty,
    KTooLarge,
    MetricRegionsError,
    MultivariateUnsupported,
    SchemaError,
    TooFewSamples,
    UnsupportedScenario,
    VersionMismatch,
)
from .metrics import (
    EuclideanVector,
    MetricKind,
    QuantileFunction,
    STANDARD_GRID,
    rowwise_distance,
)
from .regression import (
    ConstantMean,
    GlobalFrechetModel,
    KnnFrechetModel,
    LabeledDataset,
    MeanSpec,
    SplitConfig,
    fit_global_frechet,
    fit_knn_frechet,
    fit_mean,
    loo_select_k,
    select_global_k,
    split_dataset,
    split_three,
)
from .regions import (
    ConformalizedHeteroModel,
    HeteroscedasticRegionModel,
    HomoscedasticRegionModel,
    empirical_quantile,
    fit_conformalized_hetero,
    fit_hetero_tuned,
    fit_heteroscedastic_knn,
    fit_homoscedastic,
    region_radii,
    tune_k_marginal,
)
from .simulate import (
    GaussianMulti,
    Setting1,
    Setting2,
    Setting3,
    Setting4,
    WassersteinExample,
    generate,
    oracle_region,
)
from .evaluate import (
    CoverageReport,
    conditional_coverage_curve,
    evaluate_model,
    l2_integrated_error,
    marginal_coverage,
    symmetric_difference_error,
)

__version__ = "0.1.0"

__all__ = [
    "ConformalizedHeteroModel",
    "ConstantMean",
    "CoverageReport",
    "DimensionMismatch",
    "EmptyEvalSet",
    "EmptyValues",
    "EuclideanVector",
    "GaussianMulti",
    "GlobalFrechetModel",
    "HeteroscedasticRegionModel",
    "HomoscedasticRegionModel",
    "IncompatibleMetric",
    "InvalidConfig",
    "InvalidDataset",
    "KGridEmpty",
    "KTooLarge",
    "KnnFrechetModel",
    "LabeledDataset",
    "MeanSpec",
    "MetricKind",
    "MetricRegionsError",
    "MultivariateUnsupported",
    "QuantileFunction",
    "STANDARD_GRID",
    "SchemaError",
    "Setting1",
    "Setting2",
    "Setting3",
    "Setting4",
    "SplitConfig",
    "TooFewSamples",
    "UnsupportedScenario",
    "VersionMismatch",
    "WassersteinExample",
    "conditional_coverage_curve",
    "empirical_quantile",
    "evaluate_model",
    "fit_conformalized_hetero",
    "fit_global_frechet",
    "fit_hetero_tuned",
    "fit_heteroscedastic_knn",
    "fit_homoscedastic",
    "fit_knn_frechet",
    "fit_mean",
    "generate",
    "l2_integrated_error",
    "loo_select_k",
    "marginal_coverage",
    "oracle_region",
    "region_radii",
    "rowwise_distance",
    "select_global_k",
    "split_dataset",
    "split_three",
    "symmetric_difference_error",
    "tune_k_marginal",
]

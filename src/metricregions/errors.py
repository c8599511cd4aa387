"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`MetricRegionsError`
so callers can catch one base class.  The CLI maps subtrees of this
hierarchy onto process exit codes (config -> 2, data -> 3, numeric -> 4).
"""


class MetricRegionsError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# geometry / dataset errors


class DimensionMismatch(MetricRegionsError):
    """Two objects that must share a shape or grid do not."""


class IncompatibleMetric(MetricRegionsError):
    """A metric was applied to a response variant it does not support."""


class InvalidDataset(MetricRegionsError):
    """A dataset violates its construction invariants."""


# ---------------------------------------------------------------------------
# estimator / model errors


class TooFewSamples(MetricRegionsError):
    """Not enough rows to fit the requested estimator."""


class KGridEmpty(MetricRegionsError):
    """A candidate-k grid contained no usable values."""


class KTooLarge(MetricRegionsError):
    """Requested neighbor count exceeds the available sample."""


class EmptyValues(MetricRegionsError):
    """Empirical quantile of an empty value array."""


class EmptyEvalSet(MetricRegionsError):
    """Evaluation requested against zero evaluation points."""


class MultivariateUnsupported(MetricRegionsError):
    """Operation defined only for scalar predictors."""


class UnsupportedScenario(MetricRegionsError):
    """The scenario has no closed form for the requested quantity."""


# ---------------------------------------------------------------------------
# CLI / file errors


class InvalidConfig(MetricRegionsError):
    """A run configuration is missing keys or holds out-of-range values."""


class SchemaError(MetricRegionsError):
    """A data file does not match the documented column layout."""


class VersionMismatch(MetricRegionsError):
    """A serialized artifact declares an unknown format version."""

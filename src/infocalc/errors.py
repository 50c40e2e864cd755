"""Exception types shared across the engine."""


class InfoCalcError(Exception):
    """Base class for all engine errors."""


class UnboundedDeconvolution(InfoCalcError):
    """Deconvolution diverges: the left curve grows faster than the right one."""


class InfiniteDeviation(InfoCalcError):
    """Horizontal deviation is unbounded (arrival rate exceeds service rate)."""


class NonMonotoneResult(InfoCalcError):
    """A curve operation would produce a decreasing (non-representable) result."""


class UnreachableProbability(InfoCalcError):
    """Requested probability can never be reached by the bounding function."""


class UnreachableRatio(InfoCalcError):
    """No horizon gives the requested information delivery ratio."""


class DegenerateVariance(InfoCalcError):
    """Gaussian source parameters give a non-positive long-term entropy rate."""


class NumericalSingularity(InfoCalcError):
    """Covariance determinant under/overflowed beyond recoverable precision."""


class InconsistentGroup(InfoCalcError):
    """Sources in one group must share identical model parameters."""


class SchemaError(InfoCalcError):
    """Scenario document is malformed (missing field, wrong type, unknown key)."""


class ValidationError(InfoCalcError):
    """Scenario document is well-formed but violates a model invariant."""


class SubsetLimitExceeded(InfoCalcError):
    """Path count exceeds the 2^K subset enumeration guard."""


class ConfigError(InfoCalcError):
    """Invalid simulation configuration."""

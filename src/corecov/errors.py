"""Exception types.  ConfigError rejects an argument before any computation;
NUMERICAL_ERRORS fail a computation on valid input.  The CLI exits 2 on
ConfigError or OSError, 3 on NUMERICAL_ERRORS, and lets anything else propagate."""

import numpy as np


class ConfigError(ValueError):
    """An argument is rejected: wrong shape, type or value, or unusable file."""


class DefinitenessError(ValueError):
    """A matrix that must be positive definite is not (within tolerance)."""


class NoKroneckerMle(RuntimeError):
    """The flip-flop iteration did not stabilize: no Kronecker MLE exists
    (or the input is too close to the nonexistence set to tell apart)."""


class StructureError(ValueError):
    """Input lacks the structure an operation requires (e.g. no constant
    trailing eigenvalue block in a partial-isotropy decomposition)."""


class CapacityError(ConfigError):
    """Problem size exceeds a hard limit of a dense code path."""


# Fits treat these as a failed step or sweep; studies record them per estimator.
NUMERICAL_ERRORS = (
    np.linalg.LinAlgError, DefinitenessError, NoKroneckerMle, StructureError,
    FloatingPointError,
)

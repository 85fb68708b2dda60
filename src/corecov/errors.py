"""Exception types shared across the package."""

import numpy as np


class DefinitenessError(ValueError):
    """A matrix that must be positive definite is not (within tolerance)."""


class NoKroneckerMle(RuntimeError):
    """The flip-flop iteration did not stabilize: no Kronecker MLE exists
    (or the input is too close to the nonexistence set to tell apart)."""


class StructureError(ValueError):
    """Input lacks the structure an operation requires (e.g. no constant
    trailing eigenvalue block in a partial-isotropy decomposition)."""


class CapacityError(ValueError):
    """Problem size exceeds a hard limit of a dense code path."""


# Failures of a computation on valid input.  Fits treat them as a failed step
# or sweep, studies record them per estimator, and the CLI exits 3 on them.
NUMERICAL_ERRORS = (
    np.linalg.LinAlgError, DefinitenessError, NoKroneckerMle, StructureError,
    FloatingPointError,
)

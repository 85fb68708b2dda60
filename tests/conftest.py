import numpy as np
import pytest
from hypothesis import settings

# Every run draws the same examples: a seed derived from each test, and no
# replay of examples saved by earlier runs.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def rand_spd(q, rng, ridge=0.3):
    """Well-conditioned random SPD matrix."""
    g = rng.standard_normal((q, 2 * q))
    return g @ g.T / (2 * q) + ridge * np.eye(q)


def rand_sym(q, rng):
    m = rng.standard_normal((q, q))
    return (m + m.T) / 2.0


def rand_lower(q, rng):
    return np.tril(rng.standard_normal((q, q)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

"""Structural matrix operators: vec/mat, Kronecker calculus, partial traces,
triangular splits, SPD square roots and whitening.

Conventions used everywhere in this package:
  - vec() stacks columns (so vec(B X A^T) = (A (x) B) vec(X)).
  - A p x p matrix with p = p1*p2 is partitioned into a p2 x p2 grid of
    p1 x p1 blocks; kron(B, A) then has block [i, j] = B[i, j] * A.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DefinitenessError

# Relative eigenvalue floor: a symmetric matrix whose smallest (for a rank-r
# check, r-th largest) eigenvalue is at most this fraction of its largest is
# not positive definite (not of rank r).
PD_RTOL = 1e-10
# Largest residual a validated structure may show: the constraint residual of
# a core or core factor, |det - 1| and the relative asymmetry of a K-bar
# factor, and the relative depth of a negative eigenvalue still taken as PSD.
RESIDUAL_TOL = 1e-8
# Bytes of the largest temporary a stacked operation may build over a stack of
# basis elements; the stack goes through in chunks that fit (at least one
# element each), which bounds the peak memory the stacks add.
STACK_BYTES = 1 << 18


@dataclass(frozen=True, slots=True)
class Dims:
    """Problem shape (p1, p2) with p = p1*p2 and an optional rank r.

    The sizes are integers (Python or numpy; operator.index), p1, p2 >= 2.
    When r is given it must satisfy p1/p2 + p2/p1 < r <= p, the regime in
    which rank-r cores exist.
    """

    p1: int
    p2: int
    r: int | None = None

    def __post_init__(self):
        p1, p2 = operator.index(self.p1), operator.index(self.p2)
        r = None if self.r is None else operator.index(self.r)
        if p1 < 2 or p2 < 2:
            raise ConfigError(f"need p1, p2 >= 2, got ({p1}, {p2})")
        if r is not None and not (p1 / p2 + p2 / p1 < r <= p1 * p2):
            raise ConfigError(f"rank r={r} outside ({p1 / p2 + p2 / p1}, {p1 * p2}]")
        # store Python ints, so numpy integer input gives the same repr
        for name, value in (("p1", p1), ("p2", p2), ("r", r)):
            object.__setattr__(self, name, value)

    @property
    def p(self):
        return self.p1 * self.p2


def chunks(m, item_bytes):
    """Slices that cover range(m) with at most STACK_BYTES // item_bytes
    elements each (at least one)."""
    step = max(1, STACK_BYTES // item_bytes)
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


def vec(m):
    """Column-stack a matrix into a vector; a (..., p, r) stack gives the
    (..., p*r) stack of the vec of each matrix."""
    t = np.asarray(m).swapaxes(-1, -2)
    return t.reshape(*t.shape[:-2], -1)


def mat(u, p1, p2):
    """Inverse of vec: a (p1*p2)-vector gives a p1 x p2 matrix, a (..., p1*p2)
    stack the (..., p1, p2) stack of matrices."""
    u = np.asarray(u)
    if u.shape[-1:] != (p1 * p2,):
        raise ConfigError(f"expected length-{p1 * p2} vectors, got shape {u.shape}")
    return u.reshape(*u.shape[:-1], p2, p1).swapaxes(-1, -2).copy()


def kron(b, a):
    """Kronecker product of two matrices, with block [i, j] = b[i, j] * a.

    One broadcast product: each entry is the single product b[i, j] a[k, l],
    so the bytes and the layout are those of np.kron, without its overhead.
    """
    b, a = np.asarray(b), np.asarray(a)
    (m, n), (p, q) = b.shape, a.shape
    return (b[:, None, :, None] * a[None, :, None, :]).reshape(m * p, n * q)


def weighted_partial_trace_1(m, w2, dims):
    """sum_{ij} (w2)_{ji} M_[i,j]  (p1 x p1); at w2 = identity it is the
    partial trace tr_1(M), the sum of the diagonal blocks M_[i,i]."""
    m = _check_square(m, dims.p)
    v = m.reshape(dims.p2, dims.p1, dims.p2, dims.p1)
    return np.einsum("iajb,ji->ab", v, np.asarray(w2))


def weighted_partial_trace_2(m, w1, dims):
    """N with N_{ij} = trace(M_[i,j] w1)  (p2 x p2); at w1 = identity it is
    the partial trace tr_2(M), with tr_2(M)_{ij} = trace(M_[i,j])."""
    m = _check_square(m, dims.p)
    v = m.reshape(dims.p2, dims.p1, dims.p2, dims.p1)
    return np.einsum("iajb,ba->ij", v, np.asarray(w1))


def sym(m):
    m = np.asarray(m)
    return (m + m.swapaxes(-1, -2)) / 2.0


def skew(m):
    m = np.asarray(m)
    return (m - m.T) / 2.0


def diag_part(m):
    return np.where(np.eye(np.shape(m)[-1], dtype=bool), m, 0.0)


def half(m):
    """(M)_{1/2} = strict lower triangle plus half the diagonal."""
    m = _check_square(m)
    return np.tril(m, -1) + diag_part(m) / 2.0


def spd_eigh(s, what="matrix"):
    """Eigendecomposition (w, q) of the symmetrized input; DefinitenessError
    unless its smallest eigenvalue exceeds PD_RTOL times the largest."""
    w, q = np.linalg.eigh(sym(_check_square(s)))
    if not w[0] > PD_RTOL * max(w[-1], 0.0):
        raise DefinitenessError(
            f"{what} is not positive definite: min eig {w[0]:.3e}, max {w[-1]:.3e}"
        )
    return w, q


def spd_half_powers(s, what="matrix"):
    """(S^(1/2), S^(-1/2)) of an SPD matrix from one eigendecomposition."""
    w, q = spd_eigh(s, what=what)
    rt = np.sqrt(w)
    return (q * rt) @ q.T, (q / rt) @ q.T


def spd_inv_sqrt(s, what="matrix"):
    """S^(-1/2) alone, without spd_half_powers' S^(1/2) product (balancing)."""
    w, q = spd_eigh(s, what=what)
    return (q / np.sqrt(w)) @ q.T


def chol(s):
    """Lower Cholesky factor with positive diagonal of an SPD matrix."""
    spd_eigh(s, what="chol input")
    return np.linalg.cholesky(sym(_check_square(s)))


def det_root(m):
    """det(M)^(1/q) of a q x q matrix of positive determinant, from slogdet
    where det leaves the range of normal floats."""
    with np.errstate(over="ignore"):
        d = np.linalg.det(m)
    if np.finfo(float).tiny <= d < np.inf:
        return d ** (1.0 / len(m))
    return np.exp(np.linalg.slogdet(m)[1] / len(m))


def whiten(h, m):
    """sym(H^-1 M H^-T): M expressed in the frame of the square root H."""
    x = np.linalg.solve(h, m)
    return sym(np.linalg.solve(h, x.T).T)


def _check_square(m, size=None):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {m.shape}")
    if size is not None and m.shape[0] != size:
        raise ConfigError(f"expected size {size}, got {m.shape[0]}")
    return m

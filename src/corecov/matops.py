"""Structural matrix operators: vec/mat, Kronecker and commutation calculus,
block partitions, partial traces, triangular splits, SPD square roots and
whitening.

Conventions used everywhere in this package:
  - vec() stacks columns (so vec(B X A^T) = (A (x) B) vec(X)).
  - A p x p matrix with p = p1*p2 is partitioned into a p2 x p2 grid of
    p1 x p1 blocks; kron(B, A) then has block [i, j] = B[i, j] * A.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError

# Relative eigenvalue threshold below which a symmetric matrix is rejected
# as not positive definite.
PD_RTOL = 1e-10


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
            raise ValueError(f"need p1, p2 >= 2, got ({p1}, {p2})")
        if r is not None and not (p1 / p2 + p2 / p1 < r <= p1 * p2):
            raise ValueError(f"rank r={r} outside ({p1 / p2 + p2 / p1}, {p1 * p2}]")
        # store Python ints, so numpy integer input gives the same repr
        for name, value in (("p1", p1), ("p2", p2), ("r", r)):
            object.__setattr__(self, name, value)

    @property
    def p(self):
        return self.p1 * self.p2


def vec(m):
    """Column-stack a matrix into a vector."""
    return np.asarray(m).reshape(-1, order="F").copy()


def mat(u, p1, p2):
    """Inverse of vec: reshape a (p1*p2)-vector into a p1 x p2 matrix."""
    u = np.asarray(u)
    if u.size != p1 * p2:
        raise ValueError(f"vector of size {u.size} is not {p1}x{p2}")
    return u.reshape((p1, p2), order="F").copy()


def kron(b, a):
    """Kronecker product with block [i, j] = b[i, j] * a."""
    return np.kron(np.asarray(b), np.asarray(a))


def commutation_matrix(m, n):
    """Dense commutation matrix K_{m,n} with K_{m,n} vec(B^T) = vec(B)."""
    return np.eye(m * n)[np.arange(m * n).reshape(m, n).T.ravel()]


def block_partition(m, dims):
    """Partition a p x p matrix into its p2 x p2 grid of p1 x p1 blocks.

    Returns an array of shape (p2, p2, p1, p1) with [i, j] the block M_[i,j].
    """
    m = _check_square(m, dims.p)
    p1, p2 = dims.p1, dims.p2
    return m.reshape(p2, p1, p2, p1).transpose(0, 2, 1, 3).copy()


def assemble_blocks(blocks):
    """Reassemble the output of block_partition into the p x p matrix."""
    blocks = np.asarray(blocks)
    p2, _, p1, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(p2 * p1, p2 * p1).copy()


def partial_trace_1(m, dims):
    """tr_1(M) = sum of the diagonal blocks M_[i,i]  (p1 x p1)."""
    m = _check_square(m, dims.p)
    v = m.reshape(dims.p2, dims.p1, dims.p2, dims.p1)
    return np.einsum("iaib->ab", v)


def partial_trace_2(m, dims):
    """tr_2(M)_{ij} = trace(M_[i,j])  (p2 x p2)."""
    m = _check_square(m, dims.p)
    v = m.reshape(dims.p2, dims.p1, dims.p2, dims.p1)
    return np.einsum("iaja->ij", v)


def weighted_partial_trace_1(m, w2, dims):
    """sum_{ij} (w2)_{ji} M_[i,j]; reduces to tr_1 at w2 = identity."""
    m = _check_square(m, dims.p)
    v = m.reshape(dims.p2, dims.p1, dims.p2, dims.p1)
    return np.einsum("iajb,ji->ab", v, np.asarray(w2))


def weighted_partial_trace_2(m, w1, dims):
    """N with N_{ij} = trace(M_[i,j] w1); reduces to tr_2 at w1 = identity."""
    m = _check_square(m, dims.p)
    v = m.reshape(dims.p2, dims.p1, dims.p2, dims.p1)
    return np.einsum("iajb,ba->ij", v, np.asarray(w1))


def sym(m):
    m = np.asarray(m)
    return (m + m.swapaxes(-1, -2)) / 2.0


def skew(m):
    m = np.asarray(m)
    return (m - m.T) / 2.0


def strict_lower(m):
    return np.tril(np.asarray(m), -1)


def diag_part(m):
    return np.where(np.eye(np.shape(m)[-1], dtype=bool), m, 0.0)


def half(m):
    """(M)_{1/2} = strict lower triangle plus half the diagonal."""
    m = _check_square(m)
    return np.tril(m, -1) + diag_part(m) / 2.0


def lower(m):
    """L(M) = strict lower triangle plus the diagonal (np.tril)."""
    m = _check_square(m)
    return np.tril(m)


def spd_eigh(s, what="matrix"):
    """Eigendecomposition (w, q) of the symmetrized input; DefinitenessError
    unless its smallest eigenvalue exceeds PD_RTOL times the largest."""
    w, q = np.linalg.eigh(sym(_check_square(s)))
    if w[0] <= PD_RTOL * max(w[-1], 0.0):
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
    """S^(-1/2) of an SPD matrix from one eigendecomposition."""
    w, q = spd_eigh(s, what=what)
    return (q / np.sqrt(w)) @ q.T


def sym_sqrt(s):
    """Symmetric square root of an SPD matrix (eigendecomposition based)."""
    w, q = spd_eigh(s, what="sym_sqrt input")
    return (q * np.sqrt(w)) @ q.T


def chol(s):
    """Lower Cholesky factor with positive diagonal of an SPD matrix."""
    spd_eigh(s, what="chol input")
    return np.linalg.cholesky(sym(_check_square(s)))


def whiten(h, m):
    """sym(H^-1 M H^-T): M expressed in the frame of the square root H."""
    x = np.linalg.solve(h, m)
    return sym(np.linalg.solve(h, x.T).T)


def _check_square(m, size=None):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if size is not None and m.shape[0] != size:
        raise ValueError(f"expected size {size}, got {m.shape[0]}")
    return m

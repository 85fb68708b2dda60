"""Geometry of the core manifolds: the constraint operator J and its null
space (fixed-rank tangent spaces), the full-rank projection G, Riemannian
gradient/Hessian operators under the Euclidean metric, quotient vertical and
horizontal projections, the bipartite connectivity test for canonical
decomposability, and core-factor sampling/balancing.

A core factor is a p x r matrix A (p = p1*p2) whose slices A_i = mat(A[:, i])
satisfy sum_i A_i A_i^T = p2 I and sum_i A_i^T A_i = p1 I, so that A A^T is a
rank-r core.
"""

from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import CapacityError, ConfigError, DefinitenessError, StructureError

# Dense J assembly is (p1^2+p2^2+1) x (p*r); refuse absurd shapes.
_MAX_PR = 4096
# balance_core_factor stops at this Gram-constraint residual, or fails after
# _BALANCE_MAX_ITER passes.
_BALANCE_TOL = 1e-12
_BALANCE_MAX_ITER = 200
# Relative singular-value floor: singular values at most this fraction of the
# largest count as zero, both in the rank of J (its null-space basis and
# pseudoinverse, keeping I - J^+ J an exact projection at the operator's known
# rank) and in the full column rank of a core factor.
_SV_RTOL = 1e-10
# Slice entries larger than this in magnitude are edges of the slice graph.
_ZERO_TOL = 1e-12
# Relative spread of the trailing eigenvalues of a partially isotropic core.
_ISOTROPY_RTOL = 1e-6


def slices(a, dims):
    """View the columns of A as p1 x p2 matrices, shape (r, p1, p2); a
    (k, p, r) stack gives (k, r, p1, p2)."""
    t = np.asarray(a, dtype=float).swapaxes(-1, -2)
    return t.reshape(*t.shape[:-1], dims.p2, dims.p1).swapaxes(-1, -2)


def row_gram(a, dims):
    """sum_i A_i A_i^T = tr_1(A A^T)."""
    t = slices(a, dims)
    return np.einsum("iab,icb->ac", t, t)


def col_gram(a, dims):
    """sum_i A_i^T A_i = tr_2-dual Gram of the slices."""
    t = slices(a, dims)
    return np.einsum("iab,iac->bc", t, t)


def gram_targets(dims):
    """The constraint values (p2 I, p1 I) of the row and column Grams."""
    return dims.p2 * np.eye(dims.p1), dims.p1 * np.eye(dims.p2)


def gram_residual(row, col, targets):
    """Largest entry of |row_gram - p2 I| and |col_gram - p1 I| (gram_targets)."""
    return max(np.abs(row - targets[0]).max(), np.abs(col - targets[1]).max())


def check_core_factor(a, dims):
    """Validate the two Gram constraints and full column rank of A."""
    a = np.asarray(a, dtype=float)
    if a.shape != (dims.p, dims.r):
        raise ConfigError(f"expected {dims.p}x{dims.r}, got {a.shape}")
    res = gram_residual(row_gram(a, dims), col_gram(a, dims), gram_targets(dims))
    if res > matops.RESIDUAL_TOL:
        raise StructureError(
            f"core-factor residual {res:.3e} > {matops.RESIDUAL_TOL:.1e}"
        )
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= _SV_RTOL * s[0]:
        raise StructureError("core factor is column-rank deficient")
    return a


def check_core_matrix(c, dims):
    """Validate the partial traces of a core matrix, the Grams of its factors."""
    c = matops.sym(np.asarray(c, dtype=float))
    traces = (matops.weighted_partial_trace_1(c, np.eye(dims.p2), dims),
              matops.weighted_partial_trace_2(c, np.eye(dims.p1), dims))
    res = gram_residual(*traces, gram_targets(dims))
    if res > matops.RESIDUAL_TOL:
        raise StructureError(
            f"partial-trace residual {res:.3e} > {matops.RESIDUAL_TOL:.1e}"
        )
    return c


# ---------------------------------------------------------------------------
# the J operator and fixed-rank tangent calculus
# ---------------------------------------------------------------------------

def check_dense_size(p, r):
    """Raise CapacityError when the dense J of a p x r factor exceeds the limit."""
    if p * r > _MAX_PR:
        raise CapacityError(f"dense J needs p*r <= {_MAX_PR}, got {p * r}")


def j_operator(a, dims):
    """Dense constraint differential J(A), shape (p1^2 + p2^2 + 1) x (p*r).

    Row blocks, with a the stacked vec(A_i) and the i-th column block acting
    on vec(B_i):
      J1 = (1/p)(I + K_{p1,p1})[A_1 (x) I, ..., A_r (x) I] - 2/(p1^2 p2) vec(I) a^T
      J2 = (1/p)(I + K_{p2,p2})[I (x) A_1^T, ...]          - 2/(p1 p2^2) vec(I) a^T
      J3 = 2 a^T
    J1/J2/J3 are the differentials of A -> tr_1(AA^T)/tr(AA^T), the tr_2
    analogue, and the trace itself; N(J) is the tangent space of the
    core-factor manifold.  Only the three structural diagonals of J1 and J2
    are written, by adding into zeros, so every zero of J is +0.0.
    A (k, p, r) stack of factors gives the (k, p1^2 + p2^2 + 1, p*r) stack
    of their J, each with the bits of its own call.
    """
    a = np.asarray(a, dtype=float)
    p1, p2, p = dims.p1, dims.p2, dims.p
    lead, r = a.shape[:-2], a.shape[-1]
    check_dense_size(p, r)
    tp = slices(a, dims) / p
    tp_x, tp_y = tp.swapaxes(-3, -2), np.moveaxis(tp, -1, -3)  # (x, i, b), (y, i, c)
    avec = matops.vec(a)
    # A_i[c, b] on the column axes (i, b, c), broadcast over the row axis
    aic = avec.reshape(*lead, 1, r, p2, p1)
    j = np.zeros((*lead, p1 * p1 + p2 * p2 + 1, p * r))
    # rows (x, y), columns (i, b, c) of vec(B_i)[c + b p1]; J1 = (A_i[x, b]
    # d_yc + A_i[y, b] d_xc)/p - c1 d_xy A_i[c, b], J2 = (d_xb A_i[c, y] +
    # d_yb A_i[c, x])/p - c2 d_xy A_i[c, b]; on x == y == c, a/p + a/p has
    # the bits of (a + a)/p
    j1 = j[..., : p1 * p1, :].reshape(*lead, p1, p1, r, p2, p1)
    np.einsum("...xcibc->...xcib", j1)[...] += tp_x[..., :, None, :, :]
    np.einsum("...cyibc->...cyib", j1)[...] += tp_x[..., None, :, :, :]
    np.einsum("...xxibc->...xibc", j1)[...] -= (2.0 / (p1**2 * p2)) * aic
    j2 = j[..., p1 * p1 : -1, :].reshape(*lead, p2, p2, r, p2, p1)
    np.einsum("...xyixc->...xyic", j2)[...] += tp_y[..., None, :, :, :]
    np.einsum("...xyiyc->...xyic", j2)[...] += tp_y[..., :, None, :, :]
    np.einsum("...xxibc->...xibc", j2)[...] -= (2.0 / (p1 * p2**2)) * aic
    j[..., -1, :] += 2.0 * avec
    return j


class RankTangentSpace:
    """The tangent space N(J(A)) of the core-factor manifold at A, from one
    full SVD of J(A) cut off at _SV_RTOL * sigma_max: the rank of J, an
    orthonormal basis B (pr x m) and J^+.  coords and hess_coords give, in B,
    the Euclidean-metric Riemannian gradient P vec(egrad) and Hessian
    P vec(ehess_v) - P J(V)^T (J^+)^T J^+ J vec(egrad), P = I - J^+ J = B B^T."""

    def __init__(self, a, dims):
        a = np.asarray(a, dtype=float)
        self.shape, self.dims = a.shape, dims
        self.j = j_operator(a, dims)
        u, s, vt = np.linalg.svd(self.j, full_matrices=True)
        self.rank = n_keep = int(np.sum(s > _SV_RTOL * s[0]))
        self.jp = (vt[:n_keep].T / s[:n_keep]) @ u[:, :n_keep].T
        self.basis = vt[n_keep:].T

    def coords(self, x):
        """B^T vec(X)."""
        return self.basis.T @ matops.vec(x)

    def tangent(self, coef):
        """The p x r matrix with vec B coef."""
        return (self.basis @ coef).reshape(self.shape, order="F")

    def normal_weights(self, egrad):
        """w = (J^+)^T J^+ J vec(egrad), the weights of the Hessian's normal term."""
        return self.jp.T @ (self.jp @ (self.j @ matops.vec(egrad)))

    def hess_coords(self, ehess_v, v, w):
        """B^T (vec(ehess_v) - J(V)^T w): the Riemannian Hessian along V.

        On (k, p, r) stacks of V and ehess_v it gives the (k, m) coordinates,
        each row with the bits of its own call: both products stay one
        matrix-vector product per matrix of the stack.
        """
        jv = j_operator(v, self.dims)
        x = matops.vec(ehess_v) - (jv.swapaxes(-1, -2) @ w[:, None])[..., 0]
        return (self.basis.T @ x[..., None])[..., 0]


def tangent_project_full(v, dims):
    """Projection G onto {W symmetric : tr_1(W) = 0, tr_2(W) = 0}, which maps
    Euclidean gradients and Hessian actions to Riemannian ones on the flat
    full-rank core manifold:

    G(V) = V - (I (x) tr_1(V))/p2 - (tr_2(V) (x) I)/p1 + tr(V)/p I.
    """
    v = matops.sym(np.asarray(v, dtype=float))
    t1 = matops.weighted_partial_trace_1(v, np.eye(dims.p2), dims)
    t2 = matops.weighted_partial_trace_2(v, np.eye(dims.p1), dims)
    return (
        v
        - matops.kron(np.eye(dims.p2), t1) / dims.p2
        - matops.kron(t2, np.eye(dims.p1)) / dims.p1
        + np.trace(v) / dims.p * np.eye(dims.p)
    )


# ---------------------------------------------------------------------------
# quotient geometry
# ---------------------------------------------------------------------------

def sylvester_solve(e, v):
    """Unique solution Y of Y E + E Y = V for SPD E (eigenbasis division)."""
    w, q = matops.spd_eigh(e, what="Sylvester coefficient")
    vt = q.T @ np.asarray(v, dtype=float) @ q
    y = vt / (w[:, None] + w[None, :])
    return q @ y @ q.T


def vertical_project(a, w):
    """Vertical component A T^-1_{A^T A}(2 skew(A^T W)) of a tangent W."""
    a = np.asarray(a, dtype=float)
    theta = sylvester_solve(a.T @ a, 2.0 * matops.skew(a.T @ w))
    return a @ theta


def horizontal_project(a, w):
    """Horizontal component W - P^v(W); satisfies A^T P^h(W) symmetric."""
    return np.asarray(w, dtype=float) - vertical_project(a, w)


# ---------------------------------------------------------------------------
# decomposability test, dimensions, sampling
# ---------------------------------------------------------------------------

def is_connected_bipartite(slbs):
    """Necessary-condition test for canonical indecomposability.

    Builds the bipartite graph on row vertices s_1..s_{p1} and column
    vertices q_1..q_{p2} of the (r, p1, p2) slices, with an edge (s_j, q_k)
    iff some slice has |entry (j, k)| > _ZERO_TOL, and returns its
    connectivity.  Pass the slices P A_i Q^-1 to test at (P, Q): a
    disconnection certifies canonical decomposability there; connectivity
    at one (P, Q) is only necessary for indecomposability.
    """
    t = np.asarray(slbs, dtype=float)
    _, p1, p2 = t.shape
    adj = (np.abs(t) > _ZERO_TOL).any(axis=0)
    # grow the rows reached from row 0 through their columns until stable
    rows = np.arange(p1) == 0
    while True:
        cols = adj[rows].any(axis=0)
        grown = rows | adj[:, cols].any(axis=1)
        if (grown == rows).all():
            return bool(rows.all() and cols.all())
        rows = grown


@dataclass(frozen=True)
class ManifoldDims:
    """Dimension bookkeeping for the core manifolds at a given shape."""

    factor: int          # dim C_{p1,p2,r} (factor manifold)
    psd: int             # dim C+_{p1,p2,r} = factor - binom(r, 2)
    full_rank: int       # dim C++_{p1,p2} (r = p case, PSD-level)
    j_rank: int          # rank of J off the decomposable set


def manifold_dims(dims):
    """Dimension formulas; the factor dimension equals p*r - rank(J)."""
    if dims.r is None:
        raise ConfigError("manifold_dims needs dims with a rank")
    b1 = dims.p1 * (dims.p1 + 1) // 2
    b2 = dims.p2 * (dims.p2 + 1) // 2
    bp = dims.p * (dims.p + 1) // 2
    factor = dims.p * dims.r - b1 - b2 + 1
    return ManifoldDims(
        factor=factor,
        psd=factor - dims.r * (dims.r - 1) // 2,
        full_rank=bp - b1 - b2 + 1,
        j_rank=b1 + b2 - 1,
    )


def balance_core_factor(a, dims):
    """Alternating row/column whitening onto the core-factor constraint set.

    Each pass replaces the slices A_i by T A_i with T = (A_R/p2)^(-1/2) and
    then by A_i S with S = (A_C/p1)^(-1/2), as products with I (x) T and
    S (x) I; a fixed point satisfies both Gram constraints exactly.  Raises
    DefinitenessError when a Gram matrix is not positive definite and
    StructureError on non-convergence.
    """
    a = np.asarray(a, dtype=float).copy()
    p1, p2, p = dims.p1, dims.p2, dims.p
    targets = gram_targets(dims)
    op_t, op_s = np.zeros((p, p)), np.zeros((p, p))
    # views: T is block (y, y) of I (x) T; S[y, c] is entry (x, x) of block (y, c)
    t_blocks = np.einsum("yayb->yab", op_t.reshape(p2, p1, p2, p1))
    s_diags = np.einsum("yxcx->xyc", op_s.reshape(p2, p1, p2, p1))
    row = row_gram(a, dims)
    for _ in range(_BALANCE_MAX_ITER):
        t_blocks[...] = matops.spd_inv_sqrt(row / p2, what="row Gram")
        a = op_t @ a
        s_diags[...] = matops.spd_inv_sqrt(col_gram(a, dims) / p1, what="column Gram")
        a = op_s @ a
        row = row_gram(a, dims)
        res = gram_residual(row, col_gram(a, dims), targets)
        if res < _BALANCE_TOL:
            return a
    raise StructureError(f"core-factor balancing stalled at residual {res:.3e}")


def random_core_factor(dims, seed):
    """Seeded random point on the core-factor manifold.

    Draws i.i.d. standard normal entries, balances onto the constraint set,
    and redraws (up to 5 times) on rank deficiency, balancing failure, or a
    disconnected slice graph.
    """
    if dims.r is None:
        raise ConfigError("random_core_factor needs dims with a rank")
    rng = np.random.default_rng(seed)
    for _ in range(5):
        a = rng.standard_normal((dims.p, dims.r))
        try:
            a = check_core_factor(balance_core_factor(a, dims), dims)
        except (DefinitenessError, StructureError):
            continue
        if is_connected_bipartite(slices(a, dims)):
            return a
    raise StructureError("random_core_factor failed after 5 redraws")


def partial_isotropy_decompose(c, dims):
    """Split a full-rank core C = (1-lambda) A A^T + lambda I, A of rank dims.r.

    Requires the trailing p-r eigenvalues to be equal within _ISOTROPY_RTOL
    (relative); lambda is their common value and A is rebuilt from the top-r
    eigenpairs with weights sqrt((eig_i - lambda)/(1 - lambda)).
    """
    if dims.r is None:
        raise ConfigError("partial_isotropy_decompose needs dims with a rank")
    c = matops.sym(np.asarray(c, dtype=float))
    w, q = np.linalg.eigh(c)
    w = w[::-1]
    q = q[:, ::-1]
    tail = w[dims.r:]
    lam = float(tail.mean())
    if np.abs(tail - lam).max() > _ISOTROPY_RTOL * max(abs(lam), 1e-12):
        raise StructureError("trailing eigenvalues are not a constant block")
    if not (0.0 < lam < 1.0):
        raise StructureError(f"isotropic level {lam:.6f} outside (0, 1)")
    top = w[: dims.r]
    if top.min() <= lam * (1.0 + 1e-12):
        raise StructureError("spiked eigenvalues do not exceed the isotropic level")
    scale = np.sqrt((top - lam) / (1.0 - lam))
    return lam, q[:, : dims.r] * scale

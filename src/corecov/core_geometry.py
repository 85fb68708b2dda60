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
    if not res <= matops.RESIDUAL_TOL:  # a NaN residual fails too
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
    if not res <= matops.RESIDUAL_TOL:  # a NaN residual fails too
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
    core-factor manifold.  A (k, p, r) stack of factors gives the
    (k, p1^2 + p2^2 + 1, p*r) stack of their J, each with the bits of its
    own call.

    Only the three structural diagonals of J1 and J2 and the last row are
    written into fresh zeros, each entry once and with the bits of adding
    into zeros, so every zero of J is +0.0.
    """
    a = np.asarray(a, dtype=float)
    p1, p2, p = dims.p1, dims.p2, dims.p
    lead, r = a.shape[:-2], a.shape[-1]
    check_dense_size(p, r)
    j = np.zeros((*lead, p1 * p1 + p2 * p2 + 1, p * r))
    j1 = j[..., : p1 * p1, :].reshape(*lead, p1, p1, r, p2, p1)
    j2 = j[..., p1 * p1 : -1, :].reshape(*lead, p2, p2, r, p2, p1)
    s_x = slices(a, dims).swapaxes(-3, -2)  # A_i[x, b] on axes (x, i, b)
    s_y = s_x.swapaxes(-1, -3)  # A_i[c, y] on axes (y, i, c)
    avec = matops.vec(a)
    # A_i[c, b] on the column axes (i, b, c), broadcast over the row axis
    aic = avec.reshape(*lead, 1, r, p2, p1)
    # rows (x, y), columns (i, b, c) of vec(B_i)[c + b p1]; J1 = (A_i[x, b]
    # d_yc + A_i[y, b] d_xc)/p - c1 d_xy A_i[c, b], J2 = (d_xb A_i[c, y] +
    # d_yb A_i[c, x])/p - c2 d_xy A_i[c, b].  An entry on one diagonal is
    # 0.0 + t or 0.0 - z; where all three meet, t + t - z has the bits of
    # ((0.0 + t) + t) - z, as t and z are zero together and of one sign.
    for blk, (one, other, meet), s_t, c in zip(
            (j1, j2), (("...xcibc->...xcib", "...cyibc->...cyib", "...xxibx->...xib"),
                       ("...xyiyc->...xyic", "...xyixc->...xyic", "...xxixc->...xic")),
            (s_x, s_y), (2.0 / (p1**2 * p2), 2.0 / (p1 * p2**2))):
        t = s_t / p
        np.einsum(one, blk)[...] = 0.0 + t[..., :, None, :, :]
        np.einsum(other, blk)[...] = 0.0 + t[..., None, :, :, :]
        np.einsum("...xxibc->...xibc", blk)[...] = 0.0 - c * aic
        np.einsum(meet, blk)[...] = t + t - c * s_t
    j[..., -1, :] = 0.0 + 2.0 * avec
    return j


def j_adjoint(w, dims):
    """The map V -> J(V)^T w, slice-wise and without forming J(V): with
    w = (vec W1, vec W2, w3) and c1, c2 those of j_operator, it takes a p x r V
    to vec((2/p)(sym(W1) V_i + V_i sym(W2)) - (c1 tr W1 + c2 tr W2 - 2 w3) V_i),
    and a (k, p, r) stack to the (k, p*r) stack of these."""
    p1, p2, p = dims.p1, dims.p2, dims.p
    s1, s2 = matops.sym(w[: p1 * p1].reshape(p1, p1)), matops.sym(w[p1 * p1 : -1].reshape(p2, p2))
    gamma = 2.0 / (p1**2 * p2) * np.trace(s1) + 2.0 / (p1 * p2**2) * np.trace(s2) - 2.0 * w[-1]

    def apply(v):
        vt = matops.vec(v).reshape(*v.shape[:-2], v.shape[-1], p2, p1)  # the V_i^T
        return ((2.0 / p) * (vt @ s1 + s2 @ vt) - gamma * vt).reshape(*v.shape[:-2], -1)

    return apply


class RankTangentSpace:
    """The tangent space N(J(A)) of the core-factor manifold at A, from one
    full SVD of J(A) cut off at _SV_RTOL * sigma_max: the rank of J, an
    orthonormal basis B (pr x m) and the SVD factors of J^+.  coords and
    hess_coords give, in B, the Euclidean-metric Riemannian gradient and Hessian
    P vec(egrad), P vec(ehess_v) - P J(V)^T (J^+)^T J^+ J vec(egrad), P = B B^T."""

    def __init__(self, a, dims):
        a = np.asarray(a, dtype=float)
        self.shape, self.dims = a.shape, dims
        self.j = j_operator(a, dims)
        u, s, vt = np.linalg.svd(self.j, full_matrices=True)
        self.rank = n_keep = int(np.sum(s > _SV_RTOL * s[0]))
        self._range = u[:, :n_keep], s[:n_keep], vt[:n_keep]
        self.basis = vt[n_keep:].T

    def coords(self, x):
        """B^T x for x of length p*r, or a (k, p*r) stack, one gemv per vector."""
        return (self.basis.T @ x[..., None])[..., 0]

    def tangent(self, coef):
        """The p x r matrix with vec B coef."""
        return (self.basis @ coef).reshape(self.shape, order="F")

    def norm(self, v):
        return float(np.linalg.norm(v))

    def normal_weights(self, egrad):
        """w = (J^+)^T J^+ J vec(egrad), with J^+ = V_r S_r^-1 U_r^T formed per call."""
        u, s, vt = self._range
        jp = (vt.T / s) @ u.T
        return jp.T @ (jp @ (self.j @ matops.vec(egrad)))

    def hess_coords(self, ehess_v, v, w):
        """B^T (vec(ehess_v) - J(V)^T w): the Riemannian Hessian along V; a
        (k, p, r) stack gives (k, m), each row with the bits of its own call."""
        jv = j_operator(v, self.dims)
        return self.coords(matops.vec(ehess_v) - (jv.swapaxes(-1, -2) @ w[:, None])[..., 0])

    def newton_system(self, egrad, ehess):
        """The Riemannian gradient, its coordinates B^T vec(egrad), and the
        Riemannian Hessian in B, column i its action on B[:, i]; ehess maps a
        (k, p, r) stack of V to the stack of Euclidean Hessian actions.  While
        one dense J(V) fits matops.STACK_BYTES, the matrix is hess_coords per
        chunk of J(V); past it, J(V)^T w comes slice-wise from j_adjoint, and
        the m residuals, an (m, p*r) array the size of B, go through one
        product with B^T."""
        (p, r), m = self.shape, self.basis.shape[1]
        coef, w = self.coords(matops.vec(egrad)), self.normal_weights(egrad)
        if self.j.nbytes <= matops.STACK_BYTES:
            h_mat = np.empty((m, m))
            for cols in matops.chunks(m, self.j.nbytes):
                # column i as the p x r matrix basis[:, i].reshape(p, r, order="F")
                v = self.basis[:, cols].T.reshape(-1, r, p).swapaxes(-1, -2)
                h_mat[:, cols] = self.hess_coords(ehess(v), v, w).T
            return self.tangent(coef), coef, h_mat
        jtw, x = j_adjoint(w, self.dims), np.empty((m, p * r))
        # chunks bound the p x p core differential A V^T + V A^T of a Hessian action
        for cols in matops.chunks(m, p * p * 8):
            v = self.basis[:, cols].T.reshape(-1, r, p).swapaxes(-1, -2)
            x[cols] = matops.vec(ehess(v)) - jtw(v)
        return self.tangent(coef), coef, self.basis.T @ x.T


def tangent_project_full(v, dims):
    """Projection G onto {W symmetric : tr_1(W) = 0, tr_2(W) = 0}, which maps
    Euclidean gradients and Hessian actions to Riemannian ones on the flat
    full-rank core manifold:

    G(V) = V - (I (x) tr_1(V))/p2 - (tr_2(V) (x) I)/p1 + tr(V)/p I.
    """
    v = matops.check_tangent(v, dims.p)
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
        # the column Gram is formed only once the row part of the residual passes
        if (np.abs(row - targets[0]).max() < _BALANCE_TOL
                and np.abs(col_gram(a, dims) - targets[1]).max() < _BALANCE_TOL):
            return a
    res = gram_residual(row, col_gram(a, dims), targets)
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
    if dims.r is None or dims.r >= dims.p:
        raise ConfigError(f"partial_isotropy_decompose needs a rank r < p, got {dims.r}")
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

"""Geometry of the core manifolds: the constraint operator J and its null
space (fixed-rank tangent spaces), the full-rank projection G, Riemannian
gradient/Hessian operators under the Euclidean metric, quotient vertical and
horizontal projections, the bipartite connectivity test for canonical
decomposability, and core-factor sampling/balancing.

A core factor is a p x r matrix A (p = p1*p2) whose slices A_i = mat(A[:, i])
satisfy sum_i A_i A_i^T = p2 I and sum_i A_i^T A_i = p1 I, so that A A^T is a
rank-r core.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import matops
from .errors import CapacityError, DefinitenessError, StructureError

# Dense J assembly is (p1^2+p2^2+1) x (p*r); refuse absurd shapes.
_MAX_PR = 4096
# Singular values below this relative threshold are truncated when forming
# the null-space basis and the pseudoinverse of J, keeping I - J^+ J an exact
# projection at the operator's known rank.
_J_RTOL = 1e-10


def slices(a, dims):
    """View the columns of A as p1 x p2 matrices, shape (r, p1, p2)."""
    a = np.asarray(a, dtype=float)
    return a.reshape(dims.p1, dims.p2, a.shape[1], order="F").transpose(2, 0, 1)


def from_slices(slbs):
    """Inverse of slices(): stack the mats back into a p x r matrix."""
    t = np.asarray(slbs, dtype=float)
    r, p1, p2 = t.shape
    return t.transpose(1, 2, 0).reshape(p1 * p2, r, order="F").copy()


def row_gram(a, dims):
    """sum_i A_i A_i^T = tr_1(A A^T)."""
    t = slices(a, dims)
    return np.einsum("iab,icb->ac", t, t)


def col_gram(a, dims):
    """sum_i A_i^T A_i = tr_2-dual Gram of the slices."""
    t = slices(a, dims)
    return np.einsum("iab,iac->bc", t, t)


def check_core_factor(a, dims, tol=1e-8):
    """Validate the two Gram constraints and full column rank of A."""
    a = np.asarray(a, dtype=float)
    if a.shape != (dims.p, dims.r):
        raise ValueError(f"expected {dims.p}x{dims.r}, got {a.shape}")
    res_r = np.abs(row_gram(a, dims) - dims.p2 * np.eye(dims.p1)).max()
    res_c = np.abs(col_gram(a, dims) - dims.p1 * np.eye(dims.p2)).max()
    if max(res_r, res_c) > tol:
        raise StructureError(
            f"core-factor constraint residual {max(res_r, res_c):.3e} > {tol:.1e}"
        )
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= 1e-10 * s[0]:
        raise StructureError("core factor is column-rank deficient")
    return a


def check_core_matrix(c, dims, rank=None, tol=1e-8):
    """Validate partial traces (and optionally the rank) of a core matrix."""
    c = matops.sym(np.asarray(c, dtype=float))
    r1 = np.abs(matops.partial_trace_1(c, dims) - dims.p2 * np.eye(dims.p1)).max()
    r2 = np.abs(matops.partial_trace_2(c, dims) - dims.p1 * np.eye(dims.p2)).max()
    if max(r1, r2) > tol:
        raise StructureError(f"partial-trace residual {max(r1, r2):.3e} > {tol:.1e}")
    if rank is not None:
        w = np.linalg.eigvalsh(c)
        n_pos = int(np.sum(w > 1e-10 * max(w[-1], 1.0)))
        if n_pos != rank:
            raise StructureError(f"core matrix has rank {n_pos}, expected {rank}")
    return c


# ---------------------------------------------------------------------------
# the J operator and fixed-rank tangent calculus
# ---------------------------------------------------------------------------

def j_operator(a, dims):
    """Dense constraint differential J(A), shape (p1^2 + p2^2 + 1) x (p*r).

    Row blocks, with a the stacked vec(A_i) and the i-th column block acting
    on vec(B_i):
      J1 = (1/p)(I + K_{p1,p1})[A_1 (x) I, ..., A_r (x) I] - 2/(p1^2 p2) vec(I) a^T
      J2 = (1/p)(I + K_{p2,p2})[I (x) A_1^T, ...]          - 2/(p1 p2^2) vec(I) a^T
      J3 = 2 a^T
    J1/J2/J3 are the differentials of A -> tr_1(AA^T)/tr(AA^T), the tr_2
    analogue, and the trace itself; N(J) is the tangent space of the
    core-factor manifold.
    """
    a = np.asarray(a, dtype=float)
    p1, p2, p = dims.p1, dims.p2, dims.p
    r = a.shape[1]
    if p * r > _MAX_PR:
        raise CapacityError(f"dense J needs p*r <= {_MAX_PR}, got {p * r}")
    t = slices(a, dims)
    avec = a.reshape(-1, order="F")

    perm1 = matops.commutation_permutation(p1, p1)
    blocks1 = np.hstack([matops.kron(t[i], np.eye(p1)) for i in range(r)])
    j1 = (blocks1 + blocks1[perm1]) / p - (2.0 / (p1**2 * p2)) * np.outer(
        matops.vec(np.eye(p1)), avec
    )

    perm2 = matops.commutation_permutation(p2, p2)
    blocks2 = np.hstack([matops.kron(np.eye(p2), t[i].T) for i in range(r)])
    j2 = (blocks2 + blocks2[perm2]) / p - (2.0 / (p1 * p2**2)) * np.outer(
        matops.vec(np.eye(p2)), avec
    )

    j3 = 2.0 * avec[None, :]
    return np.vstack([j1, j2, j3])


def j_rank(j, rtol=1e-8):
    """Numerical rank of J at threshold rtol * sigma_max."""
    s = np.linalg.svd(j, compute_uv=False)
    return int(np.sum(s > rtol * s[0]))


def j_factors(a, dims):
    """J(A) factored by one full SVD: (J, N, J^+), with the columns of N an
    orthonormal basis of N(J) (pr x m) and J^+ the pseudoinverse from the same
    factors, both cut off at _J_RTOL * sigma_max."""
    j = j_operator(a, dims)
    u, s, vt = np.linalg.svd(j, full_matrices=True)
    n_keep = int(np.sum(s > _J_RTOL * s[0]))
    jp = (vt[:n_keep].T / s[:n_keep]) @ u[:, :n_keep].T
    return j, vt[n_keep:].T, jp


def tangent_basis_rank(a, dims):
    """Orthonormal basis of the tangent space N(J(A)) as vec-columns (pr x m)."""
    return j_factors(a, dims)[1]


def tangent_project_rank(a, v, dims):
    """Orthogonal projection of V onto N(J(A)): vec -> (I - J^+ J) vec."""
    j, _, jp = j_factors(a, dims)
    vvec = np.asarray(v, dtype=float).reshape(-1, order="F")
    w = vvec - jp @ (j @ vvec)
    return w.reshape(a.shape, order="F")


def rgrad_hess_rank(a, egrad, ehess_v, v, dims):
    """Riemannian gradient and Hessian action on the fixed-rank core manifold
    under the Euclidean metric:

      vec(grad)    = (I - J^+ J) vec(egrad)
      vec(Hess[V]) = (I - J^+ J) vec(ehess_v)
                     - (I - J^+ J) J(V)^T (J^+)^T J^+ J vec(egrad)
    """
    j, _, jp = j_factors(a, dims)
    g = np.asarray(egrad, dtype=float).reshape(-1, order="F")
    hv = np.asarray(ehess_v, dtype=float).reshape(-1, order="F")

    def proj(x):
        return x - jp @ (j @ x)

    rgrad = proj(g)
    jv = j_operator(np.asarray(v, dtype=float), dims)
    corr = jv.T @ (jp.T @ (jp @ (j @ g)))
    rhess = proj(hv - corr)
    return rgrad.reshape(a.shape, order="F"), rhess.reshape(a.shape, order="F")


def tangent_project_full(v, dims):
    """Projection G onto {W symmetric : tr_1(W) = 0, tr_2(W) = 0}:

    G(V) = V - (I (x) tr_1(V))/p2 - (tr_2(V) (x) I)/p1 + tr(V)/p I.
    """
    v = matops.sym(np.asarray(v, dtype=float))
    t1 = matops.partial_trace_1(v, dims)
    t2 = matops.partial_trace_2(v, dims)
    return (
        v
        - matops.kron(np.eye(dims.p2), t1) / dims.p2
        - matops.kron(t2, np.eye(dims.p1)) / dims.p1
        + np.trace(v) / dims.p * np.eye(dims.p)
    )


def rgrad_hess_full(c, egrad, ehess_v, dims):
    """Riemannian gradient/Hessian on the full-rank core manifold: both are
    plain G-projections (the manifold is flat under the Euclidean metric)."""
    del c  # the projection does not depend on the base point
    return tangent_project_full(egrad, dims), tangent_project_full(ehess_v, dims)


# ---------------------------------------------------------------------------
# quotient geometry
# ---------------------------------------------------------------------------

def sylvester_solve(e, v):
    """Unique solution Y of Y E + E Y = V for SPD E (eigenbasis division)."""
    e = matops.check_spd(e, what="Sylvester coefficient")
    w, q = np.linalg.eigh(e)
    vt = q.T @ np.asarray(v, dtype=float) @ q
    y = vt / (w[:, None] + w[None, :])
    return q @ y @ q.T


def vertical_project(a, w):
    """Vertical component A T^-1_{A^T A}(2 skew(A^T W)) of a tangent W."""
    a = np.asarray(a, dtype=float)
    gram = a.T @ a
    if np.linalg.eigvalsh(gram).min() <= 1e-12 * np.abs(gram).max():
        raise DefinitenessError("A^T A is rank deficient in vertical_project")
    theta = sylvester_solve(gram, 2.0 * matops.skew(a.T @ w))
    return a @ theta


def horizontal_project(a, w):
    """Horizontal component W - P^v(W); satisfies A^T P^h(W) symmetric."""
    return np.asarray(w, dtype=float) - vertical_project(a, w)


# ---------------------------------------------------------------------------
# decomposability test, dimensions, sampling
# ---------------------------------------------------------------------------

def is_connected_bipartite(slbs, p=None, q=None, zero_tol=1e-12):
    """Necessary-condition test for canonical indecomposability.

    Builds the bipartite graph on row vertices s_1..s_{p1} and column
    vertices q_1..q_{p2} with an edge (s_j, q_k) iff some transformed slice
    P A_i Q^-1 has |entry (j, k)| > zero_tol, and returns its connectivity.
    A disconnection certifies canonical decomposability at (P, Q);
    connectivity at one (P, Q) is only necessary for indecomposability.
    """
    t = np.asarray(slbs, dtype=float)
    if t.ndim == 2:
        t = t[None]
    _, p1, p2 = t.shape
    if p is not None:
        p = np.asarray(p, dtype=float)
        if abs(np.linalg.det(p)) < 1e-12:
            raise ValueError("P is singular")
        t = np.einsum("ab,ibc->iac", p, t)
    if q is not None:
        q = np.asarray(q, dtype=float)
        if abs(np.linalg.det(q)) < 1e-12:
            raise ValueError("Q is singular")
        t = np.einsum("ibc,cd->ibd", t, np.linalg.inv(q))

    adj = (np.abs(t) > zero_tol).any(axis=0)
    seen_rows = np.zeros(p1, dtype=bool)
    seen_cols = np.zeros(p2, dtype=bool)
    queue = deque([("r", 0)])
    seen_rows[0] = True
    while queue:
        side, idx = queue.popleft()
        if side == "r":
            for k in np.nonzero(adj[idx])[0]:
                if not seen_cols[k]:
                    seen_cols[k] = True
                    queue.append(("c", k))
        else:
            for jj in np.nonzero(adj[:, idx])[0]:
                if not seen_rows[jj]:
                    seen_rows[jj] = True
                    queue.append(("r", jj))
    return bool(seen_rows.all() and seen_cols.all())


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
        raise ValueError("manifold_dims needs dims with a rank")
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


def balance_core_factor(a, dims, tol=1e-12, max_iter=200):
    """Alternating row/column whitening onto the core-factor constraint set.

    Each pass replaces the slices A_i by T A_i with T = (A_R/p2)^(-1/2) and
    then by A_i S with S = (A_C/p1)^(-1/2); a fixed point satisfies both Gram
    constraints exactly.  Raises StructureError on non-convergence.
    """
    a = np.asarray(a, dtype=float).copy()
    p1, p2 = dims.p1, dims.p2
    for _ in range(max_iter):
        gr = row_gram(a, dims)
        wr, qr = np.linalg.eigh(matops.sym(gr / p2))
        if wr[0] <= 0:
            raise StructureError("row Gram lost definiteness while balancing")
        t = (qr / np.sqrt(wr)) @ qr.T
        a = matops.kron(np.eye(p2), t) @ a

        gc = col_gram(a, dims)
        wc, qc = np.linalg.eigh(matops.sym(gc / p1))
        if wc[0] <= 0:
            raise StructureError("column Gram lost definiteness while balancing")
        s = (qc / np.sqrt(wc)) @ qc.T
        a = matops.kron(s, np.eye(p1)) @ a

        res = max(
            np.abs(row_gram(a, dims) - p2 * np.eye(p1)).max(),
            np.abs(col_gram(a, dims) - p1 * np.eye(p2)).max(),
        )
        if res < tol:
            return a
    raise StructureError(f"core-factor balancing stalled at residual {res:.3e}")


def random_core_factor(dims, seed):
    """Seeded random point on the core-factor manifold.

    Draws i.i.d. standard normal entries, balances onto the constraint set,
    and redraws (up to 5 times) on rank deficiency, balancing failure, or a
    disconnected slice graph.
    """
    if dims.r is None:
        raise ValueError("random_core_factor needs dims with a rank")
    rng = np.random.default_rng(seed)
    for _ in range(5):
        a = rng.standard_normal((dims.p, dims.r))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] <= 1e-6 * s[0]:
            continue
        try:
            a = balance_core_factor(a, dims, tol=1e-12, max_iter=200)
        except StructureError:
            continue
        if not is_connected_bipartite(slices(a, dims)):
            continue
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] <= 1e-10 * s[0]:
            continue
        return a
    raise StructureError("random_core_factor failed after 5 redraws")


def partial_isotropy_decompose(c, dims, r, eig_rtol=1e-6):
    """Split a full-rank core C = (1-lambda) A A^T + lambda I.

    Requires the trailing p-r eigenvalues to be equal within eig_rtol
    (relative); lambda is their common value and A is rebuilt from the top-r
    eigenpairs with weights sqrt((eig_i - lambda)/(1 - lambda)).
    """
    c = matops.sym(np.asarray(c, dtype=float))
    w, q = np.linalg.eigh(c)
    w = w[::-1]
    q = q[:, ::-1]
    tail = w[r:]
    lam = float(tail.mean())
    if np.abs(tail - lam).max() > eig_rtol * max(abs(lam), 1e-12):
        raise StructureError("trailing eigenvalues are not a constant block")
    if not (0.0 < lam < 1.0):
        raise StructureError(f"isotropic level {lam:.6f} outside (0, 1)")
    top = w[:r]
    if top.min() <= lam * (1.0 + 1e-12):
        raise StructureError("spiked eigenvalues do not exceed the isotropic level")
    scale = np.sqrt((top - lam) / (1.0 - lam))
    return lam, q[:, :r] * scale

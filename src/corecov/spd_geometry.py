"""Riemannian geometry of the SPD cone under the affine-invariant metric and
of lower-triangular matrices with positive diagonal under the Cholesky metric,
plus the unit-determinant submanifolds of both (totally geodesic, so gradients
and Hessians restrict by orthogonal projection).
Inner products, Hessian actions and projections broadcast over the leading
axes of their tangents; each matrix of a stack gets the bits of its own call.
"""

import numpy as np

from . import matops
from .errors import DefinitenessError

# Gram-Schmidt drops candidates of at most this squared norm once orthogonalized.
_GS_TOL = 1e-9


def check_chol_point(l):
    """Validate a lower-triangular matrix with strictly positive diagonal."""
    l = np.asarray(l, dtype=float)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ValueError(f"expected square matrix, got {l.shape}")
    if np.abs(np.triu(l, 1)).max(initial=0.0) > 1e-12 * max(1.0, np.abs(l).max()):
        raise ValueError("strict upper triangle is not zero")
    if np.diag(l).min() <= 0.0:
        raise DefinitenessError("Cholesky point needs a strictly positive diagonal")
    return np.tril(l)


def _diag(m):
    return np.diagonal(m, axis1=-2, axis2=-1)


# ---------------------------------------------------------------------------
# affine-invariant geometry
# ---------------------------------------------------------------------------

def ai_inner(sigma, u, v):
    """Affine-invariant inner product tr(Sigma^-1 U Sigma^-1 V)."""
    return _ai_inner_inv(np.linalg.inv(sigma), u, v)


def _ai_inner_inv(si, u, v):
    """ai_inner from the inverse si of the base point."""
    return np.trace(si @ u @ si @ v, axis1=-2, axis2=-1)


def ai_exp(sigma, v, t=1.0, unit_det=False):
    """Geodesic point Sigma^(1/2) expm(t Sigma^(-1/2) V Sigma^(-1/2)) Sigma^(1/2).

    With unit_det=True the tangent is first projected onto the trace-free
    (det-preserving) subspace and the result is renormalized to determinant 1,
    which stops the slow drift that exact total geodesy would forbid.
    """
    sigma = matops.sym(np.asarray(sigma, dtype=float))
    s_half, s_ihalf = matops.spd_half_powers(sigma, what="SPD base point")
    v = matops.sym(v)
    if unit_det:
        v = proj_unitdet_spd(sigma, v)
    inner = matops.sym(s_ihalf @ v @ s_ihalf)
    wi, qi = np.linalg.eigh(inner)
    e = (qi * np.exp(t * wi)) @ qi.T
    out = matops.sym(s_half @ e @ s_half)
    if unit_det:
        out = out / np.linalg.det(out) ** (1.0 / out.shape[0])
    return out


def ai_grad_hess(sigma, egrad, ehess_v, v):
    """Riemannian gradient and Hessian action from Euclidean ones.

    grad = Sigma egrad Sigma,
    Hess[V] = Sigma ehess_v Sigma + sym(V egrad Sigma).
    """
    sigma = np.asarray(sigma, dtype=float)
    rgrad = matops.sym(sigma @ egrad @ sigma)
    rhess = matops.sym(sigma @ ehess_v @ sigma) + matops.sym(v @ egrad @ sigma)
    return rgrad, rhess


def proj_unitdet_spd(sigma, v):
    """Orthogonal (affine-invariant) projection onto {W : tr(Sigma^-1 W) = 0}."""
    v = matops.sym(v)
    c = np.trace(np.linalg.solve(sigma, v), axis1=-2, axis2=-1)
    return v - c[..., None, None] * sigma / sigma.shape[0]


# ---------------------------------------------------------------------------
# Cholesky geometry
# ---------------------------------------------------------------------------

def chol_inner(l, u, v):
    """Cholesky-metric inner product: Euclidean on strict lower parts,
    diagonal parts weighted by D(L)^-2."""
    return _chol_inner_d2(np.diag(l) ** 2, u, v)


def _chol_inner_d2(dl2, u, v):
    """chol_inner from the squared diagonal dl2 of the base point."""
    low = np.sum(np.tril(u, -1) * np.tril(v, -1), axis=(-2, -1))
    return low + np.sum(_diag(u) * _diag(v) / dl2, axis=-1)


def chol_exp(l, v, t=1.0, unit_det=False):
    """Geodesic point floor(L) + t floor(V) + D(L) expm(t D(V) D(L)^-1)."""
    l = check_chol_point(l)
    v = np.tril(np.asarray(v, dtype=float))
    if unit_det:
        v = proj_unitdet_chol(l, v)
    dl = np.diag(l)
    dv = np.diag(v)
    out = np.tril(l, -1) + t * np.tril(v, -1) + np.diag(dl * np.exp(t * dv / dl))
    if unit_det:
        out = out / np.prod(np.diag(out)) ** (1.0 / out.shape[0])
    return out


def chol_grad_hess(l, egrad, ehess_v, v):
    """Riemannian gradient and Hessian action under the Cholesky metric.

    grad = D(L)^2 D(egrad) + floor(egrad),
    Hess[V] = D(L)^2 D(ehess_v) + floor(ehess_v) + D(L) D(egrad) D(V).
    """
    dl = matops.diag_part(l)
    rgrad = dl @ dl @ matops.diag_part(egrad) + matops.strict_lower(egrad)
    rhess = (
        dl @ dl @ matops.diag_part(ehess_v)
        + matops.strict_lower(ehess_v)
        + dl @ matops.diag_part(egrad) @ matops.diag_part(v)
    )
    return rgrad, rhess


def proj_unitdet_chol(l, v):
    """Cholesky-metric orthogonal projection onto {W : tr(L^-1 W) = 0}."""
    v = np.tril(np.asarray(v, dtype=float))
    c = np.sum(_diag(v) / np.diag(l), axis=-1)
    return v - c[..., None, None] * matops.diag_part(l) / l.shape[0]


# ---------------------------------------------------------------------------
# tangent bases (used by the Newton solves)
# ---------------------------------------------------------------------------

def sym_basis(q):
    """Euclidean-orthonormal basis of symmetric q x q matrices as a (m, q, q)
    stack: the diagonal units, then the off-diagonal pairs in row order."""
    iu, ju = np.triu_indices(q, 1)
    i, j = np.concatenate([np.arange(q), iu]), np.concatenate([np.arange(q), ju])
    basis = np.zeros((i.size, q, q))
    k = np.arange(i.size)
    basis[k, i, j] = basis[k, j, i] = np.where(i == j, 1.0, 1.0 / np.sqrt(2.0))
    return basis


def lower_basis(q):
    """Euclidean-orthonormal basis of lower-triangular q x q matrices as a
    (m, q, q) stack, in row order."""
    i, j = np.tril_indices(q)
    basis = np.zeros((i.size, q, q))
    basis[np.arange(i.size), i, j] = 1.0
    return basis


def _gram_schmidt(cands, inner):
    out = []
    for c in cands:
        w = c.copy()
        for b in out:
            w = w - inner(w, b) * b
        nrm = inner(w, w)
        if nrm > _GS_TOL:
            out.append(w / np.sqrt(nrm))
    return np.array(out)


def ai_unitdet_basis(sigma):
    """Basis of T_Sigma P(S++), orthonormal under the affine-invariant metric."""
    cands = proj_unitdet_spd(sigma, sym_basis(sigma.shape[0]))
    si = np.linalg.inv(sigma)
    return _gram_schmidt(cands, lambda a, b: _ai_inner_inv(si, a, b))


def chol_unitdet_basis(l):
    """Basis of T_L P(L++), orthonormal under the Cholesky metric."""
    cands = proj_unitdet_chol(l, lower_basis(l.shape[0]))
    dl2 = np.diag(l) ** 2
    return _gram_schmidt(cands, lambda a, b: _chol_inner_d2(dl2, a, b))

"""Riemannian geometry of the SPD cone under the affine-invariant metric and
of lower-triangular matrices with positive diagonal under the Cholesky metric,
plus the unit-determinant submanifolds of both (totally geodesic, so gradients
and Hessians restrict by orthogonal projection).
"""

import numpy as np

from . import matops
from .errors import DefinitenessError


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


# ---------------------------------------------------------------------------
# affine-invariant geometry
# ---------------------------------------------------------------------------

def ai_inner(sigma, u, v):
    """Affine-invariant inner product tr(Sigma^-1 U Sigma^-1 V)."""
    si = np.linalg.inv(sigma)
    return float(np.trace(si @ u @ si @ v))


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
    q = sigma.shape[0]
    c = float(np.trace(np.linalg.solve(sigma, matops.sym(v))))
    return matops.sym(v) - c * sigma / q


# ---------------------------------------------------------------------------
# Cholesky geometry
# ---------------------------------------------------------------------------

def chol_inner(l, u, v):
    """Cholesky-metric inner product: Euclidean on strict lower parts,
    diagonal parts weighted by D(L)^-2."""
    dl = np.diag(l)
    s = float(np.sum(np.tril(u, -1) * np.tril(v, -1)))
    s += float(np.sum(np.diag(u) * np.diag(v) / dl**2))
    return s


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
    q = l.shape[0]
    v = np.tril(np.asarray(v, dtype=float))
    c = float(np.sum(np.diag(v) / np.diag(l)))
    return v - c * matops.diag_part(l) / q


# ---------------------------------------------------------------------------
# tangent bases (used by the Newton solves)
# ---------------------------------------------------------------------------

def sym_basis(q):
    """Euclidean-orthonormal basis of symmetric q x q matrices."""
    basis = []
    for i in range(q):
        e = np.zeros((q, q))
        e[i, i] = 1.0
        basis.append(e)
    for i in range(q):
        for j in range(i + 1, q):
            e = np.zeros((q, q))
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
    return basis


def lower_basis(q):
    """Euclidean-orthonormal basis of lower-triangular q x q matrices."""
    basis = []
    for i in range(q):
        for j in range(i + 1):
            e = np.zeros((q, q))
            e[i, j] = 1.0
            basis.append(e)
    return basis


def _gram_schmidt(cands, inner, tol=1e-9):
    out = []
    for c in cands:
        w = c.copy()
        for b in out:
            w = w - inner(w, b) * b
        nrm = inner(w, w)
        if nrm > tol:
            out.append(w / np.sqrt(nrm))
    return out


def ai_unitdet_basis(sigma):
    """Basis of T_Sigma P(S++), orthonormal under the affine-invariant metric."""
    q = sigma.shape[0]
    cands = [proj_unitdet_spd(sigma, e) for e in sym_basis(q)]
    return _gram_schmidt(cands, lambda a, b: ai_inner(sigma, a, b))


def chol_unitdet_basis(l):
    """Basis of T_L P(L++), orthonormal under the Cholesky metric."""
    q = l.shape[0]
    cands = [proj_unitdet_chol(l, e) for e in lower_basis(q)]
    return _gram_schmidt(cands, lambda a, b: chol_inner(l, a, b))

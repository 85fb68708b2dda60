"""Riemannian geometry of the SPD cone under the affine-invariant metric and
of lower-triangular matrices with positive diagonal under the Cholesky metric,
plus the unit-determinant submanifolds of both (totally geodesic, so gradients
and Hessians restrict by orthogonal projection).
Inner products, Hessian actions and projections broadcast over the leading
axes of their tangents; each matrix of a stack gets the bits of its own call.
UnitDetTangentSpace steps through the tangent space of a unit-determinant point.
"""

import numpy as np

from . import matops
from .errors import ConfigError, DefinitenessError

# Gram-Schmidt drops candidates of at most this squared norm once orthogonalized.
_GS_TOL = 1e-9


def check_chol_point(l):
    """Validate a lower-triangular matrix with strictly positive diagonal."""
    l = np.asarray(l, dtype=float)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ConfigError(f"expected square matrix, got {l.shape}")
    if np.abs(np.triu(l, 1)).max(initial=0.0) > 1e-12 * max(1.0, np.abs(l).max()):
        raise ConfigError("strict upper triangle is not zero")
    if not np.diag(l).min() > 0.0:
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


def ai_exp(sigma, v):
    """Geodesic point Sigma^(1/2) expm(Sigma^(-1/2) V Sigma^(-1/2)) Sigma^(1/2)."""
    sigma = matops.sym(np.asarray(sigma, dtype=float))
    s_half, s_ihalf = matops.spd_half_powers(sigma, what="SPD base point")
    inner = matops.sym(s_ihalf @ matops.sym(v) @ s_ihalf)
    wi, qi = np.linalg.eigh(inner)
    e = (qi * np.exp(wi)) @ qi.T
    return matops.sym(s_half @ e @ s_half)


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
    return _chol_inner_d2(np.diag(l) ** 2, np.tri(len(l), k=-1, dtype=bool), u, v)


def _chol_inner_d2(dl2, low, u, v):
    """chol_inner from the squared diagonal dl2 and strict-lower mask low of L."""
    off = np.sum(np.where(low, u, 0.0) * np.where(low, v, 0.0), axis=(-2, -1))
    return off + np.sum(_diag(u) * _diag(v) / dl2, axis=-1)


def chol_exp(l, v):
    """Geodesic point floor(L) + floor(V) + D(L) expm(D(V) D(L)^-1)."""
    l = check_chol_point(l)
    v = np.tril(np.asarray(v, dtype=float))
    dl = np.diag(l)
    return np.tril(l, -1) + np.tril(v, -1) + np.diag(dl * np.exp(np.diag(v) / dl))


def chol_grad_hess(l, egrad, ehess_v, v):
    """Riemannian gradient and Hessian action under the Cholesky metric.

    grad = D(L)^2 D(egrad) + floor(egrad),
    Hess[V] = D(L)^2 D(ehess_v) + floor(ehess_v) + D(L) D(egrad) D(V).
    """
    dl = matops.diag_part(l)
    rgrad = dl @ dl @ matops.diag_part(egrad) + np.tril(egrad, -1)
    rhess = (
        dl @ dl @ matops.diag_part(ehess_v)
        + np.tril(ehess_v, -1)
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
    """Right-looking modified Gram-Schmidt over a (m, q, q) stack: each accepted
    vector leaves all later candidates in one broadcast inner product, so every
    candidate meets the accepted ones in order; returns (stack, kept indices)."""
    w = np.array(cands, dtype=float)
    keep = []
    for i in range(len(w)):
        nrm = inner(w[i], w[i])
        if nrm > _GS_TOL:
            w[i] = w[i] / np.sqrt(nrm)
            keep.append(i)
            w[i + 1 :] = w[i + 1 :] - inner(w[i + 1 :], w[i])[:, None, None] * w[i]
    return w, keep


def ai_unitdet_basis(sigma):
    """Basis of T_Sigma P(S++), orthonormal under the affine-invariant metric."""
    cands = proj_unitdet_spd(sigma, sym_basis(sigma.shape[0]))
    si = np.linalg.inv(sigma)
    w, keep = _gram_schmidt(cands, lambda a, b: _ai_inner_inv(si, a, b))
    return w[keep]


def chol_unitdet_basis(l):
    """Basis of T_L P(L++), orthonormal under the Cholesky metric: Gram-Schmidt
    on the projected diagonal units only, as lower_basis's other units meet
    each other and every diagonal matrix in an exact zero."""
    basis, diag = lower_basis(len(l)), np.flatnonzero(np.equal(*np.tril_indices(len(l))))
    dl2, low = np.diag(l) ** 2, np.tri(len(l), k=-1, dtype=bool)
    basis[diag], keep = _gram_schmidt(proj_unitdet_chol(l, basis[diag]),
                                      lambda a, b: _chol_inner_d2(dl2, low, a, b))
    return np.delete(basis, np.delete(diag, keep), axis=0)


class UnitDetTangentSpace:
    """The tangent space at a unit-determinant SPD point under the affine-invariant
    metric, or (cholesky=True) at a unit-determinant Cholesky point under the
    Cholesky metric: a metric-orthonormal basis and `part` (matops.sym or np.tril),
    the map onto the structure of its tangents.  Reads the module functions when built."""

    def __init__(self, point, cholesky):
        self._inner, self._grad_hess, self._proj, self._exp, basis = (
            (chol_inner, chol_grad_hess, proj_unitdet_chol, chol_exp, chol_unitdet_basis)
            if cholesky else
            (ai_inner, ai_grad_hess, proj_unitdet_spd, ai_exp, ai_unitdet_basis))
        self.point, self.basis, self._cholesky = point, basis(point), cholesky
        self.part = np.tril if cholesky else matops.sym

    def newton_system(self, egrad, ehess):
        """The Riemannian gradient, its coordinates in the basis, and the
        Riemannian Hessian in the basis, row i the image of basis[i]; ehess
        maps the (m, q, q) basis to the stack of Euclidean Hessian actions."""
        x, basis = self.point, self.basis
        rgrad, rhess = self._grad_hess(x, egrad, ehess(basis), basis)
        rgrad, rhess = self._proj(x, rgrad), self._proj(x, rhess)
        # each row of h_mat pairs one image with the whole basis
        h_mat = np.empty((len(rhess), len(basis)))
        for rows in matops.chunks(len(rhess), basis.nbytes):
            h_mat[rows] = self._inner(x, rhess[rows, None], basis)
        return rgrad, self._inner(x, rgrad, basis), h_mat

    def tangent(self, coef):
        return sum(c * b for c, b in zip(coef, self.basis))

    def norm(self, v):
        return float(np.sqrt(self._inner(self.point, v, v)))

    def exp(self, v):
        """The unit-determinant step: the geodesic along the projection of v,
        renormalized to determinant 1, which stops the slow drift that exact
        total geodesy would forbid."""
        x = check_chol_point(self.point) if self._cholesky else matops.sym(self.point)
        out = self._exp(x, self._proj(x, v))
        det = np.prod(np.diag(out)) if self._cholesky else np.linalg.det(out)
        return out / det ** (1.0 / out.shape[0])

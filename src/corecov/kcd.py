"""Kronecker map, core map, and the Kronecker-core decomposition (KCD),
with the differentials dh, dk, dc, dg and the tangent-space operator R_C.

The Kronecker component k(Sigma) minimizes the KL-type objective
    d(K2 (x) K1 | Sigma) = tr(Sigma K^-1) + p1 log|K2| + p2 log|K1|
and is computed by flip-flop block coordinate descent with closed-form block
updates.  The first factor is renormalized to determinant 1 after every sweep
to pin down the scale split.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import core_geometry, matops, spd_geometry
from .errors import ConfigError, DefinitenessError, NoKroneckerMle

# Flip-flop stopping: NoKroneckerMle when the objective still falls by more
# than _MLE_TOL (relative) per sweep after _MLE_MAX_ITER sweeps.
_MLE_TOL = 1e-10
_MLE_MAX_ITER = 500
# A factor whose condition number passes this bound is treated as degenerate
# evidence that the Kronecker MLE does not exist (iterates collapse).
_COND_LIMIT = 1e12
# The flip-flop is polished until the relative parameter movement per sweep
# falls below this floor; the user-facing tol only drives nonexistence
# detection.  Polishing to machine precision keeps finite-difference oracles
# of k(.) meaningful.
_PARAM_FLOOR = 1e-14


class SquareRootKind(enum.Enum):
    """Fixed choice of the square-root map h on separable covariances."""

    SYMMETRIC = "sym"
    CHOLESKY = "chol"


@dataclass(frozen=True)
class SeparableCovariance:
    """Kronecker-factor pair (K1, K2) with det(K1) = 1; K = K2 (x) K1."""

    k1: np.ndarray
    k2: np.ndarray

    @property
    def matrix(self):
        return matops.kron(self.k2, self.k1)

    def sqrt_factors(self, h_kind):
        """Factor pair (h1, h2) with h(K) = h2 (x) h1 per the square-root kind."""
        check_h_kind(h_kind)
        if h_kind is SquareRootKind.CHOLESKY:
            return matops.chol(self.k1), matops.chol(self.k2)
        return tuple(matops.spd_half_powers(k)[0] for k in (self.k1, self.k2))

    def h_matrix(self, h_kind):
        h1, h2 = self.sqrt_factors(h_kind)
        return matops.kron(h2, h1)


@dataclass(frozen=True)
class KcdResult:
    """A Kronecker-core decomposition Sigma = h(K) C h(K)^T."""

    k: SeparableCovariance
    c: np.ndarray
    h_kind: SquareRootKind

    def reconstruct(self):
        h = self.k.h_matrix(self.h_kind)
        return h @ self.c @ h.T


def kl_objective(k1, k2, sigma, dims):
    """d(K2 (x) K1 | Sigma): the flip-flop objective."""
    t1 = matops.weighted_partial_trace_1(sigma, np.linalg.inv(k2), dims)
    tr_term = float(np.trace(np.linalg.solve(k1, t1)))
    return (
        tr_term
        + dims.p1 * np.linalg.slogdet(k2)[1]
        + dims.p2 * np.linalg.slogdet(k1)[1]
    )


def kronecker_mle(sigma, dims, psd_check=True):
    """Kronecker MLE of a symmetric PSD matrix by flip-flop descent.

    Raises NoKroneckerMle when the objective is still decreasing by more than
    1e-10 (relative) per sweep after 500 sweeps, or when a factor's condition
    number exceeds 1e12 -- the signatures of nonexistence on rank-deficient
    input.

    psd_check=False skips the input eigenvalue gate for near-PSD matrices
    (retraction intermediates whose trailing spectrum dips slightly below
    zero); factor positivity is still enforced every sweep.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (dims.p, dims.p):
        raise ConfigError(f"expected {dims.p}x{dims.p} input, got {sigma.shape}")
    sigma = matops.sym(sigma)
    if psd_check:
        w = np.linalg.eigvalsh(sigma)
        if w[0] < -matops.RESIDUAL_TOL * max(w[-1], 1.0):
            raise DefinitenessError("input to kronecker_mle is not PSD")
        if w[-1] <= 0.0:
            raise DefinitenessError("input to kronecker_mle is zero")

    k1 = np.eye(dims.p1)
    k2 = np.eye(dims.p2)
    prev_move = np.inf
    for _ in range(_MLE_MAX_ITER):
        k1_prev, k2_prev = k1, k2
        k1 = matops.sym(
            matops.weighted_partial_trace_1(sigma, np.linalg.inv(k2), dims) / dims.p2
        )
        _check_factor(k1)
        k2 = matops.sym(
            matops.weighted_partial_trace_2(sigma, np.linalg.inv(k1), dims) / dims.p1
        )
        _check_factor(k2)
        det1 = np.linalg.det(k1)
        if not np.isfinite(det1) or det1 <= 0.0:
            raise NoKroneckerMle("factor determinant collapsed")
        scale = det1 ** (1.0 / dims.p1)
        k1 = k1 / scale
        k2 = k2 * scale

        move = max(_rel_change(k1, k1_prev), _rel_change(k2, k2_prev))
        # Polish to the float noise floor (a rising tiny move is rounding,
        # not progress); _MLE_TOL only classifies nonexistence.
        if move < _PARAM_FLOOR or (move < 1e-9 and move >= prev_move):
            return SeparableCovariance(k1=k1, k2=k2)
        prev_move = move
    obj = kl_objective(k1, k2, sigma, dims)
    decrease = kl_objective(k1_prev, k2_prev, sigma, dims) - obj
    if decrease > _MLE_TOL * abs(obj):
        raise NoKroneckerMle(
            f"objective still decreasing by {decrease:.3e} after {_MLE_MAX_ITER} sweeps"
        )
    return SeparableCovariance(k1=k1, k2=k2)


def check_h_kind(h_kind):
    """ConfigError unless h_kind is a SquareRootKind member."""
    if not isinstance(h_kind, SquareRootKind):
        raise ConfigError(f"square-root kind must be a SquareRootKind, got {h_kind!r}")


def kcd(sigma, dims, h_kind):
    """Full Kronecker-core decomposition of a symmetric PSD matrix."""
    check_h_kind(h_kind)
    sep = kronecker_mle(sigma, dims)
    sigma = matops.sym(np.asarray(sigma, dtype=float))
    c = matops.whiten(sep.h_matrix(h_kind), sigma)
    return KcdResult(k=sep, c=c, h_kind=h_kind)


def _check_factor(k):
    w = np.linalg.eigvalsh(k)
    if w[0] <= 0.0 or not np.isfinite(w).all():
        raise NoKroneckerMle("flip-flop factor lost positive definiteness")
    if w[-1] / w[0] > _COND_LIMIT:
        raise NoKroneckerMle(
            f"factor condition number {w[-1] / w[0]:.3e} exceeds {_COND_LIMIT:.0e}"
        )


def _rel_change(a, b):
    return np.abs(a - b).max() / max(np.abs(a).max(), 1e-300)


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def dh(sep, u1, u2, h_kind):
    """Differential of the square-root map h at K = K2 (x) K1 along the
    separable tangent U = U2 (x) K1 + K2 (x) U1.

    h is separable, h(K) = h2 (x) h1, so the product rule gives
    R2 (x) h1 + h2 (x) R1 with R_i the differential of the factor root at
    K_i along U_i.
    """
    h1, h2 = sep.sqrt_factors(h_kind)
    r1 = _droot(h1, u1, h_kind)
    r2 = _droot(h2, u2, h_kind)
    return matops.kron(r2, h1) + matops.kron(h2, r1)


def _droot(h, u, h_kind):
    """Differential of the root h of K = h h^T along a symmetric U: the
    solution R of h R + R h = U for the symmetric root, L (L^-1 U L^-T)_{1/2}
    for the Cholesky root L."""
    u = matops.sym(u)
    if h_kind is SquareRootKind.CHOLESKY:
        return h @ matops.half(matops.whiten(h, u))
    return core_geometry.sylvester_solve(h, u)


def rc_operator(c, s1, s2, dims):
    """R_C at base (S1, S2) as a map of tangent pairs (W1, W2), with the half
    powers of S1 and S2 computed once.  The base satisfies |S1| = 1, W1 is
    trace-orthogonal to S1 (tr(S1^-1 W1) = 0), and C is the symmetric-root
    core at the base point."""
    s1_half, s1_ihalf = matops.spd_half_powers(s1)
    s2_half, s2_ihalf = matops.spd_half_powers(s2)

    def apply(w1, w2):
        w1b = matops.sym(s1_ihalf @ w1 @ s1_ihalf)
        w2b = matops.sym(s2_ihalf @ w2 @ s2_ihalf)
        m1 = matops.weighted_partial_trace_1(c, w2b, dims)
        m2 = matops.weighted_partial_trace_2(c, w1b, dims)
        x1 = (
            w1
            + s1_half @ m1 @ s1_half / dims.p2
            - float(np.trace(w2b)) * s1 / dims.p2
        )
        x2 = w2 + s2_half @ m2 @ s2_half / dims.p1
        return matops.sym(x1), matops.sym(x2)

    return apply


def rc_solve(c, s1, s2, m1, m2, dims):
    """Invert R_C: find the tangent pair (U1, U2) with R_C(U1, U2) = (M1, M2).

    Materializes R_C over an orthonormal basis of the product tangent space
    (dimension binom(p1+1,2) - 1 + binom(p2+1,2)) and solves densely.
    """
    basis = [(e, np.zeros_like(s2)) for e in spd_geometry.ai_unitdet_basis(s1)]
    basis += [(np.zeros_like(s1), e) for e in spd_geometry.sym_basis(dims.p2)]

    def pack(a, b):
        return np.concatenate([a.ravel(), b.ravel()])

    r_c = rc_operator(c, s1, s2, dims)
    mat_op = np.column_stack([pack(*r_c(b1, b2)) for b1, b2 in basis])
    rhs = pack(np.asarray(m1, dtype=float), np.asarray(m2, dtype=float))
    coef, _, rank, _ = np.linalg.lstsq(mat_op, rhs, rcond=None)
    if rank < len(basis):
        raise np.linalg.LinAlgError("R_C system is numerically rank deficient")
    u1 = sum(w * b1 for w, (b1, _) in zip(coef, basis))
    u2 = sum(w * b2 for w, (_, b2) in zip(coef, basis))
    return matops.sym(u1), matops.sym(u2)


def dk(sigma, v, dims):
    """Differential of the Kronecker map: dk(Sigma)[V] as a factor pair.

    Returns (U1, U2) with tr(S1^-1 U1) = 0; the assembled tangent is
    U2 (x) S1 + S2 (x) U1.
    """
    sep = kronecker_mle(sigma, dims)
    sigma = matops.sym(np.asarray(sigma, dtype=float))
    v = matops.sym(np.asarray(v, dtype=float))
    return _dk(sep, sigma, v, dims)


def _dk(sep, sigma, v, dims):
    """dk at the Kronecker MLE sep of Sigma, for symmetric Sigma and V: R_C
    solved against the flip-flop updates linearized along V,
      M1 = (wpt_1(V, K2^-1) - tr(K^-1 V) K1 / p1) / p2,
      M2 = wpt_2(V, K1^-1) / p1,
    with wpt_i the weighted partial traces."""
    k1_inv, k2_inv = np.linalg.inv(sep.k1), np.linalg.inv(sep.k2)
    w1 = matops.weighted_partial_trace_1(v, k2_inv, dims)
    tr_all = float(np.trace(k1_inv @ w1))  # tr(K^-1 V)
    m1 = (w1 - tr_all * sep.k1 / dims.p1) / dims.p2
    m2 = matops.weighted_partial_trace_2(v, k1_inv, dims) / dims.p1
    c_sym = matops.whiten(sep.h_matrix(SquareRootKind.SYMMETRIC), sigma)
    return rc_solve(c_sym, sep.k1, sep.k2, m1, m2, dims)


def separable_tangent(sep, u1, u2):
    """Assemble U2 (x) K1 + K2 (x) U1."""
    return matops.kron(u2, sep.k1) + matops.kron(sep.k2, u1)


def dc(sigma, v, dims, h_kind):
    """Differential of the core map c at Sigma along V."""
    sep = kronecker_mle(sigma, dims)
    sigma = matops.sym(np.asarray(sigma, dtype=float))
    v = matops.sym(np.asarray(v, dtype=float))
    u = dh(sep, *_dk(sep, sigma, v, dims), h_kind)
    h = sep.h_matrix(h_kind)
    corr = np.linalg.solve(h, u) @ matops.whiten(h, sigma)
    return matops.whiten(h, v) - corr - corr.T


def dg(sep, c, u1, u2, w, h_kind):
    """Differential of the assembly map g(K, C) = h(K) C h(K)^T."""
    h = sep.h_matrix(h_kind)
    r = dh(sep, u1, u2, h_kind)
    return matops.sym(h @ w @ h.T) + r @ c @ h.T + h @ c @ r.T


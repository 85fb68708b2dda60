"""Partial-isotropy core shrinkage estimation.

The model: vec(Y_i) ~ N(0, Sigma) with
    Sigma = nu^2 (K2bar (x) K1bar) ((1-lambda) A A^T + lambda I) (K2bar (x) K1bar)^T,
where the K-bar factors have unit determinant (SPD or lower-triangular per the
square-root kind), A is a rank-r core factor, and lambda in (0, 1).

Fitting alternates exact coordinate minimization in nu and lambda with
decrease-checked Riemannian Newton steps in K1bar, K2bar (affine-invariant or
Cholesky geometry on the unit-determinant manifolds) and in A (Euclidean
geometry on the fixed-rank core-factor manifold, eigen-truncated core
retraction).
"""

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from . import core_geometry, kcd, matops, spd_geometry
from .errors import NUMERICAL_ERRORS, DefinitenessError, StructureError
from .kcd import SquareRootKind

# Search interval of the shrinkage level lambda; also clamps its initial value.
_LAMBDA_BRACKET = (1e-4, 1.0 - 1e-4)
# Step halvings before a block step or the core retraction gives up.
_MAX_HALVINGS = 30
# Every top-r eigenvalue of a core kept as a factor must exceed this fraction
# of the largest.
_TOP_EIG_RTOL = 1e-10


@dataclass(frozen=True)
class PicseParams:
    """Full parameter tuple (K1bar, K2bar, nu, A, lambda) plus bookkeeping."""

    k1bar: np.ndarray
    k2bar: np.ndarray
    nu: float
    a: np.ndarray
    lam: float
    h_kind: SquareRootKind
    dims: matops.Dims

    def validate(self, tol=1e-8):
        if abs(np.linalg.det(self.k1bar) - 1.0) > tol:
            raise StructureError("K1bar determinant differs from 1")
        if abs(np.linalg.det(self.k2bar) - 1.0) > tol:
            raise StructureError("K2bar determinant differs from 1")
        if not (0.0 < self.lam < 1.0):
            raise StructureError(f"lambda {self.lam} outside (0, 1)")
        if self.nu <= 0.0:
            raise StructureError("nu must be positive")
        core_geometry.check_core_factor(self.a, self.dims, tol=tol)
        return self

    @property
    def kbar(self):
        return matops.kron(self.k2bar, self.k1bar)


@dataclass(frozen=True)
class SampleCov:
    """Sample covariance S = (1/n) sum vec(Y_i) vec(Y_i)^T of matrix data."""

    s: np.ndarray
    n: int
    dims: matops.Dims

    @classmethod
    def from_data(cls, data, dims):
        data = np.asarray(data, dtype=float)
        n = data.shape[0]
        ymat = np.stack([matops.vec(y) for y in data])
        return cls(s=matops.sym(ymat.T @ ymat / n), n=n, dims=dims)


@dataclass(frozen=True)
class FitConfig:
    """Settings of the alternating-minimization fit."""

    tol: float = 1e-6
    max_iter: int = 200
    h_kind: SquareRootKind = SquareRootKind.SYMMETRIC

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("need tol > 0 and max_iter >= 1")


@dataclass
class FitTrace:
    """Per-sweep objective values, accepted step norms, termination reason."""

    objectives: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    termination: str = "max_iter"

    @property
    def n_sweeps(self):
        return len(self.step_norms)


class _CtildeSpectral:
    """Rank-r spectral form of Ctilde = (1-lambda) A A^T + lambda I.

    Ctilde^-1 = (1/lambda) (I - (1-lambda) U diag(alpha) U^T) with
    alpha_j = sigma_j^2 / ((1-lambda) sigma_j^2 + lambda); no dense p x p
    inverse is ever formed.
    """

    def __init__(self, a, lam):
        if not (0.0 < lam < 1.0):
            raise DefinitenessError(f"lambda {lam} outside (0, 1)")
        u, sig, _ = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
        self.u = u
        self.sig2 = sig**2
        self.lam = lam
        self.d = (1.0 - lam) * self.sig2 + lam
        self.alpha = self.sig2 / self.d
        self.p = a.shape[0]
        self.r = a.shape[1]

    def logdet(self):
        return float(np.sum(np.log(self.d)) + (self.p - self.r) * np.log(self.lam))

    def inv_apply(self, m):
        m = np.asarray(m, dtype=float)
        proj = (self.u * self.alpha) @ (self.u.T @ m)
        return (m - (1.0 - self.lam) * proj) / self.lam

    def inv_quad_trace(self, m):
        """tr(M Ctilde^-1) for symmetric M."""
        um = self.u.T @ m @ self.u
        return float(
            (np.trace(m) - (1.0 - self.lam) * np.sum(self.alpha * np.diag(um)))
            / self.lam
        )


def nll(tau, sample_cov):
    """Per-datum negative log-likelihood (additive constants dropped):

    tr(Kbar^-1 S Kbar^-T Ctilde^-1) / nu^2 + log|Ctilde| + 2 p log nu.
    """
    spec = _CtildeSpectral(tau.a, tau.lam)
    m = matops.whiten(tau.kbar, sample_cov.s)
    tr_term = spec.inv_quad_trace(m) / tau.nu**2
    return tr_term + spec.logdet() + 2.0 * tau.dims.p * np.log(tau.nu)


def sigma_from_params(tau):
    """Assemble nu^2 Kbar ((1-lambda) A A^T + lambda I) Kbar^T."""
    kbar = tau.kbar
    ctil = (1.0 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(tau.dims.p)
    return tau.nu**2 * matops.sym(kbar @ ctil @ kbar.T)


# ---------------------------------------------------------------------------
# parameter blocks and the decrease-checked Riemannian Newton step
# ---------------------------------------------------------------------------

class _KBlock:
    """K1bar (side 1) or K2bar (side 2) as a parameter block: a unit-determinant
    SPD point under the affine-invariant metric, or a unit-determinant Cholesky
    point under the Cholesky metric, with a basis orthonormal in that metric.

    The Euclidean gradient and Hessian of the likelihood share one pattern for
    both sides once the whitened observations are transposed: side 1 works
    with Z_i = K1bar^-1 Y_i K2bar^-T and slices U_j of the top left singular
    vectors of A; side 2 with their transposes.
    """

    def __init__(self, tau, data, side):
        self.tau = tau
        self.name = "k1bar" if side == 1 else "k2bar"
        self.point = getattr(tau, self.name)
        if tau.h_kind is SquareRootKind.CHOLESKY:
            self.basis = spd_geometry.chol_unitdet_basis(self.point)
            self._inner = spd_geometry.chol_inner
            self._grad_hess = spd_geometry.chol_grad_hess
            self._proj = spd_geometry.proj_unitdet_chol
            self._exp = spd_geometry.chol_exp
            self.f = matops.lower
        else:
            self.basis = spd_geometry.ai_unitdet_basis(self.point)
            self._inner = spd_geometry.ai_inner
            self._grad_hess = spd_geometry.ai_grad_hess
            self._proj = spd_geometry.proj_unitdet_spd
            self._exp = spd_geometry.ai_exp
            self.f = matops.sym

        dims = tau.dims
        data = np.asarray(data, dtype=float)
        n = data.shape[0]
        # Z_i = K1bar^-1 Y_i K2bar^-T, batched over observations.
        z = np.linalg.solve(tau.k1bar, data.transpose(1, 0, 2).reshape(dims.p1, -1))
        z = z.reshape(dims.p1, n, dims.p2).transpose(1, 0, 2)
        z = np.linalg.solve(tau.k2bar, z.transpose(0, 2, 1)).transpose(0, 2, 1)

        spec = _CtildeSpectral(tau.a, tau.lam)
        umats = np.stack(
            [matops.mat(spec.u[:, j], dims.p1, dims.p2) for j in range(spec.r)]
        )
        if side == 1:
            self.e = z
            self.umats = umats
        else:
            self.e = z.transpose(0, 2, 1)
            self.umats = umats.transpose(0, 2, 1)
        self.alpha = spec.alpha
        self.kb_inv = np.linalg.inv(self.point)
        self.q_mat = np.einsum("nab,ncb->ac", self.e, self.e)
        # t[j, i] = trace of the cross-term W_{side,i,j}
        self.t = np.einsum("jab,nab->jn", self.umats, self.e)
        # G[j] = sum_i t[j, i] E_i
        self.g_acc = np.einsum("jn,nab->jab", self.t, self.e)
        self.c0 = 2.0 / (n * tau.lam * tau.nu**2)
        self.c1 = 2.0 * (1.0 - tau.lam) / (n * tau.lam * tau.nu**2)
        self.egrad = self.grad()

    def grad(self):
        """Euclidean gradient of the likelihood in the factor."""
        ki_t = self.kb_inv.T
        out = -self.c0 * self.f(ki_t @ self.q_mat)
        cross = np.einsum(
            "j,jab->ab",
            self.alpha,
            np.einsum("ab,jbc,jdc->jad", ki_t, self.umats, self.g_acc),
        )
        return out + self.c1 * self.f(cross)

    def hess(self, v):
        """Euclidean Hessian of the likelihood in the factor, applied to V."""
        ki = self.kb_inv
        ki_t = ki.T
        v = np.asarray(v, dtype=float)
        term1 = self.c0 * self.f(
            ki_t @ v.T @ ki_t @ self.q_mat
            + ki_t @ self.q_mat @ v.T @ ki_t
            + ki_t @ ki @ v @ self.q_mat
        )
        kv = ki @ v
        s = np.einsum("jab,nab->jn", self.umats, np.einsum("ab,nbc->nac", kv, self.e))
        h_acc = np.einsum("jn,nab->jab", s, self.e)
        term2 = -self.c1 * self.f(
            np.einsum(
                "j,jab->ab",
                self.alpha,
                np.einsum("ab,jbc,jdc->jad", ki_t, self.umats, h_acc),
            )
        )
        ku = np.einsum("ab,jbc->jac", ki_t, self.umats)
        part_a = np.einsum("ab,jbc,jdc->jad", ki_t @ v.T, ku, self.g_acc)
        part_b = np.einsum("jab,jcb->jac", ku, np.einsum("ab,jbc->jac", kv, self.g_acc))
        term3 = -self.c1 * self.f(
            np.einsum("j,jab->ab", self.alpha, part_a + part_b)
        )
        return term1 + term2 + term3

    def inner(self, u, v):
        return self._inner(self.point, u, v)

    def norm(self, v):
        return float(np.sqrt(self.inner(v, v)))

    def _riemannian(self, ehess_v, v):
        g, h = self._grad_hess(self.point, self.egrad, ehess_v, v)
        return self._proj(self.point, g), self._proj(self.point, h)

    def gradient(self):
        """Riemannian gradient and its coordinates in the basis."""
        zero = np.zeros_like(self.point)
        rgrad = self._riemannian(zero, zero)[0]
        return rgrad, np.array([self.inner(rgrad, b) for b in self.basis])

    def hessian(self):
        """Riemannian Hessian in the basis, row i the image of basis[i]."""
        cols = [self._riemannian(self.hess(b), b)[1] for b in self.basis]
        return np.array([[self.inner(c, b) for b in self.basis] for c in cols])

    def tangent(self, coef):
        return sum(c * b for c, b in zip(coef, self.basis))

    def retract(self, v):
        point = self._exp(self.point, v, 1.0, unit_det=True)
        return dataclasses.replace(self.tau, **{self.name: point})


class _ABlock:
    """The core factor A as a parameter block: the fixed-rank core-factor
    manifold under the Euclidean metric, coordinates in an orthonormal basis
    of N(J(A)), and the eigen-truncated core retraction."""

    def __init__(self, tau, sample_cov):
        self.tau = tau
        self.spec = _CtildeSpectral(tau.a, tau.lam)
        self.stil = matops.whiten(tau.kbar, sample_cov.s) / tau.nu**2
        self.space = core_geometry.RankTangentSpace(tau.a, tau.dims)
        self.egrad = self.grad()

    def grad(self):
        """Euclidean gradient of the likelihood in A."""
        x1 = self.spec.inv_apply(self.tau.a)
        x3 = self.spec.inv_apply(self.stil @ x1)
        return -2.0 * (1.0 - self.tau.lam) * (x3 - x1)

    def hess(self, v):
        """Euclidean Hessian of the likelihood in A, applied to V."""
        inv = self.spec.inv_apply
        a, lam = self.tau.a, self.tau.lam
        v = np.asarray(v, dtype=float)
        p_mat = a @ v.T + v @ a.T
        ia = inv(a)
        isia = inv(self.stil @ ia)
        out = -2.0 * (1.0 - lam) * inv(self.stil @ inv(v))
        out += 2.0 * (1.0 - lam) * inv(v)
        out += 2.0 * (1.0 - lam) ** 2 * inv(p_mat @ isia)
        out += 2.0 * (1.0 - lam) ** 2 * inv(self.stil @ inv(p_mat @ ia))
        out -= 2.0 * (1.0 - lam) ** 2 * inv(p_mat @ ia)
        return out

    def norm(self, v):
        return float(np.linalg.norm(v))

    def gradient(self):
        """Riemannian gradient and its coordinates B^T vec(egrad)."""
        coef = self.space.coords(self.egrad)
        return self.space.tangent(coef), coef

    def hessian(self):
        """Riemannian Hessian in the basis B, column i its action on B[:, i]."""
        w = self.space.normal_weights(self.egrad)
        m = self.space.basis.shape[1]
        h_mat = np.empty((m, m))
        for i in range(m):
            v = self.space.basis[:, i].reshape(self.tau.a.shape, order="F")
            h_mat[:, i] = self.space.hess_coords(self.hess(v), v, w)
        return h_mat

    def tangent(self, coef):
        return self.space.tangent(coef)

    def retract(self, v):
        a_new = retract_core_factor(self.tau.a, v, self.tau.dims)
        return None if a_new is None else dataclasses.replace(self.tau, a=a_new)


def _newton_coeffs(h_mat, g_vec):
    h_mat = (h_mat + h_mat.T) / 2.0
    coef, *_ = np.linalg.lstsq(h_mat, -g_vec, rcond=None)
    return coef


def _block_step(block, sample_cov, current):
    """One decrease-checked Riemannian Newton step in one parameter block.

    Tries the Newton direction -Hess^+[grad] first, then steepest descent
    -2^-k grad for k = 0.._MAX_HALVINGS, and takes the first candidate whose
    retraction does not raise the objective above `current`, its value at
    the block's base point.  Returns (tau, nll, step_norm) with the norm
    measured at the base point; when the gradient vanishes or nothing helps,
    tau is unchanged and the norm is 0.
    """
    tau = block.tau
    rgrad, g_coef = block.gradient()
    if np.linalg.norm(g_coef) < 1e-13:
        return tau, current, 0.0
    v_newton = block.tangent(_newton_coeffs(block.hessian(), g_coef))
    newton = [v_newton] if np.isfinite(v_newton).all() else []
    descent = (-(0.5**k) * rgrad for k in range(_MAX_HALVINGS + 1))
    for v in itertools.chain(newton, descent):
        try:
            cand = block.retract(v)
            value = np.nan if cand is None else nll(cand, sample_cov)
        except NUMERICAL_ERRORS:
            continue
        if np.isfinite(value) and value <= current:
            return cand, value, block.norm(v)
    return tau, current, 0.0


def retract_core_factor(a, v, dims):
    """Eigen-truncated core retraction of Eq.-style step D = AA^T + AV^T + VA^T.

    The core component of D is recomputed (restoring exact partial traces),
    its top-r eigenpairs give the new factor, and the factor is re-balanced
    onto the constraint set.  Infeasible steps (top-r spectrum not positive)
    shrink V by half, at most _MAX_HALVINGS times; returns None if none fits.
    """
    a = np.asarray(a, dtype=float)
    vv = np.asarray(v, dtype=float)
    for _ in range(_MAX_HALVINGS + 1):
        d = matops.sym(a @ a.T + a @ vv.T + vv @ a.T)
        try:
            sep = kcd.kronecker_mle(d, dims, psd_check=False)
            dbar = matops.whiten(sep.h_matrix(SquareRootKind.SYMMETRIC), d)
            return _top_core_factor(dbar, dims)
        except NUMERICAL_ERRORS:
            vv = vv / 2.0
    return None


def _top_core_factor(core, dims):
    """Balanced core factor from the top-r eigenpairs of a core matrix."""
    w, q = np.linalg.eigh(core)
    w = w[::-1][: dims.r]
    q = q[:, ::-1][:, : dims.r]
    if w.min() <= _TOP_EIG_RTOL * max(w.max(), 1e-300):
        raise StructureError("top-r core spectrum not positive")
    return core_geometry.balance_core_factor(q * np.sqrt(w), dims)


# ---------------------------------------------------------------------------
# coordinate updates with closed forms
# ---------------------------------------------------------------------------

def update_nu(tau, sample_cov):
    """Exact minimizer nu = sqrt(tr(Kbar^-1 S Kbar^-T Ctilde^-1) / p)."""
    spec = _CtildeSpectral(tau.a, tau.lam)
    m = matops.whiten(tau.kbar, sample_cov.s)
    return float(np.sqrt(spec.inv_quad_trace(m) / tau.dims.p))


def update_lambda(tau, sample_cov):
    """Bounded scalar minimization of the likelihood in lambda.

    One eigendecomposition reduces each probe to O(p): with m_j the whitened
    data energy along the j-th left singular vector of A, the objective is
    sum_j [m_j/d_j + log d_j] over the spiked block plus the isotropic rest.
    """
    lo, hi = _LAMBDA_BRACKET
    u, sig, _ = np.linalg.svd(tau.a, full_matrices=False)
    sig2 = sig**2
    m = matops.whiten(tau.kbar, sample_cov.s) / tau.nu**2
    mj = np.einsum("pj,pq,qj->j", u, m, u)
    rest = float(np.trace(m) - mj.sum())
    p, r = tau.dims.p, tau.dims.r

    def objective(lam):
        d = (1.0 - lam) * sig2 + lam
        return float(
            np.sum(mj / d + np.log(d)) + rest / lam + (p - r) * np.log(lam)
        )

    res = minimize_scalar(
        objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-8}
    )
    best = float(res.x)
    if objective(tau.lam) < objective(best):
        best = tau.lam
    return min(max(best, lo), hi)


# ---------------------------------------------------------------------------
# initialization, fitting, and baselines
# ---------------------------------------------------------------------------

def init(sample_cov, r, h_kind):
    """Initialization from the sample Kronecker-core decomposition.

    K-bar factors and nu come from the determinant-normalized square-root
    factors of the sample Kronecker MLE; lambda from the trailing eigenvalue
    mass of the sample core (clamped into the bracket); A from the top-r
    eigenpairs of the core of the best rank-r approximation of the sample
    core, re-balanced onto the constraint set.
    """
    dims = sample_cov.dims.with_rank(r)
    dec = kcd.kcd(sample_cov.s, dims, h_kind)
    h1, h2 = dec.k.sqrt_factors(h_kind)
    det1 = np.linalg.det(h1) ** (1.0 / dims.p1)
    det2 = np.linalg.det(h2) ** (1.0 / dims.p2)
    k1bar = h1 / det1
    k2bar = h2 / det2
    nu0 = float(det1 * det2)

    w, q = np.linalg.eigh(dec.c)
    w = w[::-1]
    q = q[:, ::-1]
    if w[r - 1] <= 1e-12 * max(w[0], 1e-300):
        raise StructureError(f"sample core has rank below r={r}")
    lam0 = (dims.p - float(w[:r].sum())) / (dims.p - r)
    lam0 = min(max(lam0, _LAMBDA_BRACKET[0]), _LAMBDA_BRACKET[1])

    trunc = matops.sym((q[:, :r] * w[:r]) @ q[:, :r].T)
    a0 = _top_core_factor(kcd.kcd(trunc, dims, h_kind).c, dims)
    return PicseParams(
        k1bar=k1bar, k2bar=k2bar, nu=nu0, a=a0, lam=lam0, h_kind=h_kind, dims=dims
    )


def fit(data, dims, config=None, initial=None):
    """Alternating minimization (K1bar, K2bar, nu, A, lambda per sweep).

    Returns (params, assembled covariance estimate, trace).  Invalid input
    and shapes past the dense-size limit (CapacityError) are rejected before
    any computation.  Numerical failures mid-fit stop the sweep loop and are
    recorded in the trace, never raised; initialization failures do
    propagate.  `initial` overrides the sample-KCD initialization.
    """
    config = config or FitConfig()
    data = np.asarray(data, dtype=float)
    if data.ndim != 3 or data.shape[1:] != (dims.p1, dims.p2):
        raise ValueError(f"expected (n, {dims.p1}, {dims.p2}) data, got {data.shape}")
    if data.shape[0] < 2:
        raise ValueError("need at least two observations")
    if not np.isfinite(data).all():
        raise ValueError("data contain non-finite values")
    if dims.r is None:
        raise ValueError("fit needs dims with a rank")
    core_geometry.check_dense_size(dims.p, dims.r)
    sample_cov = SampleCov.from_data(data, dims)
    tau = init(sample_cov, dims.r, config.h_kind) if initial is None else initial

    value = nll(tau, sample_cov)
    trace = FitTrace(objectives=[value], step_norms=[], termination="max_iter")
    for _ in range(config.max_iter):
        prev_value = value
        steps = {}
        try:
            for side in (1, 2):
                block = _KBlock(tau, data, side)
                tau, value, steps[block.name] = _block_step(block, sample_cov, value)

            nu_new = update_nu(tau, sample_cov)
            steps["nu"] = abs(nu_new - tau.nu)
            tau = dataclasses.replace(tau, nu=nu_new)
            value = nll(tau, sample_cov)

            block = _ABlock(tau, sample_cov)
            tau, value, steps["a"] = _block_step(block, sample_cov, value)

            lam_new = update_lambda(tau, sample_cov)
            steps["lambda"] = abs(lam_new - tau.lam)
            tau = dataclasses.replace(tau, lam=lam_new)
            value = nll(tau, sample_cov)
        except NUMERICAL_ERRORS:
            trace.termination = "numerical"
            break
        trace.objectives.append(value)
        trace.step_norms.append(steps)
        if abs(prev_value - value) / max(abs(value), 1e-300) < config.tol:
            trace.termination = "converged"
            break
    return tau, sigma_from_params(tau), trace


def kmle_estimator(data, dims):
    """The sample Kronecker MLE assembled as a full covariance."""
    sample_cov = SampleCov.from_data(np.asarray(data, dtype=float), dims)
    return kcd.kronecker_mle(sample_cov.s, dims).matrix


def base_estimator(data, dims, r, h_kind):
    """The initialization plugged straight into the covariance assembly."""
    sample_cov = SampleCov.from_data(np.asarray(data, dtype=float), dims)
    tau = init(sample_cov, r, h_kind)
    return sigma_from_params(tau)

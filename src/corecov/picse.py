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
import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import core_geometry, kcd, matops, spd_geometry
from .errors import NUMERICAL_ERRORS, ConfigError, DefinitenessError, StructureError
from .kcd import SquareRootKind

# Search interval of the shrinkage level lambda; also clamps its initial value.
_LAMBDA_BRACKET = (1e-4, 1.0 - 1e-4)
# Step halvings before a block step gives up on a candidate or on descent.
_MAX_HALVINGS = 30


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

    def validate(self):
        """ValueError unless every entry is finite, K-bar factors have the
        square-root kind's structure and unit determinant, lambda lies in
        (0, 1), nu > 0 and A is a core factor.  The entry and scalar checks
        run before any decomposition."""
        for name in ("k1bar", "k2bar", "a"):
            if not np.isfinite(getattr(self, name)).all():
                raise StructureError(f"{name} has non-finite entries")
        if not (0.0 < self.lam < 1.0):
            raise StructureError(f"lambda {self.lam} outside (0, 1)")
        if not (0.0 < self.nu < np.inf):
            raise StructureError(f"nu {self.nu} is not positive and finite")
        for name in ("k1bar", "k2bar"):
            k = getattr(self, name)
            if self.h_kind is SquareRootKind.CHOLESKY:
                spd_geometry.check_chol_point(k)
            elif np.abs(k - k.T).max() > matops.RESIDUAL_TOL * np.abs(k).max():
                raise StructureError(f"{name} is not symmetric")
            else:
                matops.spd_eigh(k, what=name)
            if abs(np.linalg.det(k) - 1.0) > matops.RESIDUAL_TOL:
                raise StructureError(f"{name} determinant differs from 1")
        core_geometry.check_core_factor(self.a, self.dims)
        return self

    @property
    def kbar(self):
        return matops.kron(self.k2bar, self.k1bar)

    @property
    def ctilde(self):
        """The full-rank core Ctilde = (1-lambda) A A^T + lambda I."""
        return (1.0 - self.lam) * (self.a @ self.a.T) + self.lam * np.eye(self.dims.p)


@dataclass(frozen=True)
class SampleCov:
    """Sample covariance S = (1/n) sum vec(Y_i) vec(Y_i)^T of matrix data."""

    s: np.ndarray
    dims: matops.Dims

    @classmethod
    def from_data(cls, data, dims):
        """ConfigError unless the data are (n, p1, p2), n >= 2, all finite."""
        data = np.asarray(data, dtype=float)
        p1, p2 = dims.p1, dims.p2
        if data.ndim != 3 or data.shape[1:] != (p1, p2):
            raise ConfigError(f"expected (n, {p1}, {p2}) data, got {data.shape}")
        n = data.shape[0]
        if n < 2:
            raise ConfigError("need at least two observations")
        if not np.isfinite(data).all():
            raise ConfigError("data contain non-finite values")
        ymat = matops.vec(data)
        return cls(s=matops.sym(ymat.T @ ymat / n), dims=dims)


@dataclass(frozen=True)
class FitConfig:
    """Settings of the alternating-minimization fit.  tol is finite and
    positive, max_iter an integer (operator.index) of at least 1.  The tol
    and max_iter defaults here are the only ones: simulate.ExperimentConfig
    and the CLI read them from this class."""

    tol: float = 1e-6
    max_iter: int = 200
    h_kind: SquareRootKind = SquareRootKind.SYMMETRIC

    def __post_init__(self):
        # inf would stop every fit after one sweep as converged
        if not 0 < self.tol < np.inf or operator.index(self.max_iter) < 1:
            raise ConfigError("need tol > 0 and max_iter >= 1, with tol finite")
        kcd.check_h_kind(self.h_kind)


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
        self.u_alpha = u * self.alpha
        self.p = a.shape[0]
        self.r = a.shape[1]

    def logdet(self):
        return float(np.sum(np.log(self.d)) + (self.p - self.r) * np.log(self.lam))

    def inv_apply(self, m):
        m = np.asarray(m, dtype=float)
        proj = self.u_alpha @ (self.u.T @ m)
        return (m - (1.0 - self.lam) * proj) / self.lam

    def inv_quad_trace(self, m):
        """tr(M Ctilde^-1) for symmetric M."""
        um = self.u.T @ m @ self.u
        return float(
            (np.trace(m) - (1.0 - self.lam) * np.sum(self.alpha * np.diag(um)))
            / self.lam
        )


class _ParamPoint:
    """A parameter point tau with the pieces that its objective, its
    closed-form updates and the block steps taken from it read, each formed
    at most once, when first read:

      stil   S~ = sym(Kbar^-1 S Kbar^-T), with Kbar = kron(K2bar, K1bar)
      spec   the spectral form of Ctilde(A, lambda)
      trace  tr(S~ Ctilde^-1)

    replace() moves to another point and keeps every formed piece whose
    inputs did not change, so each value keeps the float operations of a
    fresh point.  nll, update_nu and update_lambda are these methods at a
    fresh point.
    """

    # the fields of tau each piece is formed from
    _INPUTS = {
        "stil": {"k1bar", "k2bar"},
        "spec": {"a", "lam"},
        "trace": {"k1bar", "k2bar", "a", "lam"},
    }

    def __init__(self, tau, sample_cov):
        self.tau = tau
        self.sample_cov = sample_cov

    @functools.cached_property
    def stil(self):
        return matops.whiten(self.tau.kbar, self.sample_cov.s)

    @functools.cached_property
    def spec(self):
        return _CtildeSpectral(self.tau.a, self.tau.lam)

    @functools.cached_property
    def trace(self):
        spec = self.spec  # a lambda outside (0, 1) raises before the whitening
        return spec.inv_quad_trace(self.stil)

    def replace(self, **changes):
        """The point dataclasses.replace(tau, **changes), with every formed
        piece that none of the changed fields enters."""
        new = _ParamPoint(dataclasses.replace(self.tau, **changes), self.sample_cov)
        for piece, inputs in self._INPUTS.items():
            if piece in self.__dict__ and not inputs & changes.keys():
                new.__dict__[piece] = self.__dict__[piece]
        return new

    def nll(self):
        tau = self.tau
        tr_term = self.trace / tau.nu**2
        return tr_term + self.spec.logdet() + 2.0 * tau.dims.p * np.log(tau.nu)

    def update_nu(self):
        return float(np.sqrt(self.trace / self.tau.dims.p))

    def update_lambda(self):
        tau, spec = self.tau, self.spec
        lo, hi = _LAMBDA_BRACKET
        m = self.stil / tau.nu**2
        mj = np.einsum("pj,pq,qj->j", spec.u, m, spec.u)
        rest = float(np.trace(m) - mj.sum())
        p, r = tau.dims.p, tau.dims.r

        def objective(lam):
            d = (1.0 - lam) * spec.sig2 + lam
            return float(
                np.sum(mj / d + np.log(d)) + rest / lam + (p - r) * np.log(lam)
            )

        best, value = _fminbound(objective, lo, hi, 1e-8)
        if objective(tau.lam) < value:
            best = tau.lam
        return min(max(best, lo), hi)


def nll(tau, sample_cov):
    """Per-datum negative log-likelihood (additive constants dropped):

    tr(Kbar^-1 S Kbar^-T Ctilde^-1) / nu^2 + log|Ctilde| + 2 p log nu.
    """
    return _ParamPoint(tau, sample_cov).nll()


def sigma_from_params(tau):
    """Assemble nu^2 Kbar ((1-lambda) A A^T + lambda I) Kbar^T."""
    kbar = tau.kbar
    return tau.nu**2 * matops.sym(kbar @ tau.ctilde @ kbar.T)


# ---------------------------------------------------------------------------
# parameter blocks and the decrease-checked Riemannian Newton step
# ---------------------------------------------------------------------------

class _KBlock:
    """K1bar (side 1) or K2bar (side 2) as a parameter block: the likelihood's
    Euclidean gradient and Hessian action in the factor, and its tangent
    space, a spd_geometry.UnitDetTangentSpace under the h_kind's metric.

    The Euclidean gradient and Hessian of the likelihood share one pattern for
    both sides once the whitened observations are transposed: side 1 works
    with Z_i = K1bar^-1 Y_i K2bar^-T and slices U_j of the top left singular
    vectors of A; side 2 with their transposes.
    """

    def __init__(self, base, data, side):
        self.base, tau = base, base.tau
        self.name = "k1bar" if side == 1 else "k2bar"
        point = getattr(tau, self.name)
        cholesky = tau.h_kind is SquareRootKind.CHOLESKY
        self.space = spd_geometry.UnitDetTangentSpace(point, cholesky)

        dims = tau.dims
        data = np.asarray(data, dtype=float)
        n = data.shape[0]
        # Z_i = K1bar^-1 Y_i K2bar^-T, batched over observations.
        z = np.linalg.solve(tau.k1bar, data.transpose(1, 0, 2).reshape(dims.p1, -1))
        z = z.reshape(dims.p1, n, dims.p2).transpose(1, 0, 2)
        z = np.linalg.solve(tau.k2bar, z.transpose(0, 2, 1)).transpose(0, 2, 1)

        spec = base.spec
        # contiguous: einsum's summation order, so its rounding, follows layout
        umats = np.ascontiguousarray(core_geometry.slices(spec.u, dims))
        if side == 2:
            z, umats = z.transpose(0, 2, 1), umats.transpose(0, 2, 1)
        self.e, self.umats = z, umats
        self.alpha = spec.alpha
        self.kb_inv = np.linalg.inv(point)
        self.q_mat = np.einsum("nab,ncb->ac", self.e, self.e)
        # V-free factors of grad() and hess(): K^-T K^-1, K^-T Q and K^-T U_j
        ki_t = self.kb_inv.T
        self.kk, self.kq = ki_t @ self.kb_inv, ki_t @ self.q_mat
        self.ku = np.einsum("ab,jbc->jac", ki_t, self.umats)
        # t[j, i] = trace of the cross-term W_{side,i,j}
        self.t = np.einsum("jab,nab->jn", self.umats, self.e)
        # G[j] = sum_i t[j, i] E_i
        self.g_acc = np.einsum("jn,nab->jab", self.t, self.e)
        self.c0 = 2.0 / (n * tau.lam * tau.nu**2)
        self.c1 = 2.0 * (1.0 - tau.lam) / (n * tau.lam * tau.nu**2)
        self.egrad = self.grad()

    def grad(self):
        """Euclidean gradient of the likelihood in the factor."""
        f = self.space.part
        cross = np.einsum(
            "j,jab->ab",
            self.alpha,
            np.einsum("ab,jbc,jdc->jad", self.kb_inv.T, self.umats, self.g_acc),
        )
        return -self.c0 * f(self.kq) + self.c1 * f(cross)

    def hess(self, v):
        """Euclidean Hessian of the likelihood in the factor, applied to V.

        A (k, q, q) stack of V gives the stack of actions, each with the bits
        of its own call; each matops.chunks chunk builds a (k, n, q, q') temporary.
        """
        v = np.asarray(v, dtype=float)
        pieces = matops.chunks(len(v), self.e.nbytes) if v.ndim == 3 else []
        if len(pieces) > 1:
            return np.concatenate([self.hess(v[rows]) for rows in pieces])
        ki, ki_t, f = self.kb_inv, self.kb_inv.T, self.space.part
        vt = v.swapaxes(-1, -2)
        kvt = ki_t @ vt  # K^-T V^T, shared by term1 and part_a
        term1 = self.c0 * f(
            kvt @ ki_t @ self.q_mat
            + self.kq @ vt @ ki_t
            + self.kk @ v @ self.q_mat
        )
        kv = ki @ v
        s = np.einsum(
            "jab,...nab->...jn", self.umats, np.einsum("...ab,nbc->...nac", kv, self.e)
        )
        h_acc = np.einsum("...jn,nab->...jab", s, self.e)
        term2 = -self.c1 * f(
            np.einsum(
                "j,...jab->...ab",
                self.alpha,
                np.einsum("ab,jbc,...jdc->...jad", ki_t, self.umats, h_acc),
            )
        )
        part_a = np.einsum("...ab,jbc,jdc->...jad", kvt, self.ku, self.g_acc)
        kvg = np.einsum("...ab,jbc->...jac", kv, self.g_acc)
        part_b = np.einsum("jab,...jcb->...jac", self.ku, kvg)
        term3 = -self.c1 * f(
            np.einsum("j,...jab->...ab", self.alpha, part_a + part_b)
        )
        return term1 + term2 + term3

    def retract(self, v):
        return self.base.replace(**{self.name: self.space.exp(v)})


class _ABlock:
    """The core factor A as a parameter block: the likelihood's Euclidean
    gradient and Hessian action in A, its tangent space N(J(A)) (a
    core_geometry.RankTangentSpace) and the eigen-truncated core retraction."""

    def __init__(self, base):
        self.base, tau = base, base.tau
        self.spec = base.spec
        self.stil = base.stil / tau.nu**2
        self.space = core_geometry.RankTangentSpace(tau.a, tau.dims)
        # V-free factors of grad() and hess(): Ctilde^-1 A, Ctilde^-1 S~ Ctilde^-1 A
        self.ia = self.spec.inv_apply(tau.a)
        self.isia = self.spec.inv_apply(self.stil @ self.ia)
        self.egrad = self.grad()

    def grad(self):
        """Euclidean gradient of the likelihood in A."""
        return -2.0 * (1.0 - self.base.tau.lam) * (self.isia - self.ia)

    def hess(self, v):
        """Euclidean Hessian of the likelihood in A, applied to V.  A
        (k, p, r) stack of V gives the stack of actions, each with the bits
        of its own call."""
        inv = self.spec.inv_apply
        a, lam = self.base.tau.a, self.base.tau.lam
        v = np.asarray(v, dtype=float)
        p_mat = a @ v.swapaxes(-1, -2) + v @ a.T
        iv, ipia = inv(v), inv(p_mat @ self.ia)
        out = -2.0 * (1.0 - lam) * inv(self.stil @ iv)
        out += 2.0 * (1.0 - lam) * iv
        out += 2.0 * (1.0 - lam) ** 2 * inv(p_mat @ self.isia)
        out += 2.0 * (1.0 - lam) ** 2 * inv(self.stil @ ipia)
        out -= 2.0 * (1.0 - lam) ** 2 * ipia
        return out

    def retract(self, v):
        tau = self.base.tau
        return self.base.replace(a=retract_core_factor(tau.a, v, tau.dims))


def _newton_coeffs(h_mat, g_vec):
    """Least-squares solution of sym(H) c = -g.  Overwrites h_mat with the bits of
    matops.sym(h_mat) one row panel at a time, so sym(H) takes no second m x m matrix."""
    for rows in matops.chunks(len(h_mat), h_mat[0].nbytes):
        half = h_mat[rows, rows.start:] + h_mat[rows.start:, rows].T
        half /= 2.0
        h_mat[rows, rows.start:], h_mat[rows.start:, rows] = half, half.T
    coef, *_ = np.linalg.lstsq(h_mat, -g_vec, rcond=None)
    return coef


def _block_step(block, current):
    """One decrease-checked Riemannian Newton step in one parameter block.

    Tries the Newton direction -Hess^+[grad] first, then steepest descent
    -2^-e grad, and takes the first step whose retraction does not raise the
    objective above `current`, its value at the block's base point.  A step
    whose retraction raises is halved (Newton at most _MAX_HALVINGS times,
    descent up to e = 2 _MAX_HALVINGS); so is a descent step that fails the
    decrease check while e < _MAX_HALVINGS, and no step is tried twice.
    Returns (point, nll, step_norm), the norm of the tangent retracted, at the
    base point; when the gradient vanishes or nothing helps, the point is the
    block's base point and the norm is 0.
    """
    space = block.space
    rgrad, g_coef, h_mat = space.newton_system(block.egrad, block.hess)
    if np.linalg.norm(g_coef) < 1e-13:
        return block.base, current, 0.0
    v_newton = space.tangent(_newton_coeffs(h_mat, g_coef))
    # (first step, last e, a failed decrease check halves it while e < this)
    ladders = [(-rgrad, 2 * _MAX_HALVINGS, _MAX_HALVINGS)]
    if np.isfinite(v_newton).all():
        ladders.insert(0, (v_newton, _MAX_HALVINGS, 0))
    for v, last, retry_below in ladders:
        for e in range(last + 1):
            step = v / 2.0**e
            try:
                cand = block.retract(step)
            except NUMERICAL_ERRORS:
                continue
            try:
                value = cand.nll()
            except NUMERICAL_ERRORS:
                value = np.nan
            if np.isfinite(value) and value <= current:
                return cand, value, space.norm(step)
            if e >= retry_below:
                break
    return block.base, current, 0.0


def retract_core_factor(a, v, dims):
    """Eigen-truncated core retraction of Eq.-style step D = AA^T + AV^T + VA^T.

    The core component of D is recomputed (restoring exact partial traces),
    its top-r eigenpairs give the new factor, and the factor is re-balanced
    onto the constraint set.  An infeasible step (top-r spectrum not
    positive) raises one of NUMERICAL_ERRORS.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    d = matops.sym(a @ a.T + a @ v.T + v @ a.T)
    sep = kcd.kronecker_mle(d, dims, psd_check=False)
    dbar = matops.whiten(sep.h_matrix(SquareRootKind.SYMMETRIC), d)
    return _top_core_factor(dbar, dims)


def _top_core_factor(core, dims):
    """Balanced core factor from the top-r eigenpairs of a core matrix."""
    w, q = _top_eigenpairs(core, dims.r, "core")
    return core_geometry.balance_core_factor(q * np.sqrt(w), dims)


def _top_eigenpairs(core, r, what):
    """The top-r eigenpairs (w, q) of a core matrix, in decreasing order;
    StructureError unless the r-th eigenvalue exceeds PD_RTOL times the
    largest."""
    w, q = np.linalg.eigh(core)
    w = w[::-1][:r]
    q = q[:, ::-1][:, :r]
    if not w[-1] > matops.PD_RTOL * max(w[0], 1e-300):
        raise StructureError(f"{what} has rank below r={r}")
    return w, q


# ---------------------------------------------------------------------------
# coordinate updates with closed forms
# ---------------------------------------------------------------------------

def update_nu(tau, sample_cov):
    """Exact minimizer nu = sqrt(tr(Kbar^-1 S Kbar^-T Ctilde^-1) / p)."""
    return _ParamPoint(tau, sample_cov).update_nu()


def update_lambda(tau, sample_cov):
    """Bounded scalar minimization of the likelihood in lambda: Brent's
    bounded minimizer `_fminbound` over _LAMBDA_BRACKET with xatol = 1e-8.

    The spectral form of Ctilde reduces each probe to O(p): with m_j the
    whitened data energy along the j-th left singular vector of A, the objective
    is sum_j [m_j/d_j + log d_j] over the spiked block plus the isotropic rest.
    """
    return _ParamPoint(tau, sample_cov).update_lambda()


def _fminbound(f, a, b, xatol):
    """(x, f(x)) at a minimum of the scalar f on [a, b]: Brent's bounded
    minimizer (Brent 1973, Algorithms for Minimization Without Derivatives,
    ch. 5), at most 500 evaluations.  A port of `_minimize_scalar_bounded`
    of scipy 1.17.1 (BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc.
    2003, SciPy Developers) operation for operation, numpy scalar semantics
    included: the probes and x of minimize_scalar(f, bounds=(a, b),
    method="bounded", options={"xatol": xatol}), bit for bit."""
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    # xf: the best point so far; nfc, fulc: the second and third best
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500 or not np.abs(xf - xm) > tol2 - 0.5 * (b - a):
            return float(xf), fx
        golden = True
        if np.abs(e) > tol1:  # try the parabola through the three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r, e = e, rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


# ---------------------------------------------------------------------------
# initialization, fitting, and baselines
# ---------------------------------------------------------------------------

def check_rank(dims):
    """ConfigError unless dims carry a rank r < p: at r = p the isotropic block
    is empty, so lambda is not identified."""
    if dims.r is None or dims.r >= dims.p:
        raise ConfigError(f"PICSE needs a rank r < p = {dims.p}, got r = {dims.r}")


def init(sample_cov, h_kind):
    """Initialization from the sample Kronecker-core decomposition.

    K-bar factors and nu come from the determinant-normalized square-root
    factors of the sample Kronecker MLE; lambda from the trailing eigenvalue
    mass of the sample core (clamped into the bracket); A from the top-r
    eigenpairs of the core of the best rank-r approximation of the sample
    core, re-balanced onto the constraint set.  The rank is sample_cov.dims.r.
    """
    dims, r = sample_cov.dims, sample_cov.dims.r
    check_rank(dims)
    dec = kcd.kcd(sample_cov.s, dims, h_kind)
    h1, h2 = dec.k.sqrt_factors(h_kind)
    det1, det2 = matops.det_root(h1), matops.det_root(h2)
    k1bar = h1 / det1
    k2bar = h2 / det2
    nu0 = float(det1 * det2)

    w, q = _top_eigenpairs(dec.c, r, "sample core")
    lam0 = (dims.p - float(w.sum())) / (dims.p - r)
    lam0 = min(max(lam0, _LAMBDA_BRACKET[0]), _LAMBDA_BRACKET[1])

    trunc = matops.sym((q * w) @ q.T)
    a0 = _top_core_factor(kcd.kcd(trunc, dims, h_kind).c, dims)
    return PicseParams(
        k1bar=k1bar, k2bar=k2bar, nu=nu0, a=a0, lam=lam0, h_kind=h_kind, dims=dims
    )


def fit(data, dims, config=None, initial=None):
    """Alternating minimization (K1bar, K2bar, nu, A, lambda per sweep).

    Returns (params, assembled covariance estimate, trace).  Invalid input
    and shapes past the dense-size limit (CapacityError) are rejected before
    the initialization or the objective runs.  Numerical failures mid-fit
    stop the sweep loop and are recorded in the trace, never raised;
    initialization failures do propagate.  `initial` overrides the sample-KCD
    initialization; it must have these dims and h_kind, and pass validate().
    """
    config = config or FitConfig()
    sample_cov = SampleCov.from_data(data, dims)
    check_rank(dims)
    core_geometry.check_dense_size(dims.p, dims.r)
    if initial is not None:
        if initial.dims != dims or initial.h_kind is not config.h_kind:
            raise ConfigError("initial parameters differ from the fit in dims or h_kind")
        try:
            initial.validate()
        except ValueError as exc:
            raise ConfigError(f"invalid initial parameters: {exc}") from exc
    tau = init(sample_cov, config.h_kind) if initial is None else initial

    # each update reads the pieces its predecessor formed (_ParamPoint)
    point = _ParamPoint(tau, sample_cov)
    value = point.nll()
    trace = FitTrace(objectives=[value], step_norms=[], termination="max_iter")
    for _ in range(config.max_iter):
        prev_value = value
        steps = {}
        try:
            for side in (1, 2):
                block = _KBlock(point, data, side)
                point, value, steps[block.name] = _block_step(block, value)

            nu_new = point.update_nu()
            steps["nu"] = abs(nu_new - point.tau.nu)
            point = point.replace(nu=nu_new)
            value = point.nll()

            point, value, steps["a"] = _block_step(_ABlock(point), value)

            lam_new = point.update_lambda()
            steps["lambda"] = abs(lam_new - point.tau.lam)
            point = point.replace(lam=lam_new)
            value = point.nll()
        except NUMERICAL_ERRORS:
            trace.termination = "numerical"
            break
        trace.objectives.append(value)
        trace.step_norms.append(steps)
        if abs(prev_value - value) / max(abs(value), 1e-300) < config.tol:
            trace.termination = "converged"
            break
    return point.tau, sigma_from_params(point.tau), trace


def kmle_estimator(data, dims):
    """The sample Kronecker MLE assembled as a full covariance."""
    sample_cov = SampleCov.from_data(data, dims)
    return kcd.kronecker_mle(sample_cov.s, dims).matrix


def base_estimator(data, dims, h_kind):
    """The initialization plugged straight into the covariance assembly."""
    sample_cov = SampleCov.from_data(data, dims)
    tau = init(sample_cov, h_kind)
    return sigma_from_params(tau)

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.special
from hypothesis import given, settings, strategies as st

from corecov import core_geometry as cg, kcd, matops, picse, simulate
from corecov import spd_geometry as sg
from corecov.errors import NUMERICAL_ERRORS, CapacityError, ConfigError, DefinitenessError
from corecov.errors import NoKroneckerMle, StructureError
from corecov.kcd import SquareRootKind
from corecov.picse import FitConfig, PicseParams, SampleCov

from conftest import rand_lower, rand_spd, rand_sym

DIMS = matops.Dims(3, 2, 3)


def make_tau(kind, seed, lam=0.35, nu=1.3, dims=DIMS):
    rng = np.random.default_rng(seed)
    k1 = rand_spd(dims.p1, rng)
    k2 = rand_spd(dims.p2, rng)
    if kind is SquareRootKind.CHOLESKY:
        k1 = np.linalg.cholesky(k1)
        k2 = np.linalg.cholesky(k2)
    k1 = k1 / np.linalg.det(k1) ** (1.0 / dims.p1)
    k2 = k2 / np.linalg.det(k2) ** (1.0 / dims.p2)
    a = cg.random_core_factor(dims, seed=seed + 1)
    return PicseParams(k1bar=k1, k2bar=k2, nu=nu, a=a, lam=lam, h_kind=kind, dims=dims)


def make_data(seed, n=8, dims=DIMS):
    return np.random.default_rng(seed).standard_normal((n, dims.p1, dims.p2))


def a_block(tau, sc):
    return picse._ABlock(picse._ParamPoint(tau, sc))


def k_block(tau, data, side):
    base = picse._ParamPoint(tau, SampleCov.from_data(data, tau.dims))
    return picse._KBlock(base, data, side)


def calc_for(theta, tau, data):
    if theta == "a":
        return a_block(tau, SampleCov.from_data(data, tau.dims))
    return k_block(tau, data, 1 if theta == "k1bar" else 2)


def newton_system(block):
    """The block's Newton system, as _block_step forms it."""
    return block.space.newton_system(block.egrad, block.hess)


def block_step(block):
    """_block_step from the block's base point, as (tau, value, step norm)."""
    point, value, step = picse._block_step(block, block.base.nll())
    return point.tau, value, step


def tangent_for(theta, tau, seed):
    rng = np.random.default_rng(seed)
    if theta == "a":
        space = cg.RankTangentSpace(tau.a, tau.dims)
        return space.tangent(rng.standard_normal(space.basis.shape[1]))
    q = tau.dims.p1 if theta == "k1bar" else tau.dims.p2
    if tau.h_kind is SquareRootKind.CHOLESKY:
        return rand_lower(q, rng)
    return rand_sym(q, rng)


class TestSampleCov:
    def test_matches_vec_row_products(self):
        dims = matops.Dims(3, 2)
        data = np.random.default_rng(8).standard_normal((7, 3, 2))
        ymat = np.stack([matops.vec(y) for y in data])
        expected = matops.sym(ymat.T @ ymat / 7)
        np.testing.assert_array_equal(SampleCov.from_data(data, dims).s, expected)


class TestValidate:
    def test_kbar_structure_follows_h_kind(self):
        dims = matops.Dims(4, 3, 3)
        sym = make_tau(SquareRootKind.SYMMETRIC, 64, dims=dims).validate()
        chol = make_tau(SquareRootKind.CHOLESKY, 64, dims=dims).validate()
        not_pd = np.diag([-1.0, -1.0, 1.0, 1.0])  # symmetric, determinant 1
        bad = [
            dataclasses.replace(sym, h_kind=SquareRootKind.CHOLESKY),
            dataclasses.replace(chol, h_kind=SquareRootKind.SYMMETRIC),
            dataclasses.replace(sym, k1bar=not_pd),
        ]
        for tau in bad:
            with pytest.raises(ValueError):
                tau.validate()

    def test_non_finite_entries_rejected(self):
        # nu = nan passed (nan <= 0 is false) and nu = inf made a fit start at
        # +inf; non-finite K-bar or A entries reached eigh and the SVD
        tau = make_tau(SquareRootKind.SYMMETRIC, 64, dims=matops.Dims(4, 3, 3))
        for field in ("nu", "k1bar", "k2bar", "a"):
            for bad in (np.nan, np.inf):
                value = bad
                if field != "nu":
                    value = getattr(tau, field).copy()
                    value[1, 0] = bad
                with pytest.raises(StructureError, match=f"^{field} "):
                    dataclasses.replace(tau, **{field: value}).validate()

    def test_symmetric_root_runs_the_spd_point_check(self, monkeypatch):
        # the check the affine-invariant tangent space runs, once per factor
        tau = make_tau(SquareRootKind.SYMMETRIC, 64, dims=matops.Dims(4, 3, 3))
        calls = []
        check = sg.check_spd_point
        monkeypatch.setattr(sg, "check_spd_point", lambda k: calls.append(k) or check(k))
        tau.validate()
        assert [id(k) for k in calls] == [id(tau.k1bar), id(tau.k2bar)]
        k1 = tau.k1bar.copy()
        k1[0, 1] += 1e-6
        # the check's errors name the factor
        with pytest.raises(ConfigError, match="^k1bar: .* not symmetric"):
            dataclasses.replace(tau, k1bar=k1).validate()

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.5, np.nan])
    def test_lambda_outside_unit_interval_rejected(self, lam):
        tau = make_tau(SquareRootKind.SYMMETRIC, 64, dims=matops.Dims(4, 3, 3))
        with pytest.raises(StructureError, match="^lambda "):
            dataclasses.replace(tau, lam=lam).validate()


class TestNll:
    def test_perfect_fit_value(self):
        tau = make_tau(SquareRootKind.SYMMETRIC, 1)
        tau = dataclasses.replace(tau, k1bar=np.eye(3), k2bar=np.eye(2), nu=1.0)
        ctil = (1 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(6)
        sc = SampleCov(s=ctil, dims=DIMS)
        expect = 6.0 + np.linalg.slogdet(ctil)[1]
        assert abs(picse.nll(tau, sc) - expect) < 1e-10

    def test_degenerate_sample(self):
        tau = make_tau(SquareRootKind.SYMMETRIC, 2)
        sc = SampleCov(s=np.zeros((6, 6)), dims=DIMS)
        ctil = (1 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(6)
        expect = np.linalg.slogdet(ctil)[1] + 12.0 * np.log(tau.nu)
        assert abs(picse.nll(tau, sc) - expect) < 1e-10

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_woodbury_matches_dense(self, kind):
        tau = make_tau(kind, 3)
        sc = SampleCov.from_data(make_data(4), DIMS)
        kbar = tau.kbar
        ctil = (1 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(6)
        ki = np.linalg.inv(kbar)
        dense = (
            np.trace(ki @ sc.s @ ki.T @ np.linalg.inv(ctil)) / tau.nu**2
            + np.linalg.slogdet(ctil)[1]
            + 12.0 * np.log(tau.nu)
        )
        assert abs(picse.nll(tau, sc) - dense) < 1e-10

    def test_rejects_bad_lambda(self):
        tau = make_tau(SquareRootKind.SYMMETRIC, 5)
        sc = SampleCov.from_data(make_data(6), DIMS)
        with pytest.raises(DefinitenessError):
            picse.nll(dataclasses.replace(tau, lam=-0.1), sc)


class TestEuclidCalculus:
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("theta", ["k1bar", "k2bar", "a"])
    def test_gradient_matches_fd(self, kind, theta):
        tau = make_tau(kind, 11)
        data = make_data(12)
        sc = SampleCov.from_data(data, DIMS)
        if theta == "a":
            # the Euclidean derivative holds in the full ambient direction
            v = np.random.default_rng(13).standard_normal((6, 3))
        else:
            v = tangent_for(theta, tau, 13)
        eg = calc_for(theta, tau, data).grad()
        eps = 1e-5
        taup = dataclasses.replace(tau, **{theta_attr(theta): base_of(tau, theta) + eps * v})
        taum = dataclasses.replace(tau, **{theta_attr(theta): base_of(tau, theta) - eps * v})
        fd = (picse.nll(taup, sc) - picse.nll(taum, sc)) / (2 * eps)
        assert abs(fd - float(np.sum(eg * v))) < 1e-4

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("theta", ["k1bar", "k2bar", "a"])
    def test_hessian_matches_fd_of_gradient(self, kind, theta):
        tau = make_tau(kind, 21)
        data = make_data(22)
        v = tangent_for(theta, tau, 23)
        if theta == "a":
            v = np.random.default_rng(23).standard_normal((6, 3))
        ehv = calc_for(theta, tau, data).hess(v)
        eps = 1e-5
        egp = calc_for(
            theta, dataclasses.replace(tau, **{theta_attr(theta): base_of(tau, theta) + eps * v}), data
        ).grad()
        egm = calc_for(
            theta, dataclasses.replace(tau, **{theta_attr(theta): base_of(tau, theta) - eps * v}), data
        ).grad()
        assert np.abs((egp - egm) / (2 * eps) - ehv).max() < 1e-4

    def test_a_gradient_stationary_at_truth(self):
        tau = make_tau(SquareRootKind.SYMMETRIC, 31)
        ctil = (1 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(6)
        s = tau.nu**2 * tau.kbar @ ctil @ tau.kbar.T
        sc = SampleCov(s=matops.sym(s), dims=DIMS)
        assert np.abs(a_block(tau, sc).grad()).max() < 1e-12


def theta_attr(theta):
    return {"k1bar": "k1bar", "k2bar": "k2bar", "a": "a"}[theta]


def base_of(tau, theta):
    return getattr(tau, theta_attr(theta))


class TestABlockMatchesOperator:
    @pytest.mark.parametrize(
        "dims", [matops.Dims(3, 2, 3), matops.Dims(4, 3, 5), matops.Dims(12, 10, 6)])
    def test_gradient_and_hessian_columns(self, dims):
        # the fitter's Riemannian gradient and Hessian matrix are the fixed-rank
        # operator of a tangent space built afresh at A, in the block's basis
        tau = make_tau(SquareRootKind.SYMMETRIC, 45, dims=dims)
        sc = SampleCov.from_data(make_data(46, n=10, dims=dims), dims)
        block = a_block(tau, sc)
        basis = block.space.basis
        rgrad, _, h_mat = newton_system(block)
        space = cg.RankTangentSpace(tau.a, dims)
        w = space.normal_weights(block.egrad)
        for i in range(basis.shape[1]):
            v = basis[:, i].reshape(tau.a.shape, order="F")
            rh = space.tangent(space.hess_coords(block.hess(v), v, w))
            assert np.abs(h_mat[:, i] - basis.T @ matops.vec(rh)).max() < 1e-10
        rg = space.tangent(space.coords(matops.vec(block.egrad)))
        assert np.abs(rgrad - rg).max() < 1e-10


class TestKBlockMatchesOperator:
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("dims", [matops.Dims(4, 3, 3), matops.Dims(6, 4, 3)])
    def test_derivatives_match_scalar_calls(self, kind, dims, monkeypatch):
        # the space's newton_system batches over the basis, under the default
        # budget and in chunks of 1 and 2 rows of the metric matrix; each entry
        # keeps the bits of the scalar operator calls made one basis pair at a
        # time, each with the Hessian action of one basis element
        if kind is SquareRootKind.CHOLESKY:
            inner, grad_hess, proj = sg.chol_inner, sg.chol_grad_hess, sg.proj_unitdet_chol
        else:
            inner, grad_hess, proj = sg.ai_inner, sg.ai_grad_hess, sg.proj_unitdet_spd
        tau = make_tau(kind, 47, dims=dims)
        data = make_data(48, n=10, dims=dims)
        default = matops.STACK_BYTES
        for side, rows in itertools.product((1, 2), (None, 1, 2)):
            block = k_block(tau, data, side)
            space = block.space
            budget = default if rows is None else rows * space.basis.nbytes
            monkeypatch.setattr(matops, "STACK_BYTES", budget)
            x = space.point
            assert x is getattr(tau, "k1bar" if side == 1 else "k2bar")
            q = x.shape[0]
            assert space.basis.shape == (q * (q + 1) // 2 - 1, q, q)
            rgrad, g_coef, h_mat = newton_system(block)
            zero = np.zeros_like(x)
            g = proj(x, grad_hess(x, block.egrad, zero, zero)[0])
            assert np.array_equal(rgrad, g)
            assert np.array_equal(g_coef, [inner(x, g, b) for b in space.basis])
            # the stacked actions are the scalar calls' bits where the basis
            # fits one chunk of the hess temporary (the default budget), and
            # the moment form's otherwise (the row budgets)
            images = block.hess(space.basis)
            if rows is None:
                assert len(matops.chunks(len(space.basis), block.e.nbytes)) == 1
                assert all(np.array_equal(h, block.hess(b)) for h, b in zip(images, space.basis))
            else:
                assert_hess_close(block, images, space.basis)
            for i, b in enumerate(space.basis):
                h = proj(x, grad_hess(x, block.egrad, images[i], b)[1])
                assert np.array_equal(h_mat[i], [inner(x, h, c) for c in space.basis])


class TestKBlockInverse:
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("shape", [(4, 3, 3), (12, 10, 6)])
    def test_one_inverse_per_point(self, kind, shape, monkeypatch):
        # a K block and its step invert the block's point twice under the
        # symmetric root (the space's inverse and ai_unitdet_basis's Gram-Schmidt)
        # and once under Cholesky; the blocks read the space's inverse
        dims = matops.Dims(*shape)
        tau = make_tau(kind, 49, dims=dims)
        data = make_data(50, n=2 * dims.p, dims=dims)
        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inverted.append(m.tobytes()) or inv(m))
        for side in (1, 2):
            point = getattr(tau, "k1bar" if side == 1 else "k2bar")
            inverted.clear()
            block = k_block(tau, data, side)
            block_step(block)
            limit = 1 if kind is SquareRootKind.CHOLESKY else 2
            assert inverted.count(point.tobytes()) <= limit
            assert block.space.inverse.tobytes() == inv(point).tobytes()


def a_grad_reference(block):
    """_ABlock.grad as its formula reads, every Ctilde^-1 applied in place."""
    inv, lam = block.spec.inv_apply, block.base.tau.lam
    x1 = inv(block.base.tau.a)
    return -2.0 * (1.0 - lam) * (inv(block.stil @ x1) - x1)


def a_hess_reference(block, v):
    """_ABlock.hess as its formula reads, every Ctilde^-1 applied in place."""
    inv, a, lam = block.spec.inv_apply, block.base.tau.a, block.base.tau.lam
    p_mat = a @ v.T + v @ a.T
    ia = inv(a)
    isia = inv(block.stil @ ia)
    out = -2.0 * (1.0 - lam) * inv(block.stil @ inv(v))
    out += 2.0 * (1.0 - lam) * inv(v)
    out += 2.0 * (1.0 - lam) ** 2 * inv(p_mat @ isia)
    out += 2.0 * (1.0 - lam) ** 2 * inv(block.stil @ inv(p_mat @ ia))
    out -= 2.0 * (1.0 - lam) ** 2 * inv(p_mat @ ia)
    return out


def k_grad_reference(block):
    """_KBlock.grad as its formula reads."""
    ki_t = block.space.inverse.T
    cross = np.einsum(
        "j,jab->ab",
        block.alpha,
        np.einsum("ab,jbc,jdc->jad", ki_t, block.umats, block.g_acc),
    )
    f = block.space.part
    return -block.c0 * f(ki_t @ block.q_mat) + block.c1 * f(cross)


def k_hess_reference(block, v):
    """_KBlock.hess as its formula reads, every K^-1 product formed in place."""
    ki = block.space.inverse
    ki_t, f, alpha = ki.T, block.space.part, block.alpha
    term1 = block.c0 * f(
        ki_t @ v.T @ ki_t @ block.q_mat
        + ki_t @ block.q_mat @ v.T @ ki_t
        + ki_t @ ki @ v @ block.q_mat
    )
    kv = ki @ v
    s = np.einsum("jab,nab->jn", block.umats, np.einsum("ab,nbc->nac", kv, block.e))
    h_acc = np.einsum("jn,nab->jab", s, block.e)
    term2 = -block.c1 * f(np.einsum(
        "j,jab->ab", alpha, np.einsum("ab,jbc,jdc->jad", ki_t, block.umats, h_acc)
    ))
    ku = np.einsum("ab,jbc->jac", ki_t, block.umats)
    part_a = np.einsum("ab,jbc,jdc->jad", ki_t @ v.T, ku, block.g_acc)
    part_b = np.einsum("jab,jcb->jac", ku, np.einsum("ab,jbc->jac", kv, block.g_acc))
    term3 = -block.c1 * f(np.einsum("j,jab->ab", alpha, part_a + part_b))
    return term1 + term2 + term3


def assert_hess_close(block, stacked, basis):
    """Each action of a stack within 1e-12 (relative to its largest entry)
    of k_hess_reference."""
    for h, b in zip(stacked, basis, strict=True):
        want = k_hess_reference(block, b)
        assert np.abs(h - want).max() <= 1e-12 * np.abs(want).max()


def a_hess_matrix_reference(block):
    """The A block's Hessian matrix, one column per hess_coords call."""
    space = block.space
    w = space.normal_weights(block.egrad)
    cols = []
    for i in range(space.basis.shape[1]):
        v = space.basis[:, i].reshape(block.base.tau.a.shape, order="F")
        cols.append(space.hess_coords(block.hess(v), v, w))
    return np.array(cols).T


BLOCK_DIMS = [matops.Dims(4, 3, 3), matops.Dims(6, 4, 3), matops.Dims(3, 5, 4)]


class TestBlockDerivativeBits:
    # the blocks form their base-point factors once and take stacks of basis
    # elements; every gradient and Hessian column keeps the bits of the
    # formulas evaluated in place, one basis element at a time
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("dims", [matops.Dims(4, 3, 3), matops.Dims(6, 4, 3)])
    def test_a_block(self, kind, dims):
        tau = make_tau(kind, 49, dims=dims)
        sc = SampleCov.from_data(make_data(50, n=10, dims=dims), dims)
        block = a_block(tau, sc)
        assert block.grad().tobytes() == a_grad_reference(block).tobytes()
        assert block.egrad.tobytes() == a_grad_reference(block).tobytes()
        for i in range(block.space.basis.shape[1]):
            v = block.space.basis[:, i].reshape(tau.a.shape, order="F")
            assert block.hess(v).tobytes() == a_hess_reference(block, v).tobytes()

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("dims", BLOCK_DIMS)
    def test_k_blocks(self, kind, dims, monkeypatch):
        # under the default budget the whole basis fits one matops.chunks chunk
        # of hess's (n, q, q') temporary and keeps the bits of the reference;
        # under chunks of 1 to 3 elements (at least one size ragged) it takes
        # the moment form, to 1e-12 of the reference
        tau = make_tau(kind, 51, dims=dims)
        data = make_data(52, n=10, dims=dims)
        default, sizes = matops.STACK_BYTES, (1, 2, 3)
        for side in (1, 2):
            block = k_block(tau, data, side)
            assert block.egrad.tobytes() == k_grad_reference(block).tobytes()
            basis, e_bytes = block.space.basis, block.e.nbytes
            expected = [k_hess_reference(block, b).tobytes() for b in basis]
            assert any(len(basis) % size for size in sizes)
            for budget in (default, *(size * e_bytes for size in sizes)):
                monkeypatch.setattr(matops, "STACK_BYTES", budget)
                stacked = block.hess(basis)
                assert stacked.shape == basis.shape
                if budget == default:
                    assert len(matops.chunks(len(basis), e_bytes)) == 1
                    assert [h.tobytes() for h in stacked] == expected
                else:
                    assert_hess_close(block, stacked, basis)
            assert len(matops.chunks(len(basis), e_bytes)) == -(-len(basis) // 3)

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("shape, n", [((12, 10, 6), 240), ((8, 8, 5), 128)])
    def test_k_moment_form(self, kind, shape, n, monkeypatch):
        # fit-large's shape and the CI fit's: under the default budget the
        # whole basis takes the moment form, and the observations never enter
        dims = matops.Dims(*shape)
        tau = make_tau(kind, 53, dims=dims)
        data = make_data(54, n=n, dims=dims)

        def no_sample_sums(*args):
            raise AssertionError("hess went through the observations")

        monkeypatch.setattr(picse._KBlock, "_sample_sums", no_sample_sums)
        for side in (1, 2):
            block = k_block(tau, data, side)
            basis = block.space.basis
            assert len(matops.chunks(len(basis), block.e.nbytes)) > 1
            assert_hess_close(block, block.hess(basis), basis)

    @pytest.mark.parametrize("shape, n", [((12, 10, 6), 240), ((8, 8, 5), 128)])
    def test_peaks_past_the_stack_budget(self, shape, n):
        # the forms that run past the budget in one piece cannot set a fit's
        # peak: the A step's residuals take the bytes of its basis B, and the
        # K-bar moment temporaries under half the (p r)^2 doubles of the
        # SVD of J(A) that B is a view of
        dims = matops.Dims(*shape)
        data = make_data(57, n=n, dims=dims)
        sc = SampleCov.from_data(data, dims)
        base = picse._ParamPoint(picse.init(sc, SquareRootKind.SYMMETRIC), sc)

        def traced_peak(f, *args):
            tracemalloc.start()
            try:
                f(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        block = picse._ABlock(base)
        assert block.space.j.nbytes > matops.STACK_BYTES
        peak = traced_peak(block.space.newton_system, block.egrad, block.hess)
        assert peak <= 2 * block.space.basis.nbytes
        for side in (1, 2):
            block = picse._KBlock(base, data, side)
            basis = block.space.basis
            assert len(matops.chunks(len(basis), block.e.nbytes)) > 1
            assert traced_peak(block.hess, basis) <= 0.6 * (dims.p * dims.r) ** 2 * 8

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("dims", BLOCK_DIMS)
    def test_a_hessian_matrix_in_chunks(self, kind, dims, monkeypatch):
        # newton_system, with the whole basis in one chunk, chunks of 1 to 4
        # dense J(V) (at least one size with a ragged last chunk), and the
        # slice-wise form under budgets of 5 and 7 p x r factors, gives the
        # one-column loop's matrix, bit for bit while one J(V) fits the
        # budget, and the whole gemv's gradient coordinates
        tau = make_tau(kind, 55, dims=dims)
        sc = SampleCov.from_data(make_data(56, n=10, dims=dims), dims)
        block = a_block(tau, sc)
        space = block.space
        m, x_bytes = space.basis.shape[1], tau.a.nbytes
        sizes, panels = (1, 2, 3, 4), (5, 7)
        assert any(m % size for size in sizes) and any(m % size for size in panels)
        expected = a_hess_matrix_reference(block).tobytes()
        coef = (space.basis.T @ matops.vec(block.egrad)).tobytes()
        budgets = [size * space.j.nbytes for size in sizes]
        for budget in [matops.STACK_BYTES, *budgets, *(size * x_bytes for size in panels)]:
            monkeypatch.setattr(matops, "STACK_BYTES", budget)
            _, g_coef, h_mat = newton_system(block)
            assert g_coef.tobytes() == coef
            if budget >= space.j.nbytes:
                assert h_mat.tobytes() == expected
            else:
                want = np.frombuffer(expected).reshape(m, m)
                assert np.abs(h_mat - want).max() <= 1e-12 * np.abs(want).max()
        # the slice-wise budgets cut it into one-column chunks of A V^T + V A^T
        assert len(matops.chunks(m, dims.p * dims.p * 8)) == m

    @pytest.mark.parametrize("dims", BLOCK_DIMS)
    def test_a_newton_system_routing(self, dims, monkeypatch):
        # under budgets of 1 to 4 dense J(V) per chunk, newton_system makes one
        # hess_coords call per chunk and keeps the one-column loop's bits; past
        # the budget it calls neither hess_coords nor j_operator
        tau = make_tau(SquareRootKind.SYMMETRIC, 62, dims=dims)
        block = a_block(tau, SampleCov.from_data(make_data(63, n=10, dims=dims), dims))
        m, j_bytes = block.space.basis.shape[1], block.space.j.nbytes
        expected = a_hess_matrix_reference(block).tobytes()
        calls, hess_coords = [], cg.RankTangentSpace.hess_coords

        def counted(self, ehess_v, v, w):
            calls.append(len(v))
            return hess_coords(self, ehess_v, v, w)

        monkeypatch.setattr(cg.RankTangentSpace, "hess_coords", counted)
        sizes = (1, 2, 3, 4)
        assert any(m % size for size in sizes)
        for size in sizes:
            monkeypatch.setattr(matops, "STACK_BYTES", size * j_bytes)
            calls.clear()
            assert newton_system(block)[2].tobytes() == expected
            assert len(calls) == -(-m // size) and sum(calls) == m

        def refused(*args, **kwargs):
            raise AssertionError("newton_system took the dense form past the budget")

        monkeypatch.setattr(cg.RankTangentSpace, "hess_coords", refused)
        monkeypatch.setattr(cg, "j_operator", refused)
        monkeypatch.setattr(matops, "STACK_BYTES", j_bytes - 1)
        h_mat = newton_system(block)[2]
        want = np.frombuffer(expected).reshape(m, m)
        assert np.abs(h_mat - want).max() <= 1e-12 * np.abs(want).max()

    def test_a_hess_applies_ctilde_inverse_five_times(self):
        dims = matops.Dims(4, 3, 3)
        tau = make_tau(SquareRootKind.SYMMETRIC, 53, dims=dims)
        block = a_block(tau, SampleCov.from_data(make_data(54, dims=dims), dims))
        calls = []
        inv_apply = block.spec.inv_apply

        def counting(m):
            calls.append(m.shape)
            return inv_apply(m)

        block.spec.inv_apply = counting
        # the whole basis as one (m, p, r) stack of columns
        basis = block.space.basis
        block.hess(basis.T.reshape(-1, tau.a.shape[1], tau.a.shape[0]).swapaxes(-1, -2))
        assert len(calls) == 5
        block.grad()
        assert len(calls) == 5


class TestNewtonDirection:
    def test_zero_gradient_gives_zero(self):
        # a stationary point in A (whitened sample equals Ctilde): gradient
        # vanishes, so no candidate is tried and the step is zero
        tau = make_tau(SquareRootKind.SYMMETRIC, 41)
        ctil = (1 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(6)
        s = tau.nu**2 * tau.kbar @ ctil @ tau.kbar.T
        sc = SampleCov(s=matops.sym(s), dims=DIMS)
        block = a_block(tau, sc)
        rgrad, coef, _ = newton_system(block)
        assert np.abs(rgrad).max() < 1e-10
        assert np.linalg.norm(coef) < 1e-13
        block.retract = None  # a tried candidate would fail here
        new_tau, _, step = block_step(block)
        assert new_tau is tau and step == 0.0

    def test_raising_retraction_halves_the_candidate(self, monkeypatch):
        # the first two retractions raise: the step retracts a quarter of the
        # Newton tangent and reports the norm of that quarter
        truth = simulate.gen_truth("m1", DIMS, 0.4, seed=201)
        data = simulate.gen_data(truth.sigma, 30, seed=202, dims=DIMS)
        sc = SampleCov.from_data(data, DIMS)
        block = a_block(picse.init(sc, SquareRootKind.SYMMETRIC), sc)
        _, g_coef, h_mat = newton_system(block)
        v = block.space.tangent(picse._newton_coeffs(h_mat, g_coef))
        retract = picse.retract_core_factor
        tried = []

        def flaky(a, step, dims):
            tried.append(step)
            if len(tried) <= 2:
                raise StructureError("infeasible step")
            return retract(a, step, dims)

        monkeypatch.setattr(picse, "retract_core_factor", flaky)
        new_tau, new_value, step = block_step(block)
        assert len(tried) == 3
        for k, step_tried in enumerate(tried):
            np.testing.assert_array_equal(step_tried, v / 2**k)
        assert new_value < picse.nll(block.base.tau, sc)
        assert step == np.linalg.norm(v) / 4

    @pytest.mark.parametrize("theta", ["k1bar", "k2bar", "a"])
    def test_raising_retraction_tries_each_step_once(self, theta):
        # a block whose every retraction raises: 31 Newton halvings and 61
        # descent step sizes, each tried once, then the step gives up
        data = make_data(44, n=12)
        block = calc_for(theta, make_tau(SquareRootKind.SYMMETRIC, 43), data)
        tried = []

        def infeasible(v):
            tried.append(v)
            raise StructureError("infeasible step")

        block.retract = infeasible
        new_tau, _, step = block_step(block)
        assert new_tau is block.base.tau and step == 0.0
        assert len(tried) == (picse._MAX_HALVINGS + 1) + (2 * picse._MAX_HALVINGS + 1)

    def test_descent_skips_failed_step_sizes(self, monkeypatch):
        # the first descent step raises at halvings 0 and 1, fails the decrease
        # check at 2, raises in the objective at 3 and is non-finite at 4; the
        # step taken, its value and its norm are those of the loop that retried
        # every failed step size, and no step size is tried twice
        rgrad = np.array([1.0, -2.0, 0.5])
        current = 1.0
        values = {2: 2.0, 3: None, 4: np.inf, 5: 0.5, 6: 0.25}

        class Space:
            def newton_system(self, egrad, ehess):
                return rgrad, np.ones(3), np.eye(3)

            def tangent(self, coef):
                return np.full(3, np.nan)  # no Newton candidate

            def norm(self, v):
                return float(np.linalg.norm(v))

        class Block:
            base, space, egrad, hess = "base", Space(), None, None

            def __init__(self):
                self.tried = []

            def retract(self, v):
                e = int(round(-np.log2(np.abs(v[0]))))
                self.tried.append(e)
                if e < 2:
                    raise StructureError("infeasible step")
                return picse._ParamPoint(e, None)

        def objective(point):
            e = point.tau
            if values[e] is None:
                raise DefinitenessError("not positive definite")
            return values[e]

        def retrying_step(block, current):
            # the descent loop that retried failed step sizes
            rgrad = newton_system(block)[0]
            for k in range(picse._MAX_HALVINGS + 1):
                v = -(0.5**k) * rgrad
                for _ in range(picse._MAX_HALVINGS + 1):
                    try:
                        cand = block.retract(v)
                        break
                    except NUMERICAL_ERRORS:
                        v = v / 2.0
                else:
                    continue
                try:
                    value = cand.nll()
                except NUMERICAL_ERRORS:
                    continue
                if np.isfinite(value) and value <= current:
                    return cand.tau, value, block.space.norm(v)
            return block.base, current, 0.0

        monkeypatch.setattr(picse._ParamPoint, "nll", objective)
        old_block, new_block = Block(), Block()
        old = retrying_step(old_block, current)
        point, *rest = picse._block_step(new_block, current)
        new = (point.tau, *rest)
        assert new == old == (5, 0.5, np.linalg.norm(rgrad) / 32)
        assert new_block.tried == [0, 1, 2, 3, 4, 5]
        assert len(old_block.tried) > len(new_block.tried)

    def test_quadratic_oracle(self):
        # Newton on f(x) = ||x - x*||^2 over a random subspace basis lands on
        # the optimum in one step.
        rng = np.random.default_rng(42)
        basis = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        x_star = basis @ rng.standard_normal(4)
        x0 = basis @ rng.standard_normal(4)
        grad = 2 * basis.T @ (x0 - x_star)
        hess = 2 * np.eye(4)
        coef = picse._newton_coeffs(hess, grad)
        x1 = x0 + basis @ coef
        assert np.abs(x1 - x_star).max() < 1e-8

    @pytest.mark.parametrize("m", [1, 2, 7, 40, 300])
    def test_newton_coeffs_solve_the_symmetrized_matrix(self, m):
        # in place, h becomes sym(h) byte for byte and the coefficients are
        # those of lstsq on sym(h); at m = 300, h spans three row panels
        rng = np.random.default_rng(m)
        h, g = rng.standard_normal((m, m)), rng.standard_normal(m)
        sym_h = matops.sym(h)
        want = np.linalg.lstsq(sym_h, -g, rcond=None)[0]
        assert (picse._newton_coeffs(h, g) == want).all()
        assert h.tobytes() == sym_h.tobytes()

    def test_newton_coeffs_hold_no_second_matrix(self):
        # at about the A block's size in fit-large (m = 588), symmetrizing and
        # solving allocate well under one more m x m matrix: sym(h), or the
        # copy numpy makes of the overlapping h.T in `h += h.T`, would need one
        rng = np.random.default_rng(5)
        h, g = rng.standard_normal((600, 600)), rng.standard_normal(600)
        tracemalloc.start()
        try:
            picse._newton_coeffs(h, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * h.nbytes

    def test_decrease_or_zero(self):
        # every block under both square roots: the objective never rises, a
        # zero step keeps the point, and the reported value is the objective
        data = make_data(44, n=12)
        sc = SampleCov.from_data(data, DIMS)
        for kind in SquareRootKind:
            tau = make_tau(kind, 43)
            value = picse.nll(tau, sc)
            for make_block in (
                lambda t: k_block(t, data, 1),
                lambda t: k_block(t, data, 2),
                lambda t: a_block(t, sc),
            ):
                point, new_value, step = picse._block_step(make_block(tau), value)
                new_tau = point.tau
                assert np.isfinite(step) and step >= 0.0
                assert new_value <= value
                assert new_value == picse.nll(new_tau, sc)
                if step == 0.0:
                    assert new_tau is tau
                tau, value = new_tau, new_value


class TestRetraction:
    def test_zero_step_keeps_gram(self):
        a = cg.random_core_factor(DIMS, seed=51)
        out = picse.retract_core_factor(a, np.zeros_like(a), DIMS)
        assert np.abs(out @ out.T - a @ a.T).max() < 1e-8

    def test_infeasible_step_raises(self):
        # D = A A^T - 2 A A^T is negative semidefinite: no core factor
        a = cg.random_core_factor(DIMS, seed=56)
        with pytest.raises(NUMERICAL_ERRORS):
            picse.retract_core_factor(a, -a, DIMS)

    def test_result_is_core_factor(self):
        a = cg.random_core_factor(DIMS, seed=52)
        space = cg.RankTangentSpace(a, DIMS)
        coef = np.random.default_rng(53).standard_normal(space.basis.shape[1])
        v = space.tangent(coef)
        out = picse.retract_core_factor(a, 0.1 * v, DIMS)
        cg.check_core_factor(out, DIMS)

    def test_split_whitens_the_intermediate_bit_for_bit(self):
        # D = sym(AA^T + AV^T + VA^T) is exactly symmetric, so split's sym
        # leaves it as is and the core is the whitening of D itself
        a = cg.random_core_factor(DIMS, seed=57)
        space = cg.RankTangentSpace(a, DIMS)
        v = 0.1 * space.tangent(np.random.default_rng(58).standard_normal(
            space.basis.shape[1]))
        d = matops.sym(a @ a.T + a @ v.T + v @ a.T)
        sep = kcd._flip_flop(d, DIMS)
        want = matops.whiten(sep.h_matrix(SquareRootKind.SYMMETRIC), d)
        assert sep.split(d, SquareRootKind.SYMMETRIC).c.tobytes() == want.tobytes()

    def test_first_order_agreement(self):
        # retraction velocity at t = 0 matches the tangent, up to rotation:
        # compare at the Gram level where rotations cancel
        a = cg.random_core_factor(DIMS, seed=54)
        space = cg.RankTangentSpace(a, DIMS)
        coef = np.random.default_rng(55).standard_normal(space.basis.shape[1])
        v = space.tangent(coef)
        eps = 1e-6
        gp = picse.retract_core_factor(a, eps * v, DIMS)
        gm = picse.retract_core_factor(a, -eps * v, DIMS)
        fd = (gp @ gp.T - gm @ gm.T) / (2 * eps)
        expect = a @ v.T + v @ a.T
        assert np.abs(fd - expect).max() < 1e-4


class TestUpdateK:
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_unit_determinant_preserved(self, kind):
        truth = simulate.gen_truth("m1", DIMS, 0.4, seed=201)
        data = simulate.gen_data(truth.sigma, 20, seed=202, dims=DIMS)
        sc = SampleCov.from_data(data, DIMS)
        tau = picse.init(sc, kind)
        for side, name in ((1, "k1bar"), (2, "k2bar")):
            block = k_block(tau, data, side)
            new_k = getattr(block_step(block)[0], name)
            assert abs(np.linalg.det(new_k) - 1.0) <= 1e-8

    def test_stationary_point_unchanged(self):
        # data covariance exactly at the parameter: zero gradient, zero step
        tau = make_tau(SquareRootKind.SYMMETRIC, 203)
        ctil = (1 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(6)
        s = matops.sym(tau.nu**2 * tau.kbar @ ctil @ tau.kbar.T)
        root = matops.spd_half_powers(s)[0]
        data = matops.mat(np.sqrt(6.0) * root.T, 3, 2)  # one observation per column
        sc = SampleCov.from_data(data, DIMS)
        assert np.abs(sc.s - s).max() < 1e-10  # the columns tile S exactly
        for side, name in ((1, "k1bar"), (2, "k2bar")):
            block = k_block(tau, data, side)
            new_k = getattr(block_step(block)[0], name)
            base = getattr(tau, name)
            assert np.abs(new_k - base).max() < 1e-6

    def test_objective_nonincreasing_across_k_updates(self):
        truth = simulate.gen_truth("m1", DIMS, 0.3, seed=205)
        data = simulate.gen_data(truth.sigma, 15, seed=206, dims=DIMS)
        sc = SampleCov.from_data(data, DIMS)
        tau = picse.init(sc, SquareRootKind.SYMMETRIC)
        before = picse.nll(tau, sc)
        tau = block_step(k_block(tau, data, 1))[0]
        mid = picse.nll(tau, sc)
        tau = block_step(k_block(tau, data, 2))[0]
        after = picse.nll(tau, sc)
        assert mid <= before and after <= mid


class TestUpdateA:
    def test_zero_direction_reproduces_gram(self):
        tau = make_tau(SquareRootKind.SYMMETRIC, 211)
        ctil = (1 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(6)
        s = matops.sym(tau.nu**2 * tau.kbar @ ctil @ tau.kbar.T)
        root = matops.spd_half_powers(s)[0]
        data = matops.mat(np.sqrt(6.0) * root.T, 3, 2)  # one observation per column
        sc = SampleCov.from_data(data, DIMS)
        new_a = block_step(a_block(tau, sc))[0].a
        assert np.abs(new_a @ new_a.T - tau.a @ tau.a.T).max() < 1e-8

    def test_result_is_core_factor_and_monotone(self):
        # spec-style monotonicity oracle over random sweeps
        rejected = 0
        for seed in range(50):
            truth = simulate.gen_truth("m1", DIMS, 0.35, seed=simulate._seq(640, seed))
            data = simulate.gen_data(truth.sigma, 10, simulate._seq(640, seed, 1), DIMS)
            sc = SampleCov.from_data(data, DIMS)
            tau = make_tau(SquareRootKind.SYMMETRIC, 900 + seed)
            before = picse.nll(tau, sc)
            new_tau, after, step = block_step(a_block(tau, sc))
            cg.check_core_factor(new_tau.a, DIMS)
            assert after <= before
            rejected += step == 0.0
        assert rejected < 50  # steps are accepted essentially always


class TestClosedFormUpdates:
    def test_nu_identity_case(self):
        tau = make_tau(SquareRootKind.SYMMETRIC, 61)
        tau = dataclasses.replace(tau, k1bar=np.eye(3), k2bar=np.eye(2), nu=2.0)
        ctil = (1 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(6)
        sc = SampleCov(s=ctil, dims=DIMS)
        assert abs(picse.update_nu(tau, sc) - 1.0) < 1e-10

    def test_nu_stationarity(self):
        tau = make_tau(SquareRootKind.SYMMETRIC, 62)
        sc = SampleCov.from_data(make_data(63, n=10), DIMS)
        nu_new = picse.update_nu(tau, sc)
        taun = dataclasses.replace(tau, nu=nu_new)
        eps = 1e-6
        up = picse.nll(dataclasses.replace(taun, nu=nu_new + eps), sc)
        dn = picse.nll(dataclasses.replace(taun, nu=nu_new - eps), sc)
        assert abs((up - dn) / (2 * eps)) < 1e-8

    def test_nu_scaling(self):
        tau = make_tau(SquareRootKind.SYMMETRIC, 64)
        sc = SampleCov.from_data(make_data(65, n=10), DIMS)
        sc4 = SampleCov(s=4.0 * sc.s, dims=DIMS)
        assert abs(picse.update_nu(tau, sc4) - 2.0 * picse.update_nu(tau, sc)) < 1e-10

    def test_lambda_plant_and_recover(self):
        a0 = cg.random_core_factor(DIMS, seed=71)
        for lam_star in (0.25, 0.5, 0.75):
            ctil = (1 - lam_star) * (a0 @ a0.T) + lam_star * np.eye(6)
            tau = PicseParams(
                k1bar=np.eye(3), k2bar=np.eye(2), nu=1.0, a=a0, lam=0.5,
                h_kind=SquareRootKind.SYMMETRIC, dims=DIMS,
            )
            sc = SampleCov(s=ctil, dims=DIMS)
            assert abs(picse.update_lambda(tau, sc) - lam_star) < 1e-6

    def test_lambda_never_worse_and_in_bracket(self):
        tau = make_tau(SquareRootKind.SYMMETRIC, 72)
        sc = SampleCov.from_data(make_data(73, n=10), DIMS)
        lam_new = picse.update_lambda(tau, sc)
        assert 1e-4 <= lam_new <= 1 - 1e-4
        before = picse.nll(tau, sc)
        after = picse.nll(dataclasses.replace(tau, lam=lam_new), sc)
        assert after <= before + 1e-12


def probes(minimizer, f, xatol):
    """(x, f(x), the probed points) of one bounded minimization of f over
    _LAMBDA_BRACKET, each as float.hex(): scipy's, or picse._fminbound."""
    seen = []

    def counted(x):
        seen.append(float(x).hex())
        return f(x)

    lo, hi = picse._LAMBDA_BRACKET
    if minimizer == "scipy":
        res = scipy.optimize.minimize_scalar(
            counted, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
        x, fx = res.x, res.fun
    else:
        x, fx = picse._fminbound(counted, lo, hi, xatol)
    return float(x).hex(), float(fx).hex(), seen


def fitted_lambda_objectives(kind, seed, monkeypatch):
    """The objective of every lambda search in one fit."""
    seen, fminbound = [], picse._fminbound

    def recording(f, a, b, xatol):
        seen.append(f)
        return fminbound(f, a, b, xatol)

    monkeypatch.setattr(picse, "_fminbound", recording)
    truth = simulate.gen_truth("m2", DIMS, 0.3, seed=seed)
    data = simulate.gen_data(truth.sigma, 12, seed=seed + 1, dims=DIMS)
    picse.fit(data, DIMS, FitConfig(h_kind=kind))
    monkeypatch.undo()
    return seen


def nan_from(k):
    """|x - 0.3| (a minimum no parabola hits, 25 probes) up to its k-th
    evaluation, nan from there on."""
    calls = []

    def f(x):
        calls.append(x)
        return math.nan if len(calls) >= k else abs(x - 0.3)

    return f


class TestLambdaSearch:
    # picse._fminbound ports scipy's bounded Brent: same probes, same bits

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fitted_objectives_match_scipy(self, kind, seed, monkeypatch):
        objectives = fitted_lambda_objectives(kind, seed, monkeypatch)
        assert objectives
        for f in objectives:
            assert probes("port", f, 1e-8) == probes("scipy", f, 1e-8)

    @pytest.mark.parametrize("make_f", [
        lambda: (lambda x: x),  # minimum at the lower end of the bracket
        lambda: (lambda x: -x),  # at the upper end
        lambda: (lambda x: 1.0),
        lambda: (lambda x: 0.0 if x > 0.7 else 1.0),  # a step: ties everywhere
        lambda: nan_from(1),
        lambda: nan_from(2),
        lambda: nan_from(4),
        lambda: nan_from(12),
        lambda: nan_from(math.inf),
    ])
    @pytest.mark.parametrize("xatol", [1e-8, 1e-3])
    def test_edge_objectives_match_scipy(self, make_f, xatol):
        assert probes("port", make_f(), xatol) == probes("scipy", make_f(), xatol)


class TestInit:
    def test_lambda_formula(self):
        # spectral bookkeeping: lam0 = (p - sum of top-r core eigenvalues)/(p - r)
        truth = simulate.gen_truth("m1", DIMS, 0.4, seed=81)
        data = simulate.gen_data(truth.sigma, 40, seed=82, dims=DIMS)
        sc = SampleCov.from_data(data, DIMS)
        tau = picse.init(sc, SquareRootKind.SYMMETRIC)
        ctil = kcd.kcd(sc.s, DIMS, SquareRootKind.SYMMETRIC).c
        w = np.sort(np.linalg.eigvalsh(ctil))[::-1]
        expect = (6.0 - w[:3].sum()) / 3.0
        assert abs(tau.lam - min(max(expect, 1e-4), 1 - 1e-4)) < 1e-10

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_invariants(self, kind):
        truth = simulate.gen_truth("m1", DIMS, 0.4, seed=83)
        data = simulate.gen_data(truth.sigma, 24, seed=84, dims=DIMS)
        sc = SampleCov.from_data(data, DIMS)
        tau = picse.init(sc, kind)
        tau.validate()
        # nu Kbar is exactly the chosen square root of the sample Kronecker MLE
        sep = kcd.kronecker_mle(sc.s, DIMS)
        np.testing.assert_allclose(
            tau.nu * tau.kbar, sep.h_matrix(kind), atol=1e-10
        )

    @pytest.mark.parametrize("kind, root", [(SquareRootKind.SYMMETRIC, "spd_half_powers"),
                                            (SquareRootKind.CHOLESKY, "chol")])
    def test_one_root_per_sample_factor(self, kind, root, monkeypatch):
        # K-bar and nu read the roots the sample decomposition whitened by
        truth = simulate.gen_truth("m1", DIMS, 0.4, seed=83)
        sc = SampleCov.from_data(simulate.gen_data(truth.sigma, 24, seed=84, dims=DIMS), DIMS)
        sep = kcd.kronecker_mle(sc.s, DIMS)
        rooted = []
        take_root = getattr(matops, root)

        def counted(k, *args, **kwargs):
            rooted.append(any(np.array_equal(k, f) for f in (sep.k1, sep.k2)))
            return take_root(k, *args, **kwargs)

        monkeypatch.setattr(matops, root, counted)
        picse.init(sc, kind)
        # the other two root the factors of the truncated core's decomposition
        assert sum(rooted) == 2 and len(rooted) == 4

    def test_full_rank_rejected_before_any_computation(self, monkeypatch):
        # at r = p the isotropic block is empty and lambda is not identified
        dims = matops.Dims(2, 2, 4)
        data = make_data(61, n=8, dims=dims)
        sc = SampleCov.from_data(data, dims)

        def ran(*args):
            raise AssertionError("decomposition ran past the rank check")

        monkeypatch.setattr(kcd, "kcd", ran)
        for kind in SquareRootKind:
            with pytest.raises(ValueError, match="r < p"):
                picse.init(sc, kind)
            with pytest.raises(ValueError, match="r < p"):
                picse.base_estimator(data, dims, kind)

    def test_sample_core_rank_uses_the_eigenvalue_floor(self):
        # the 4th eigenvalue is 1.7e-11 of the largest: under PD_RTOL, so the
        # rank check rejects it; its old 1e-12 floor let it through to fail
        # later, in the top-r factor of the truncated core
        a = cg.random_core_factor(matops.Dims(4, 3, 3), 0)
        d = 1e-10
        c = (1.0 - d) * (a @ a.T) + d * np.eye(12)
        sc = SampleCov(s=c, dims=matops.Dims(4, 3, 4))
        for kind in SquareRootKind:
            with pytest.raises(StructureError, match="sample core has rank below r=4"):
                picse.init(sc, kind)

    def test_nan_eigenvalue_fails_the_rank_check(self):
        # eigh returns the NaN as the smallest eigenvalue, the r-th kept here
        with pytest.raises(StructureError, match="core has rank below r=3"):
            picse._top_eigenpairs(np.diag([np.nan, 1.0, 2.0]), 3, "core")

    def test_consistency_smoke(self):
        # at n = 50 p the assembled initialization is close to the truth; the
        # rank-r truncation of the sample core leaves a small lambda-scaled
        # bias, so the check is on the seed-averaged error
        errs = []
        for seed in range(5):
            truth = simulate.gen_truth("m1", DIMS, 0.4, seed=200 + seed)
            data = simulate.gen_data(truth.sigma, 50 * DIMS.p, seed=300 + seed, dims=DIMS)
            base = picse.base_estimator(data, DIMS, SquareRootKind.SYMMETRIC)
            errs.append(simulate.rel_spec_norm(base, truth.sigma))
        assert float(np.mean(errs)) < 0.1


class TestStop:
    # two fits that stop on the relative change of the objective: both fail
    # until the fit stops on the Riemannian gradient norm
    DIMS = matops.Dims(4, 3, 3)

    def truth_data(self, n, seed):
        truth = simulate.gen_truth("m2", self.DIMS, 0.2, seed=1)
        return simulate.gen_data(truth.sigma, n, seed, self.DIMS)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="stops converged on a plateau, 0.229 short")
    def test_plateau_reaches_the_optimum(self):
        # the default fit stops converged after 55 sweeps at -19.988894
        _, _, trace = picse.fit(self.truth_data(6, 11), self.DIMS)
        assert abs(trace.objectives[-1] - (-20.217805)) < 1e-4

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the stop depends on the data's units")
    def test_stop_ignores_the_units(self):
        # data x c adds p log c^2 to the objective; x 2^30 and x 2^-30 stop
        # after 9 sweeps at -14.514361 against 15 at unit scale at -14.514707
        data, p = self.truth_data(36, 2), self.DIMS.p
        _, _, unit = picse.fit(data, self.DIMS)
        for c in (2.0**30, 2.0**-30):
            _, _, scaled = picse.fit(data * c, self.DIMS)
            assert scaled.n_sweeps == unit.n_sweeps
            value = scaled.objectives[-1] - p * np.log(c**2)
            assert value == pytest.approx(unit.objectives[-1], rel=1e-9)


class TestDecomposable:
    # truths on the paper's singular set: A_i = sqrt(2) diag(B_i, C_i) is an
    # exactly balanced core factor whose slice graph is disconnected
    DIMS = matops.Dims(4, 4, 3)

    def truth(self, seed):
        small = matops.Dims(2, 2, 3)
        b, c = (cg.slices(cg.random_core_factor(small, (seed, k)), small) for k in (0, 1))
        t = np.zeros((3, 4, 4))
        t[:, :2, :2], t[:, 2:, 2:] = b, c
        a = matops.vec(np.sqrt(2.0) * t).T
        rng = np.random.default_rng(seed)
        k1, k2 = (simulate._random_spd_capped(4, rng) for _ in range(2))
        h = matops.kron(k2, k1)
        core = 0.8 * (a @ a.T) + 0.2 * np.eye(self.DIMS.p)
        return a, matops.sym(h @ core @ h.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_truth_drops_the_rank_of_j_by_one(self, seed):
        a, _ = self.truth(seed)
        cg.check_core_factor(a, self.DIMS)
        assert not cg.is_connected_bipartite(cg.slices(a, self.DIMS))
        rank = cg.RankTangentSpace(a, self.DIMS).rank
        assert rank == cg.manifold_dims(self.DIMS).j_rank - 1

    @pytest.mark.xfail(strict=True, raises=(StructureError, NoKroneckerMle),
                       reason="init's rank-r step fails on decomposable cores")
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_fit_converges(self, seed, kind):
        # seed 0 raises NoKroneckerMle in the kcd of the rank-r truncation,
        # seed 3 StructureError from a balancing stall
        _, sigma = self.truth(seed)
        data = simulate.gen_data(sigma, 64, seed + 10, self.DIMS)
        tau, _, trace = picse.fit(data, self.DIMS, FitConfig(h_kind=kind))
        assert trace.termination == "converged"
        tau.validate()


class TestFit:
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_monotone_and_converged(self, kind):
        truth = simulate.gen_truth("m1", DIMS, 0.4, seed=91)
        data = simulate.gen_data(truth.sigma, 30, seed=92, dims=DIMS)
        tau, sigma_hat, trace = picse.fit(data, DIMS, FitConfig(h_kind=kind))
        obj = np.asarray(trace.objectives)
        assert (np.diff(obj) <= 1e-9 * np.abs(obj[:-1]) + 1e-12).all()
        assert trace.termination == "converged"
        tau.validate()
        # assembled estimate is SPD and consistent with the traced objective
        w = np.linalg.eigvalsh(sigma_hat)
        assert w.min() > 0
        sc = SampleCov.from_data(data, DIMS)
        direct = float(
            np.trace(sc.s @ np.linalg.inv(sigma_hat))
            + np.linalg.slogdet(sigma_hat)[1]
        )
        assert abs(trace.objectives[-1] - direct) < 1e-8

    def test_data_whose_second_moments_overflow(self):
        # at data x 1e160 (p = 6, n = 12) Y^T Y overflowed with a RuntimeWarning,
        # then kronecker_mle rejected a non-finite matrix the user never gave
        y = np.random.default_rng(0).standard_normal((12, 3, 2))
        with pytest.raises(ConfigError, match="second moments of the data overflow"):
            picse.fit(1e160 * y, DIMS)
        _, _, trace = picse.fit(1e150 * y, DIMS)
        assert trace.termination in ("converged", "max_iter")

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_space_binds_the_metric(self, kind, monkeypatch):
        # the K blocks' tangent spaces evaluate their bound metric: a fit calls
        # neither module inner product
        calls = []
        for name in ("ai_inner", "chol_inner"):
            def counted(*args, _inner=getattr(sg, name)):
                calls.append(args)
                return _inner(*args)
            monkeypatch.setattr(sg, name, counted)
        _, _, trace = picse.fit(make_data(93, n=12), DIMS, FitConfig(h_kind=kind))
        assert trace.step_norms and calls == []

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_past_the_stack_budget(self, kind, monkeypatch):
        # at (8, 8, 5) one dense J(V) takes 330 KB, past matops.STACK_BYTES, so
        # the A step takes J(V)^T w slice-wise; with n = 128 the K step takes
        # the moment form, as the (k, n, q, q') temporary of the whole basis
        # takes 2.3 MB.  Under a 4 MiB budget both blocks take the forms below
        # it (hess_coords chunks and _sample_sums), and the same fit agrees to
        # rounding; A is not compared, as it moves along its O(r) orbit
        def refused(*args, **kwargs):
            raise AssertionError("the fit took a form on the other side of the budget")

        data = np.random.default_rng(0).standard_normal((128, 8, 8))
        config = FitConfig(max_iter=3, h_kind=kind)
        past = ((picse._KBlock, "_sample_sums"), (cg.RankTangentSpace, "hess_coords"))
        below = ((picse._KBlock, "_moment_sums"), (cg, "j_adjoint"))
        fits = []
        for budget, refuse in ((matops.STACK_BYTES, past), (1 << 22, below)):
            with monkeypatch.context() as patch:
                patch.setattr(matops, "STACK_BYTES", budget)
                for owner, name in refuse:
                    patch.setattr(owner, name, refused)
                fits.append(picse.fit(data, matops.Dims(8, 8, 5), config))
        for tau, _, trace in fits:
            assert trace.termination in ("converged", "max_iter")
            obj = np.asarray(trace.objectives)
            assert (np.diff(obj) <= 1e-9 * np.abs(obj[:-1]) + 1e-12).all()
            tau.validate()
        (tau, _, trace), (tau_below, _, trace_below) = fits
        obj, obj_below = np.asarray(trace.objectives), np.asarray(trace_below.objectives)
        assert obj.shape == obj_below.shape
        assert (np.abs(obj - obj_below) <= 1e-10 * np.abs(obj_below)).all()
        assert abs(tau.lam - tau_below.lam) <= 1e-9 * abs(tau_below.lam)

    def test_data_of_tiny_scale(self):
        # det of init's square-root factors and of the flip-flop's K1 would
        # underflow at data x 1e-45 (p = 12)
        dims = matops.Dims(4, 3, 3)
        data = simulate.gen_data(simulate.gen_truth("m2", dims, 0.2, seed=1).sigma, 24, 2, dims)
        tau, _, trace = picse.fit(1e-45 * data, dims)
        assert trace.termination == "converged"
        tau.validate()

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("shape", [(3, 2, 3), (4, 3, 3)])
    def test_ill_conditioned_truths(self, shape, kind):
        # gen_truth's core between Kronecker factors with log-spaced spectra
        # of condition 1e2 to 1e4 each: truths past the _COND_CAP of gen_truth
        dims = matops.Dims(*shape)
        lam = 0.3
        worst = 0.0
        for seed, cond in itertools.product(range(3), (1e2, 1e3, 1e4)):
            truth = simulate.gen_truth("m1", dims, lam, seed=seed)
            core = (1.0 - lam) * (truth.a @ truth.a.T) + lam * np.eye(dims.p)
            rng = np.random.default_rng(seed)
            h1, h2 = (np.linalg.qr(rng.standard_normal((q, q)))[0]
                      * np.logspace(0.0, np.log10(cond) / 2.0, q) for q in shape[:2])
            h = matops.kron(h2, h1)
            sigma = matops.sym(h @ core @ h.T)
            worst = max(worst, np.linalg.cond(sigma))
            data = simulate.gen_data(sigma, 2 * dims.p, seed=seed, dims=dims)
            tau, _, trace = picse.fit(data, dims, FitConfig(h_kind=kind))
            tau.validate()
            obj = np.asarray(trace.objectives)
            assert (np.diff(obj) <= 1e-9 * np.abs(obj[:-1]) + 1e-12).all()
        assert worst > 1e8

    def test_mle_dominates_truth_in_sample(self):
        dims = matops.Dims(2, 2, 3)
        truth = simulate.gen_truth("m1", dims, 0.4, seed=93)
        data = simulate.gen_data(truth.sigma, 100 * dims.p, seed=94, dims=dims)
        sc = SampleCov.from_data(data, dims)
        tau, _, _ = picse.fit(data, dims, FitConfig())
        dec = kcd.kcd(truth.sigma, dims, SquareRootKind.SYMMETRIC)
        lam_t, a_t = cg.partial_isotropy_decompose(dec.c, dims)
        h1, h2 = dec.k.sqrt_factors(SquareRootKind.SYMMETRIC)
        d1 = np.linalg.det(h1) ** (1 / 2)
        d2 = np.linalg.det(h2) ** (1 / 2)
        tau_true = PicseParams(
            k1bar=h1 / d1, k2bar=h2 / d2, nu=float(d1 * d2), a=a_t, lam=lam_t,
            h_kind=SquareRootKind.SYMMETRIC, dims=dims,
        )
        assert picse.nll(tau, sc) <= picse.nll(tau_true, sc) + 1e-9

    def test_rotation_invariance(self):
        truth = simulate.gen_truth("m1", DIMS, 0.3, seed=95)
        data = simulate.gen_data(truth.sigma, 40, seed=96, dims=DIMS)
        sc = SampleCov.from_data(data, DIMS)
        tau0 = picse.init(sc, SquareRootKind.SYMMETRIC)
        rng = np.random.default_rng(97)
        o, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        tau0_rot = dataclasses.replace(tau0, a=tau0.a @ o)
        _, s_a, _ = picse.fit(data, DIMS, FitConfig(), initial=tau0)
        _, s_b, _ = picse.fit(data, DIMS, FitConfig(), initial=tau0_rot)
        assert simulate.rel_spec_norm(s_b, s_a) < 1e-6

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_k_step_norms_at_base_point(self, kind):
        # the norm of a K step at its base point is the geodesic distance the
        # step travels, which the retraction leaves measurable afterwards
        dims = matops.Dims(4, 3, 3)
        truth = simulate.gen_truth("m2", dims, 0.2, seed=5)
        data = simulate.gen_data(truth.sigma, 24, seed=5, dims=dims)
        tau0 = picse.init(SampleCov.from_data(data, dims), kind)
        config = FitConfig(h_kind=kind, max_iter=1)
        tau1, _, trace = picse.fit(data, dims, config, initial=tau0)
        for name in ("k1bar", "k2bar"):
            k0, k1 = getattr(tau0, name), getattr(tau1, name)
            if kind is SquareRootKind.CHOLESKY:
                dist = np.hypot(
                    np.linalg.norm(np.tril(k1 - k0, -1)),
                    np.linalg.norm(np.log(np.diag(k1) / np.diag(k0))),
                )
            else:
                dist = np.linalg.norm(np.log(scipy.linalg.eigh(k1, k0, eigvals_only=True)))
            assert dist > 1e-3
            assert abs(trace.step_norms[0][name] - dist) <= 1e-8 * dist

    def test_numerical_failure_mid_sweep_stops_the_fit(self, monkeypatch):
        # the third lambda update fails: the fit keeps its two whole sweeps,
        # stops as "numerical" and returns the point the third sweep reached
        dims = matops.Dims(4, 3, 3)
        truth = simulate.gen_truth("m2", dims, 0.2, seed=5)
        data = simulate.gen_data(truth.sigma, 24, seed=6, dims=dims)
        update_lambda, calls = picse._ParamPoint.update_lambda, []

        def fails_third(point):
            calls.append(point)
            if len(calls) == 3:
                raise DefinitenessError("injected failure")
            return update_lambda(point)

        monkeypatch.setattr(picse._ParamPoint, "update_lambda", fails_third)
        tau, _, trace = picse.fit(data, dims)
        assert trace.termination == "numerical"
        assert trace.n_sweeps == 2 and len(trace.objectives) == 3
        tau.validate()
        value = picse.nll(tau, SampleCov.from_data(data, dims))
        assert value <= trace.objectives[-1]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            picse.fit(np.zeros((1, 3, 2)), DIMS)
        with pytest.raises(ValueError):
            picse.fit(np.zeros((5, 2, 2)), DIMS)
        data = make_data(1)
        data[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            picse.fit(data, DIMS)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan])
    def test_config_rejects_non_positive_tol(self, tol):
        with pytest.raises(ValueError, match="need tol > 0"):
            FitConfig(tol=tol)

    def test_config_rejects_infinite_tol(self):
        # every relative change is below inf, so the fit used to stop after
        # one sweep and report it as converged
        with pytest.raises(ValueError, match="tol finite"):
            FitConfig(tol=np.inf)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0])
    def test_config_rejects_non_integer_max_iter(self, max_iter):
        # a float used to pass, then fail in range() after init had run
        with pytest.raises(TypeError):
            FitConfig(max_iter=max_iter)
        assert FitConfig(max_iter=np.int64(3)).max_iter == 3

    @pytest.mark.parametrize("h_kind", ["chol", "bogus", None])
    def test_config_rejects_unknown_root_kind(self, h_kind):
        # a value that is not a SquareRootKind member used to fit the
        # symmetric root, even for "chol"
        with pytest.raises(ValueError, match="must be a SquareRootKind"):
            FitConfig(h_kind=h_kind)

    def test_capacity_checked_before_init(self, monkeypatch):
        # p*r = 70*59 = 4130 exceeds the dense-J limit: rejected from the
        # shape alone, before the initialization runs
        dims = matops.Dims(10, 7, 59)

        def ran(*args):
            raise AssertionError("init ran past the dense-size check")

        monkeypatch.setattr(picse, "init", ran)
        with pytest.raises(CapacityError):
            picse.fit(make_data(1, n=3, dims=dims), dims)

    def test_full_rank_rejected_before_init(self, monkeypatch):
        dims = matops.Dims(2, 2, 4)

        def ran(*args):
            raise AssertionError("init ran past the rank check")

        monkeypatch.setattr(picse, "init", ran)
        with pytest.raises(ValueError, match="r < p"):
            picse.fit(make_data(62, n=8, dims=dims), dims)

    def test_initial_must_match_the_fit(self, monkeypatch):
        # a symmetric start under a Cholesky config, the same start relabelled
        # Cholesky, a start of other dims and a K1bar of determinant 16 are
        # rejected before any computation
        dims = matops.Dims(4, 3, 3)
        data = make_data(63, n=24, dims=dims)
        start = make_tau(SquareRootKind.SYMMETRIC, 64, dims=dims)
        chol = FitConfig(h_kind=SquareRootKind.CHOLESKY)
        bad_starts = [
            (start, chol),
            (dataclasses.replace(start, h_kind=SquareRootKind.CHOLESKY), chol),
            (make_tau(SquareRootKind.SYMMETRIC, 64), FitConfig()),
            (dataclasses.replace(start, k1bar=2.0 * start.k1bar), FitConfig()),
        ]

        def ran(*args):
            raise AssertionError("the fit ran past the check of its start")

        monkeypatch.setattr(picse._ParamPoint, "nll", ran)
        for initial, config in bad_starts:
            with pytest.raises(ValueError, match="initial"):
                picse.fit(data, dims, config, initial=initial)

    @pytest.mark.parametrize("field", ["nu", "k1bar", "a"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected_before_any_decomposition(
        self, field, bad, monkeypatch
    ):
        # nu = nan used to reach LAPACK ("DLASCL parameter number 4") and end
        # the fit "numerical" after 0 sweeps; nu = inf, a "converged" fit
        dims = matops.Dims(4, 3, 3)
        data = make_data(63, n=24, dims=dims)
        start = make_tau(SquareRootKind.SYMMETRIC, 64, dims=dims)
        value = bad
        if field != "nu":
            value = getattr(start, field).copy()
            value[0, 0] = bad

        def ran(*args, **kwargs):
            raise AssertionError("a decomposition or the objective ran")

        monkeypatch.setattr(np.linalg, "eigh", ran)
        monkeypatch.setattr(np.linalg, "svd", ran)
        monkeypatch.setattr(picse._ParamPoint, "nll", ran)
        with pytest.raises(ValueError, match="invalid initial parameters"):
            picse.fit(data, dims, initial=dataclasses.replace(start, **{field: value}))

    def test_lambda_ordering_across_truths(self):
        # lam = 0.2 versus 0.8 at n = 2p: the fitted level tracks the truth
        # ordering in at least 18 of 20 seeded replications
        hits = 0
        for seed in range(20):
            lam_hats = {}
            for lam in (0.2, 0.8):
                truth = simulate.gen_truth("m1", DIMS, lam, seed=500 + seed)
                data = simulate.gen_data(
                    truth.sigma, 2 * DIMS.p, seed=520 + seed, dims=DIMS
                )
                tau, _, _ = picse.fit(data, DIMS, FitConfig())
                lam_hats[lam] = tau.lam
            hits += lam_hats[0.2] < lam_hats[0.8]
        assert hits >= 18

    @settings(deadline=None, max_examples=16)
    @given(
        p1=st.integers(2, 4), p2=st.integers(2, 4), data=st.data(),
        model=st.sampled_from(["m1", "m2"]), kind=st.sampled_from(list(SquareRootKind)),
    )
    def test_invariants_over_the_valid_regime(self, p1, p2, data, model, kind):
        # every r with p1/p2 + p2/p1 < r < p, and n below and above p; the
        # sweep cap bounds the time of the slow n < p fits, and the invariants
        # hold after every sweep
        p = p1 * p2
        r = data.draw(st.integers(math.floor(p1 / p2 + p2 / p1) + 1, p - 1), label="r")
        n = data.draw(st.sampled_from([math.ceil(p / 2), 2 * p]), label="n")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        dims = matops.Dims(p1, p2, r)
        truth = simulate.gen_truth(model, dims, 0.4, seed=seed)
        sample = simulate.gen_data(truth.sigma, n, seed=seed + 1, dims=dims)
        try:
            tau, sigma_hat, trace = picse.fit(
                sample, dims, FitConfig(max_iter=20, h_kind=kind)
            )
        except NUMERICAL_ERRORS:
            # only the initialization may raise
            with pytest.raises(NUMERICAL_ERRORS):
                picse.init(SampleCov.from_data(sample, dims), kind)
            return
        obj = np.asarray(trace.objectives)
        assert (np.diff(obj) <= 1e-9 * np.abs(obj[:-1]) + 1e-12).all()
        tau.validate()
        assert np.array_equal(sigma_hat, sigma_hat.T)
        assert np.linalg.eigvalsh(sigma_hat)[0] > 0.0


class TestAHessianAtTheFit:
    @pytest.mark.parametrize("n", [12, 48])
    @pytest.mark.parametrize("seed", range(3))
    def test_positive_definite_on_the_horizontal_space(self, seed, n):
        # A -> AQ leaves the likelihood alone, so the r(r-1)/2 vertical
        # directions A Omega are near null at a fitted point; on their
        # complement sym(H) is well conditioned (3.4-14.0 on these fits)
        dims = matops.Dims(6, 4, 3)
        data = simulate.gen_data(
            simulate.gen_truth("m2", dims, 0.2, seed).sigma, n, seed + 100, dims)
        tau, _, trace = picse.fit(data, dims)
        assert trace.termination == "converged"
        block = a_block(tau, SampleCov.from_data(data, dims))
        h_mat = matops.sym(newton_system(block)[2])
        eye = np.eye(dims.r)
        skews = np.array([np.outer(eye[i], eye[j]) - np.outer(eye[j], eye[i])
                          for i, j in itertools.combinations(range(dims.r), 2)])
        vertical = block.space.coords(matops.vec(tau.a @ skews))
        horizontal = np.linalg.svd(vertical.T)[0][:, len(skews):]
        w = np.linalg.eigvalsh(horizontal.T @ h_mat @ horizontal)
        assert w[0] > 0.0 and w[-1] <= 100.0 * w[0]
        w = np.linalg.eigvalsh(h_mat)
        assert w[0] >= -1e-4 * w[-1]


class TestSweep:
    DIMS = matops.Dims(4, 3, 3)

    def start(self, kind):
        truth = simulate.gen_truth("m2", self.DIMS, 0.2, seed=5)
        data = simulate.gen_data(truth.sigma, 24, seed=6, dims=self.DIMS)
        sc = SampleCov.from_data(data, self.DIMS)
        return data, picse._ParamPoint(picse.init(sc, kind), sc)

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_one_sweep_is_one_fit_iteration(self, kind):
        data, point = self.start(kind)
        swept, value, steps = picse._sweep(point, point.nll(), data)
        tau, _, trace = picse.fit(data, self.DIMS, FitConfig(max_iter=1, h_kind=kind),
                                  initial=point.tau)
        for name in ("k1bar", "k2bar", "nu", "a", "lam"):
            got, want = np.asarray(getattr(swept.tau, name)), np.asarray(getattr(tau, name))
            assert got.tobytes() == want.tobytes()
        assert value == trace.objectives[-1]
        # the CLI writes step_norms without sort_keys: the order is output
        assert list(steps.items()) == list(trace.step_norms[0].items())
        assert list(steps) == ["k1bar", "k2bar", "nu", "a", "lambda"]

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_failure_returns_the_point_reached(self, kind, monkeypatch):
        data, point = self.start(kind)
        start_value = point.nll()

        def fails(point):
            raise DefinitenessError("injected failure")

        monkeypatch.setattr(picse._ParamPoint, "update_lambda", fails)
        swept, value, _ = picse._sweep(point, start_value, data)
        assert value is None
        assert swept.tau.lam == point.tau.lam and swept.tau.nu != point.tau.nu
        swept.tau.validate()
        assert swept.nll() <= start_value


class TestOptimumOracle:
    """A fit at a tight tol against an independent constrained optimizer:
    scipy's trust-constr on the symmetric-root likelihood, over the upper
    triangles of the trace-free logs of K1bar and K2bar (the last diagonal
    entry is minus the others), log nu, logit lambda and A, subject to the
    core-factor Gram constraints, from picse.init.  The same fits stopped at
    tol 1e-6 miss the oracle by 8e-9 to 5e-8 relative, past the bound."""

    DIMS = matops.Dims(2, 2, 3)
    KIND = SquareRootKind.SYMMETRIC

    def factor(self, coords, q):
        """The K-bar factor of q(q+1)/2 - 1 coordinates."""
        upper = np.triu_indices(q)
        log = np.zeros((q, q))
        log[upper] = np.append(coords, 0.0)
        log = log + np.triu(log, 1).T
        log[-1, -1] = -np.trace(log)
        return matops.sym(scipy.linalg.expm(log))

    def coords(self, k):
        w, v = np.linalg.eigh(k)
        return ((v * np.log(w)) @ v.T)[np.triu_indices(len(k))][:-1]

    def unpack(self, x):
        dims, factors, i = self.DIMS, [], 0
        for q in (dims.p1, dims.p2):
            m = q * (q + 1) // 2 - 1
            factors.append(self.factor(x[i:i + m], q))
            i += m
        return PicseParams(
            k1bar=factors[0], k2bar=factors[1], nu=float(np.exp(x[i])),
            a=x[i + 2:].reshape(dims.p, dims.r), lam=float(scipy.special.expit(x[i + 1])),
            h_kind=self.KIND, dims=dims,
        )

    def pack(self, tau):
        logs = [self.coords(k) for k in (tau.k1bar, tau.k2bar)]
        scalars = [np.log(tau.nu), scipy.special.logit(tau.lam)]
        return np.concatenate(logs + [scalars, tau.a.ravel()])

    def constraints(self, x):
        # both Grams have trace tr(A A^T), so the last diagonal entry of the
        # column part is redundant; with it scipy warns of a singular Jacobian
        dims = self.DIMS
        a = x[-dims.p * dims.r:].reshape(dims.p, dims.r)
        row_target, col_target = cg.gram_targets(dims)
        row = (cg.row_gram(a, dims) - row_target)[np.triu_indices(dims.p1)]
        col = (cg.col_gram(a, dims) - col_target)[np.triu_indices(dims.p2)]
        return np.concatenate([row, col[:-1]])

    def fit_and_oracle(self, seed):
        """The fit's objective at tol 1e-12, once checked against the
        oracle's, and the data it fitted."""
        dims, kind = self.DIMS, self.KIND
        truth = simulate.gen_truth("m1", dims, 0.3, seed)
        data = simulate.gen_data(truth.sigma, 12, seed + 1, dims)
        sc = SampleCov.from_data(data, dims)
        tau, _, _ = picse.fit(data, dims, FitConfig(tol=1e-12, max_iter=5000, h_kind=kind))
        oracle = scipy.optimize.minimize(
            lambda x: picse.nll(self.unpack(x), sc), self.pack(picse.init(sc, kind)),
            jac="2-point", method="trust-constr",
            constraints=[scipy.optimize.NonlinearConstraint(self.constraints, 0.0, 0.0)],
            options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 3000},
        )
        assert oracle.status in (1, 2)
        assert np.abs(self.constraints(oracle.x)).max() < 1e-10
        value = picse.nll(tau, sc)
        assert value <= oracle.fun + 1e-9 * abs(oracle.fun)
        return value, data

    @pytest.mark.parametrize("seed", range(3))
    def test_fit_reaches_the_oracle_optimum(self, seed):
        self.fit_and_oracle(seed)


class TestOptimumOracleCholesky(TestOptimumOracle):
    """The oracle over lower-triangular K-bar factors: the strict lower
    entries and a trace-free log-diagonal (the last entry minus the others),
    so each factor has unit determinant exactly.  Seed 2 is left out: there
    scipy warns that delta_grad is 0, which the suite makes an error."""

    KIND = SquareRootKind.CHOLESKY

    def factor(self, coords, q):
        m = q * (q - 1) // 2
        l = np.diag(np.exp(np.append(coords[m:], -coords[m:].sum())))
        l[np.tril_indices(q, -1)] = coords[:m]
        return l

    def coords(self, k):
        return np.concatenate([k[np.tril_indices(len(k), -1)], np.log(np.diag(k))[:-1]])

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_fit_reaches_the_oracle_optimum(self, seed):
        # both roots give one model set (the Cholesky core differs from the
        # symmetric one by an orthogonal Q2 (x) Q1, which maps core factors
        # to core factors), so the symmetric-root fit reaches the same value
        value, data = self.fit_and_oracle(seed)
        sym, _, _ = picse.fit(data, self.DIMS, FitConfig(tol=1e-12, max_iter=5000))
        sym_value = picse.nll(sym, SampleCov.from_data(data, self.DIMS))
        assert abs(value - sym_value) <= 1e-10 * abs(sym_value)


EQUIVARIANCE_SHAPES = [
    (p1, p2, r)
    for p1 in (2, 3)
    for p2 in (2, 3)
    for r in range(math.floor(p1 / p2 + p2 / p1) + 1, p1 * p2)
]


def instrumented_fit(kind, dims, monkeypatch):
    """A fit from the initialization, recording each whitening of S (by its
    K-bar bytes), each Ctilde spectral form (by A's bytes and lambda), and
    each point's objective and closed-form updates as (tau, value)."""
    truth = simulate.gen_truth("m2", dims, 0.2, seed=5)
    data = simulate.gen_data(truth.sigma, dims.p, seed=6, dims=dims)
    start = picse.init(SampleCov.from_data(data, dims), kind)
    rec = {"whiten": [], "spec": [], "nll": [], "update_nu": [], "update_lambda": []}
    in_retraction = []
    whiten, retract, spectral = matops.whiten, picse.retract_core_factor, picse._CtildeSpectral

    def counting_whiten(h, m):
        if not in_retraction:  # the retraction whitens its own matrix
            rec["whiten"].append(h.tobytes())
        return whiten(h, m)

    def flagged_retract(*args):
        in_retraction.append(True)
        try:
            return retract(*args)
        finally:
            in_retraction.pop()

    class CountingSpectral(spectral):
        def __init__(self, a, lam):
            rec["spec"].append((a.tobytes(), lam))
            super().__init__(a, lam)

    def recording(name):
        method = getattr(picse._ParamPoint, name)

        def wrapper(point):
            value = method(point)
            rec[name].append((point.tau, value))
            return value

        return wrapper

    monkeypatch.setattr(matops, "whiten", counting_whiten)
    monkeypatch.setattr(picse, "retract_core_factor", flagged_retract)
    monkeypatch.setattr(picse, "_CtildeSpectral", CountingSpectral)
    for name in ("nll", "update_nu", "update_lambda"):
        monkeypatch.setattr(picse._ParamPoint, name, recording(name))
    _, _, trace = picse.fit(data, dims, FitConfig(h_kind=kind), initial=start)
    monkeypatch.undo()
    assert trace.termination == "converged" and trace.n_sweeps >= 3
    return SampleCov.from_data(data, dims), rec


SHARING_DIMS = [matops.Dims(4, 3, 3), matops.Dims(6, 4, 3)]


class TestSharedPointPieces:
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("dims", SHARING_DIMS)
    def test_each_point_whitened_and_decomposed_once(self, kind, dims, monkeypatch):
        # S is whitened once per distinct K-bar point the fit evaluates, and
        # Ctilde decomposed once per distinct (A, lambda) point
        _, rec = instrumented_fit(kind, dims, monkeypatch)
        taus = [tau for tau, _ in rec["nll"]]
        kbars = {matops.kron(t.k2bar, t.k1bar).tobytes() for t in taus}
        cores = {(t.a.tobytes(), t.lam) for t in taus}
        assert sorted(rec["whiten"]) == sorted(kbars)
        assert sorted(rec["spec"]) == sorted(cores)
        # fewer than one of each per objective evaluation
        assert len(rec["whiten"]) < len(taus) and len(rec["spec"]) < len(taus)

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("dims", SHARING_DIMS)
    def test_shared_values_equal_fresh_calls(self, kind, dims, monkeypatch):
        # every objective and update the fit reads off shared pieces has the
        # bits of the public function called afresh at the same tau
        sc, rec = instrumented_fit(kind, dims, monkeypatch)
        for name in ("nll", "update_nu", "update_lambda"):
            fresh = getattr(picse, name)
            assert rec[name]
            for tau, value in rec[name]:
                assert value == fresh(tau, sc), name


class TestEquivariance:
    # Fitting P Y Q^T with P, Q orthogonal gives (Q (x) P) Sigma_hat (Q (x) P)^T:
    # the symmetric root and the affine-invariant metric are invariant under
    # orthogonal P and Q, and at tol=1e-10 both fits end at the optimum.  The
    # Cholesky root is equivariant under lower-triangular P and Q, but its
    # metric is not invariant under them, so two default fits stop at
    # different points short of the optimum; that case waits for fits that
    # stop on stationarity.
    @pytest.mark.parametrize("p1, p2, r", EQUIVARIANCE_SHAPES)
    @settings(deadline=None, max_examples=2)
    @given(model=st.sampled_from(["m1", "m2"]), seed=st.integers(0, 2**16))
    def test_orthogonal_transform_of_the_data(self, p1, p2, r, model, seed):
        dims = matops.Dims(p1, p2, r)
        truth = simulate.gen_truth(model, dims, 0.4, seed=seed)
        y = simulate.gen_data(truth.sigma, 2 * dims.p, seed=seed + 1, dims=dims)
        rng = np.random.default_rng(seed + 2)
        pm = np.linalg.qr(rng.standard_normal((p1, p1)))[0]
        qm = np.linalg.qr(rng.standard_normal((p2, p2)))[0]
        config = FitConfig(tol=1e-10)
        _, sigma_hat, _ = picse.fit(y, dims, config)
        _, sigma_rot, _ = picse.fit(pm @ y @ qm.T, dims, config)
        t = np.kron(qm, pm)
        assert simulate.rel_spec_norm(sigma_rot, t @ sigma_hat @ t.T) < 1e-6


class TestBaselines:
    @pytest.mark.parametrize(
        "estimate",
        [
            lambda data: picse.kmle_estimator(data, DIMS),
            lambda data: picse.base_estimator(data, DIMS, SquareRootKind.SYMMETRIC),
        ],
        ids=["kmle", "base"],
    )
    def test_reject_bad_data(self, estimate):
        # the baselines make the data checks of fit, in SampleCov.from_data
        nan_data = make_data(1)
        nan_data[2, 1, 0] = np.nan
        for data, match in (
            (nan_data, "non-finite"),
            (np.zeros((5, 2, 2)), "expected"),
            (np.zeros((5, 6)), "expected"),
            (make_data(1, n=1), "two observations"),
        ):
            with pytest.raises(ValueError, match=match):
                estimate(data)

    def test_kmle_recovers_separable(self):
        dims = matops.Dims(2, 2, 3)
        rng = np.random.default_rng(101)
        sigma = matops.kron(rand_spd(2, rng), rand_spd(2, rng))
        data = simulate.gen_data(sigma, 4000, seed=102, dims=dims)
        est = picse.kmle_estimator(data, dims)
        assert simulate.rel_spec_norm(est, sigma) < 0.15
        # on exactly separable sample covariance the KMLE reproduces it
        sc = SampleCov(s=sigma, dims=dims)
        sep = kcd.kronecker_mle(sc.s, dims)
        np.testing.assert_allclose(sep.matrix, sigma, atol=1e-10)

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_base_estimator_valid(self, kind):
        truth = simulate.gen_truth("m2", DIMS, 0.3, seed=103)
        data = simulate.gen_data(truth.sigma, 12, seed=104, dims=DIMS)
        est = picse.base_estimator(data, DIMS, kind)
        assert np.linalg.eigvalsh(est).min() > 0

    def test_base_core_structure(self):
        # the core of the assembled Base estimate is (1-lam0) A0 A0^T + lam0 I
        truth = simulate.gen_truth("m1", DIMS, 0.4, seed=105)
        data = simulate.gen_data(truth.sigma, 30, seed=106, dims=DIMS)
        sc = SampleCov.from_data(data, DIMS)
        tau = picse.init(sc, SquareRootKind.SYMMETRIC)
        est = picse.sigma_from_params(tau)
        c_est = kcd.kcd(est, DIMS, SquareRootKind.SYMMETRIC).c
        expect = (1 - tau.lam) * (tau.a @ tau.a.T) + tau.lam * np.eye(6)
        assert np.abs(c_est - expect).max() < 1e-8

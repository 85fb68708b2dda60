import numpy as np
import pytest

from corecov import matops, spd_geometry as sg
from corecov.errors import ConfigError, DefinitenessError

from conftest import rand_lower, rand_spd, rand_sym


def unit_det_spd(q, rng):
    s = rand_spd(q, rng)
    return s / np.linalg.det(s) ** (1.0 / q)


def unit_det_chol(q, rng):
    l = np.linalg.cholesky(rand_spd(q, rng))
    return l / np.linalg.det(l) ** (1.0 / q)


class TestAiExp:
    def test_zero_velocity(self, rng):
        s = rand_spd(4, rng)
        np.testing.assert_allclose(sg.ai_exp(s, np.zeros((4, 4))), s, atol=1e-12)

    def test_identity_base(self, rng):
        v = rand_sym(3, rng)
        w, q = np.linalg.eigh(v)
        expm_v = (q * np.exp(w)) @ q.T
        np.testing.assert_allclose(sg.ai_exp(np.eye(3), v), expm_v, atol=1e-12)

    def test_initial_velocity(self, rng):
        s = rand_spd(4, rng)
        v = rand_sym(4, rng)
        eps = 1e-5
        fd = (sg.ai_exp(s, eps * v) - sg.ai_exp(s, -eps * v)) / (2 * eps)
        assert np.abs(fd - v).max() < 1e-6

    def test_unit_det_stays(self, rng):
        s = unit_det_spd(4, rng)
        v = sg.proj_unitdet_spd(s, rand_sym(4, rng))
        space = sg.UnitDetTangentSpace(s, cholesky=False)
        for t in (0.2, 0.6, 1.0):
            out = space.exp(t * v)
            assert abs(np.linalg.det(out) - 1.0) <= 1e-8


class TestAiGradHess:
    def test_zero(self, rng):
        s = rand_spd(3, rng)
        g, h = sg.ai_grad_hess(s, np.zeros((3, 3)), np.zeros((3, 3)), rand_sym(3, rng))
        assert np.abs(g).max() == 0.0 and np.abs(h).max() == 0.0

    def test_identity_base(self, rng):
        eg, ehv, v = rand_sym(3, rng), rand_sym(3, rng), rand_sym(3, rng)
        g, h = sg.ai_grad_hess(np.eye(3), eg, ehv, v)
        np.testing.assert_allclose(g, eg)
        np.testing.assert_allclose(h, ehv + matops.sym(v @ eg))

    def test_gradient_pairing_logdet(self, rng):
        s = rand_spd(4, rng)
        v = rand_sym(4, rng)
        g, _ = sg.ai_grad_hess(s, np.linalg.inv(s), np.zeros((4, 4)), v)
        eps = 1e-5
        fd = (
            np.linalg.slogdet(sg.ai_exp(s, eps * v))[1]
            - np.linalg.slogdet(sg.ai_exp(s, -eps * v))[1]
        ) / (2 * eps)
        assert abs(sg.ai_inner(s, g, v) - fd) < 1e-6

    def test_hessian_symmetric_form(self, rng):
        s = rand_spd(4, rng)
        m = rand_sym(4, rng)

        def ecalc(x):  # f(S) = tr(S M S)
            return m @ x + x @ m

        v, w = rand_sym(4, rng), rand_sym(4, rng)
        eg = ecalc(s)
        _, hv = sg.ai_grad_hess(s, eg, ecalc(v), v)
        _, hw = sg.ai_grad_hess(s, eg, ecalc(w), w)
        assert abs(sg.ai_inner(s, hv, w) - sg.ai_inner(s, hw, v)) < 1e-8


class TestProjUnitdetSpd:
    def test_kills_base(self, rng):
        s = rand_spd(4, rng)
        assert np.abs(sg.proj_unitdet_spd(s, s)).max() < 1e-12

    def test_fixed_point_and_idempotent(self, rng):
        s = rand_spd(4, rng)
        w = sg.proj_unitdet_spd(s, rand_sym(4, rng))
        np.testing.assert_allclose(sg.proj_unitdet_spd(s, w), w, atol=1e-12)
        assert abs(np.trace(np.linalg.solve(s, w))) < 1e-10

    def test_metric_orthogonal(self, rng):
        for _ in range(20):
            s = rand_spd(5, rng)
            v = rand_sym(5, rng)
            w = sg.proj_unitdet_spd(s, rand_sym(5, rng))
            assert abs(sg.ai_inner(s, v - sg.proj_unitdet_spd(s, v), w)) < 1e-10


class TestCholExp:
    def test_zero_velocity(self, rng):
        l = np.linalg.cholesky(rand_spd(4, rng))
        np.testing.assert_allclose(sg.chol_exp(l, np.zeros((4, 4))), l)

    def test_identity_base(self, rng):
        v = rand_lower(3, rng)
        expect = np.tril(v, -1) + np.diag(np.exp(np.diag(v)))
        np.testing.assert_allclose(sg.chol_exp(np.eye(3), v), expect)

    def test_initial_velocity(self, rng):
        l = np.linalg.cholesky(rand_spd(4, rng))
        v = rand_lower(4, rng)
        eps = 1e-5
        fd = (sg.chol_exp(l, eps * v) - sg.chol_exp(l, -eps * v)) / (2 * eps)
        assert np.abs(fd - v).max() < 1e-6

    def test_positive_diagonal_always(self, rng):
        l = np.linalg.cholesky(rand_spd(3, rng))
        v = 5.0 * rand_lower(3, rng)
        for t in (-1.0, 0.5, 1.0):
            assert np.diag(sg.chol_exp(l, t * v)).min() > 0

    def test_unit_det_stays(self, rng):
        l = unit_det_chol(4, rng)
        v = sg.proj_unitdet_chol(l, rand_lower(4, rng))
        out = sg.UnitDetTangentSpace(l, cholesky=True).exp(v)
        assert abs(np.linalg.det(out) - 1.0) <= 1e-8


class TestCholGradHess:
    def test_identity_base(self, rng):
        eg = rand_lower(3, rng)
        g, _ = sg.chol_grad_hess(np.eye(3), eg, np.zeros((3, 3)), np.zeros((3, 3)))
        np.testing.assert_allclose(g, eg)

    def test_zero(self, rng):
        l = np.linalg.cholesky(rand_spd(3, rng))
        g, h = sg.chol_grad_hess(l, np.zeros((3, 3)), np.zeros((3, 3)), rand_lower(3, rng))
        assert np.abs(g).max() == 0.0 and np.abs(h).max() == 0.0

    def test_gradient_pairing(self, rng):
        l = np.linalg.cholesky(rand_spd(4, rng))
        v = rand_lower(4, rng)
        eg = np.diag(1.0 / np.diag(l))  # euclid grad of sum log L_ii
        g, _ = sg.chol_grad_hess(l, eg, np.zeros((4, 4)), v)

        def f(x):
            return float(np.sum(np.log(np.diag(x))))

        eps = 1e-5
        fd = (f(sg.chol_exp(l, eps * v)) - f(sg.chol_exp(l, -eps * v))) / (2 * eps)
        assert abs(sg.chol_inner(l, g, v) - fd) < 1e-6

    def test_hessian_symmetric_form(self, rng):
        l = np.linalg.cholesky(rand_spd(4, rng))
        eg = rand_lower(4, rng)

        def ecalc(x):  # f(L) = tr(L^T L)/2 + <eg0, L>: hess = x
            return x

        v, w = rand_lower(4, rng), rand_lower(4, rng)
        _, hv = sg.chol_grad_hess(l, eg, ecalc(v), v)
        _, hw = sg.chol_grad_hess(l, eg, ecalc(w), w)
        assert abs(sg.chol_inner(l, hv, w) - sg.chol_inner(l, hw, v)) < 1e-8


class TestProjUnitdetChol:
    def test_kills_diagonal_part(self, rng):
        l = np.linalg.cholesky(rand_spd(4, rng))
        assert np.abs(sg.proj_unitdet_chol(l, matops.diag_part(l))).max() < 1e-12

    def test_fixed_point(self, rng):
        l = np.linalg.cholesky(rand_spd(4, rng))
        w = sg.proj_unitdet_chol(l, rand_lower(4, rng))
        np.testing.assert_allclose(sg.proj_unitdet_chol(l, w), w, atol=1e-12)

    def test_metric_orthogonal(self, rng):
        for _ in range(20):
            l = np.linalg.cholesky(rand_spd(5, rng))
            v = rand_lower(5, rng)
            w = sg.proj_unitdet_chol(l, rand_lower(5, rng))
            assert abs(sg.chol_inner(l, v - sg.proj_unitdet_chol(l, v), w)) < 1e-10


def test_check_chol_point(rng):
    for diag in ([1.0, -1.0], [np.nan, 1.0]):
        with pytest.raises(DefinitenessError, match="positive diagonal"):
            sg.check_chol_point(np.diag(diag))
    with pytest.raises(ValueError):
        sg.check_chol_point(np.ones((2, 2)))
    with pytest.raises(ValueError, match="square"):
        sg.check_chol_point(np.eye(2, 3))


def test_bases_are_orthonormal(rng):
    # the tangent spaces' bases, orthonormal in their metrics
    for cholesky, point, inner in ((False, unit_det_spd(4, rng), sg.ai_inner),
                                   (True, unit_det_chol(4, rng), sg.chol_inner)):
        basis = sg.UnitDetTangentSpace(point, cholesky).basis
        assert len(basis) == 4 * 5 // 2 - 1
        gram = np.array([[inner(point, a, b) for b in basis] for a in basis])
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-12


def left_looking_gram_schmidt(cands, inner):
    """Gram-Schmidt with one loop per candidate over the accepted vectors."""
    out = []
    for c in cands:
        w = c.copy()
        for b in out:
            w = w - inner(w, b) * b
        nrm = inner(w, w)
        if nrm > sg._GS_TOL:
            out.append(w / np.sqrt(nrm))
    return np.array(out)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_unitdet_bases_match_left_looking_gram_schmidt(rng, q):
    # the right-looking elimination meets every candidate with the accepted
    # vectors in the same order, so each basis keeps the loop's bits; the
    # unit-determinant projection leaves one candidate dependent, dropped
    s = unit_det_spd(q, rng)
    l = unit_det_chol(q, rng)
    for basis, cands, inner in (
        (sg.ai_unitdet_basis(s), sg.proj_unitdet_spd(s, sg.sym_basis(q)),
         lambda a, b: sg.ai_inner(s, a, b)),
        (sg.chol_unitdet_basis(l), sg.proj_unitdet_chol(l, sg.lower_basis(q)),
         lambda a, b: sg.chol_inner(l, a, b)),
    ):
        assert len(cands) == q * (q + 1) // 2
        assert basis.shape == (q * (q + 1) // 2 - 1, q, q)
        assert basis.tobytes() == left_looking_gram_schmidt(cands, inner).tobytes()


def right_looking_gram_schmidt(cands, inner):
    """Right-looking modified Gram-Schmidt over a whole (m, q, q) stack."""
    w = np.array(cands, dtype=float)
    keep = []
    for i in range(len(w)):
        nrm = inner(w[i], w[i])
        if nrm > sg._GS_TOL:
            w[i] = w[i] / np.sqrt(nrm)
            keep.append(i)
            w[i + 1 :] = w[i + 1 :] - inner(w[i + 1 :], w[i])[:, None, None] * w[i]
    return w[keep]


@pytest.mark.parametrize("q", range(2, 9))
def test_chol_basis_matches_gram_schmidt_over_all_candidates(rng, q):
    # orthonormalizing only the projected diagonal units leaves the bytes of
    # Gram-Schmidt over all lower units, also when a diagonal entry near
    # 1e8 makes a projected unit too short to keep
    spread = np.ones(q)
    spread[q // 2] = 1e8
    for diag in (np.exp(rng.uniform(-1.0, 1.0, q)), spread, spread[::-1] * 1e-8):
        l = np.tril(rng.standard_normal((q, q)), -1) + np.diag(diag)
        cands = sg.proj_unitdet_chol(l, sg.lower_basis(q))
        want = right_looking_gram_schmidt(cands, lambda a, b: sg.chol_inner(l, a, b))
        basis = sg.chol_unitdet_basis(l)
        assert basis.shape == want.shape == (q * (q + 1) // 2 - 1, q, q)
        assert basis.tobytes() == want.tobytes()

def loop_sym_basis(q):
    basis = [np.diag(np.eye(q)[i]) for i in range(q)]
    for i in range(q):
        for j in range(i + 1, q):
            e = np.zeros((q, q))
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
    return basis


def loop_lower_basis(q):
    return [np.outer(np.eye(q)[i], np.eye(q)[j]) for i in range(q) for j in range(i + 1)]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_euclidean_bases_are_index_built_stacks(q):
    # same elements in the same order as the per-element loops: the order
    # fixes the Gram-Schmidt output bit for bit
    assert np.array_equal(sg.sym_basis(q), loop_sym_basis(q))
    assert np.array_equal(sg.lower_basis(q), loop_lower_basis(q))


class TestBroadcastOverStacks:
    # each operator on a stack of tangents gives exactly the per-matrix results

    @pytest.mark.parametrize("q", [3, 5, 10])
    def test_affine_invariant(self, rng, q):
        s = rand_spd(q, rng)
        u = rand_sym(q, rng)
        stack = np.array([rand_sym(q, rng) for _ in range(6)])
        assert np.array_equal(sg.ai_inner(s, u, stack), [sg.ai_inner(s, u, v) for v in stack])
        assert np.array_equal(sg.ai_inner(s, stack, u), [sg.ai_inner(s, v, u) for v in stack])
        assert np.array_equal(sg.ai_inner(s, stack, stack), [sg.ai_inner(s, v, v) for v in stack])
        assert np.array_equal(
            sg.proj_unitdet_spd(s, stack), [sg.proj_unitdet_spd(s, v) for v in stack]
        )
        g, h = sg.ai_grad_hess(s, u, stack, stack[::-1])
        assert np.array_equal(g, sg.ai_grad_hess(s, u, stack[0], stack[-1])[0])
        assert np.array_equal(
            h, [sg.ai_grad_hess(s, u, e, v)[1] for e, v in zip(stack, stack[::-1])]
        )

    @pytest.mark.parametrize("q", [3, 5, 10])
    def test_cholesky(self, rng, q):
        l = np.linalg.cholesky(rand_spd(q, rng))
        u = rand_lower(q, rng)
        stack = np.array([rand_lower(q, rng) for _ in range(6)])
        assert np.array_equal(sg.chol_inner(l, u, stack), [sg.chol_inner(l, u, v) for v in stack])
        assert np.array_equal(sg.chol_inner(l, stack, u), [sg.chol_inner(l, v, u) for v in stack])
        assert np.array_equal(
            sg.chol_inner(l, stack, stack), [sg.chol_inner(l, v, v) for v in stack]
        )
        assert np.array_equal(
            sg.proj_unitdet_chol(l, stack), [sg.proj_unitdet_chol(l, v) for v in stack]
        )
        g, h = sg.chol_grad_hess(l, u, stack, stack[::-1])
        assert np.array_equal(g, sg.chol_grad_hess(l, u, stack[0], stack[-1])[0])
        assert np.array_equal(
            h, [sg.chol_grad_hess(l, u, e, v)[1] for e, v in zip(stack, stack[::-1])]
        )

    def test_unitdet_bases_are_stacks(self, rng):
        s = unit_det_spd(4, rng)
        assert sg.ai_unitdet_basis(s).shape == (9, 4, 4)
        assert sg.chol_unitdet_basis(np.linalg.cholesky(s)).shape == (9, 4, 4)


class TestUnitDetTangentSpace:
    # (point, inner product, unit-determinant projection) of each metric
    KINDS = {False: (unit_det_spd, sg.ai_inner, sg.proj_unitdet_spd),
             True: (unit_det_chol, sg.chol_inner, sg.proj_unitdet_chol)}

    @pytest.mark.parametrize("cholesky", [False, True])
    @pytest.mark.parametrize("q", [2, 4, 6])
    def test_tangent_of_coordinates(self, rng, cholesky, q):
        # the coordinates of v in the orthonormal basis give back v, once v
        # has the structure of the space and lies in it
        make_point, inner, proj = self.KINDS[cholesky]
        point = make_point(q, rng)
        space = sg.UnitDetTangentSpace(point, cholesky)
        v = proj(point, space.part(rng.standard_normal((q, q))))
        w = space.tangent(inner(point, v, space.basis))
        assert np.abs(w - v).max() < 1e-10 * np.abs(v).max()

    @pytest.mark.parametrize("cholesky", [False, True])
    def test_norm(self, rng, cholesky):
        make_point, inner, proj = self.KINDS[cholesky]
        point = make_point(4, rng)
        space = sg.UnitDetTangentSpace(point, cholesky)
        v = proj(point, space.part(rng.standard_normal((4, 4))))
        assert space.norm(v) ** 2 == pytest.approx(inner(point, v, v), rel=1e-14)

    @pytest.mark.parametrize("cholesky", [False, True])
    def test_exp_keeps_unit_det_and_structure(self, rng, cholesky):
        make_point, inner, proj = self.KINDS[cholesky]
        point = make_point(4, rng)
        space = sg.UnitDetTangentSpace(point, cholesky)
        # the normal direction at the point, which exp projects away
        normal = np.diag(np.diag(point)) if cholesky else point
        for scale in (0.1, 0.2, 0.6, 1.0):
            v = scale * space.tangent(rng.standard_normal(len(space.basis)))
            x = space.exp(v)
            assert abs(np.linalg.det(x) - 1.0) < 1e-12
            assert np.array_equal(space.part(x), x)
            assert np.abs(space.exp(v + scale * normal) - x).max() < 1e-12

    def test_exp_rejects_a_cholesky_point_with_an_upper_triangle(self, rng):
        point = unit_det_chol(4, rng)
        point[0, 3] = 0.5
        space = sg.UnitDetTangentSpace(point, cholesky=True)
        with pytest.raises(ConfigError, match="strict upper triangle"):
            space.exp(space.tangent(rng.standard_normal(len(space.basis))))

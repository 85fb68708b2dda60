import numpy as np
import pytest

from corecov import core_geometry, kcd, matops, simulate, spd_geometry
from corecov.errors import ConfigError, DefinitenessError, NoKroneckerMle
from corecov.kcd import SquareRootKind

from conftest import rand_spd, rand_sym

DIMS22 = matops.Dims(2, 2)
DIMS32 = matops.Dims(3, 2)


def nonexistence_gram():
    """Gram matrix of (E11, E12, E22): admits no Kronecker MLE."""
    f = np.zeros((4, 3))
    f[:, 0] = matops.vec(np.array([[1.0, 0.0], [0.0, 0.0]]))
    f[:, 1] = matops.vec(np.array([[0.0, 1.0], [0.0, 0.0]]))
    f[:, 2] = matops.vec(np.array([[0.0, 0.0], [0.0, 1.0]]))
    return f @ f.T


def rand_factor(q, cond, rng):
    """Randomly rotated SPD matrix with eigenvalues log-spaced over [1, cond]."""
    rot, _ = np.linalg.qr(rng.standard_normal((q, q)))
    return matops.sym((rot * np.logspace(0, np.log10(cond), q)) @ rot.T)


def ill_conditioned_split(dims, rng):
    """(sep, Sigma = h C h^T): factors rotated randomly, with eigenvalues
    log-spaced over [1, 1e6], about the Cholesky-root core of a sample
    covariance, h = h(sep) the Cholesky root.  C has exact partial traces, so
    sep is the Kronecker MLE of Sigma."""
    g = rng.standard_normal((dims.p, 40))
    c = kcd.kcd(g @ g.T / 40, dims, SquareRootKind.CHOLESKY).c
    k1, k2 = (rand_factor(q, 1e6, rng) for q in (dims.p1, dims.p2))
    det1 = matops.det_root(k1)
    sep = kcd.SeparableCovariance(k1=k1 / det1, k2=k2 * det1)
    h = sep.h_matrix(SquareRootKind.CHOLESKY)
    return sep, matops.sym(h @ c @ h.T)


class TestKroneckerMle:
    def test_separable_input(self, rng):
        a = rand_spd(2, rng)
        b = rand_spd(3, rng)
        dims = matops.Dims(2, 3)
        sep = kcd.kronecker_mle(matops.kron(b, a), dims)
        np.testing.assert_allclose(sep.matrix, matops.kron(b, a), atol=1e-10)
        det_a = np.linalg.det(a) ** (1.0 / 2.0)
        np.testing.assert_allclose(sep.k1, a / det_a, atol=1e-10)
        np.testing.assert_allclose(sep.k2, b * det_a, atol=1e-10)

    def test_identity(self):
        sep = kcd.kronecker_mle(np.eye(6), DIMS32)
        np.testing.assert_allclose(sep.k1, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(sep.k2, np.eye(2), atol=1e-12)

    def test_nonexistence_example(self):
        with pytest.raises(NoKroneckerMle):
            kcd.kronecker_mle(nonexistence_gram(), DIMS22)

    def test_no_false_triggers(self):
        for s in range(50):
            r = np.random.default_rng(1000 + s)
            kcd.kronecker_mle(rand_spd(4, r), DIMS22)

    def test_objective_nonincreasing(self, rng):
        sigma = rand_spd(6, rng)
        sep = kcd.kronecker_mle(sigma, DIMS32)
        # final objective is at most the identity start
        start = kcd.kl_objective(np.eye(3), np.eye(2), sigma, DIMS32)
        end = kcd.kl_objective(sep.k1, sep.k2, sigma, DIMS32)
        assert end <= start + 1e-12

    def test_equivariance(self, rng):
        sigma = rand_spd(4, rng)
        g1 = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        g2 = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        g = matops.kron(g2, g1)
        lhs = kcd.kronecker_mle(g @ sigma @ g.T, DIMS22).matrix
        rhs = g @ kcd.kronecker_mle(sigma, DIMS22).matrix @ g.T
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            kcd.kronecker_mle(np.diag([1.0, 1.0, 1.0, -1.0]), DIMS22)

    def test_rejects_zero(self):
        with pytest.raises(DefinitenessError, match="zero"):
            kcd.kronecker_mle(np.zeros((6, 6)), DIMS32)

    def test_condition_limit(self):
        # K2 = diag(1, 1e-14) has condition number 1e14, past _COND_LIMIT
        # (1e12): the flip-flop reports it as a collapsing iterate.  At 1e10
        # and 1e11 it stays under the limit and the separable input is
        # reproduced; a limit 100x looser or tighter fails one of the cases
        with pytest.raises(NoKroneckerMle, match="condition number"):
            kcd.kronecker_mle(matops.kron(np.diag([1.0, 1e-14]), np.eye(3)), DIMS32)
        for small in (1e-10, 1e-11):
            sigma = matops.kron(np.diag([1.0, small]), np.eye(3))
            sep = kcd.kronecker_mle(sigma, DIMS32)
            np.testing.assert_allclose(sep.matrix, sigma, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-14, 1e-21, 1e21])
    def test_input_of_any_scale(self, scale):
        # data x scale multiplies S by c = scale^2, and det(K1) of the first
        # sweep by c^12, past the float range: K1 keeps its unit-scale value
        # and K2 takes the whole scale c
        dims = matops.Dims(12, 10, 6)
        y = matops.vec(simulate.gen_data(
            simulate.gen_truth("m2", dims, 0.2, 1).sigma, 240, 2, dims))
        s, c = y.T @ y / 240, scale**2
        unit, sep = kcd.kronecker_mle(s, dims), kcd.kronecker_mle(c * s, dims)
        assert np.abs(sep.k1 - unit.k1).max() <= 1e-10 * np.abs(unit.k1).max()
        assert np.abs(sep.k2 / c - unit.k2).max() <= 1e-10 * np.abs(unit.k2).max()
        for m in (1e200, 1e-200):
            sep = kcd.kronecker_mle(m * np.eye(12), matops.Dims(4, 3))
            np.testing.assert_allclose(sep.k1, np.eye(4), rtol=0, atol=1e-12)
            np.testing.assert_allclose(sep.k2, m * np.eye(3), rtol=1e-12, atol=0)

    def test_flip_flop_takes_a_retraction_intermediate(self):
        # D = sym(AA^T + AV^T + VA^T) = (A + V)(A + V)^T - VV^T dips below zero:
        # the retraction's flip-flop has no input gate, kronecker_mle rejects D
        dims = matops.Dims(4, 3, 3)
        a = core_geometry.random_core_factor(dims, 3)
        v = 0.05 * np.random.default_rng(4).standard_normal(a.shape)
        d = matops.sym(a @ a.T + a @ v.T + v @ a.T)
        w = np.linalg.eigvalsh(d)
        assert w[0] < -matops.RESIDUAL_TOL * w[-1]
        sep = kcd._flip_flop(d, dims)
        assert np.linalg.det(sep.k1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(sep.k2)[0] > 0.0
        with pytest.raises(DefinitenessError, match="not PSD"):
            kcd.kronecker_mle(d, dims)

    @pytest.mark.xfail(strict=True, raises=NoKroneckerMle,
                       reason="the flip-flop stalls at factor condition 1e6 (ROADMAP item 14)")
    @pytest.mark.parametrize("seed", [0, 2, 4, 6, 7, 8, 10, 11, 17, 19])
    def test_ill_conditioned_factors(self, seed):
        # the other 10 of seeds 0-19 return K within 1.3e-6; these still
        # decrease by 4e-7 to 1e-5 after 500 sweeps, though the MLE exists
        dims = matops.Dims(4, 3)
        sep, sigma = ill_conditioned_split(dims, np.random.default_rng(seed))
        got = kcd.kronecker_mle(sigma, dims).matrix
        assert np.abs(got - sep.matrix).max() <= 1e-4 * np.abs(sep.matrix).max()

    def test_converging_run_skips_objective(self, rng, monkeypatch):
        # the objective is read only to classify a run that hits the sweep cap
        calls = []
        objective = kcd.kl_objective

        def counted(*args):
            calls.append(args)
            return objective(*args)

        monkeypatch.setattr(kcd, "kl_objective", counted)
        kcd.kronecker_mle(rand_spd(6, rng), DIMS32)
        assert calls == []
        with pytest.raises(NoKroneckerMle, match="still decreasing"):
            kcd.kronecker_mle(nonexistence_gram(), DIMS22)
        assert len(calls) == 2


class TestKcd:
    @pytest.mark.parametrize("op", ["kcd", "dk", "dc"])
    def test_shape_checked_before_symmetrizing(self, op, rng):
        sigma = rng.standard_normal((6, 5))
        call = {
            "kcd": lambda: kcd.kcd(sigma, DIMS32, SquareRootKind.SYMMETRIC),
            "dk": lambda: kcd.dk(sigma, np.eye(6), DIMS32),
            "dc": lambda: kcd.dc(sigma, np.eye(6), DIMS32, SquareRootKind.SYMMETRIC),
        }[op]
        with pytest.raises(ValueError, match=r"expected 6x6 input, got \(6, 5\)"):
            call()

    def test_rejects_asymmetric_and_non_finite_input(self):
        # sym(M) of an asymmetric M is not decomposed without a word; an
        # asymmetry at rounding level, within the relative RESIDUAL_TOL, is
        sigma = rand_spd(6, np.random.default_rng(34))
        bumped = sigma.copy()
        bumped[0, 1] += 0.1
        with pytest.raises(ConfigError, match="^matrix is not symmetric$"):
            kcd.kcd(bumped, DIMS32, SquareRootKind.SYMMETRIC)
        bumped[0, 1] = sigma[0, 1] + 1e-12
        kcd.kcd(bumped, DIMS32, SquareRootKind.SYMMETRIC)
        bumped[1, 2] = bumped[2, 1] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            kcd.kcd(bumped, DIMS32, SquareRootKind.CHOLESKY)

    @pytest.mark.parametrize("defect, message", [
        ("nan", "^matrix contains non-finite values$"),
        ("inf", "^matrix contains non-finite values$"),
        ("bump", "^matrix is not symmetric$"),
    ])
    @pytest.mark.parametrize("op", ["kronecker_mle", "dk", "dc"])
    def test_every_entry_point_has_the_input_gate(self, op, defect, message):
        # the gate sits in kronecker_mle, so the differentials inherit kcd's
        sigma = rand_spd(6, np.random.default_rng(34))
        if defect == "bump":
            sigma[0, 1] += 0.1
        else:
            sigma[1, 2] = sigma[2, 1] = float(defect)
        call = {
            "kronecker_mle": lambda: kcd.kronecker_mle(sigma, DIMS32),
            "dk": lambda: kcd.dk(sigma, np.eye(6), DIMS32),
            "dc": lambda: kcd.dc(sigma, np.eye(6), DIMS32, SquareRootKind.CHOLESKY),
        }[op]
        with pytest.raises(ConfigError, match=message):
            call()

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_round_trip_and_core(self, kind, rng):
        sigma = rand_spd(6, rng)
        dec = kcd.kcd(sigma, DIMS32, kind)
        err = np.linalg.norm(dec.reconstruct() - sigma) / np.linalg.norm(sigma)
        assert err <= 1e-10
        core_geometry.check_core_matrix(dec.c, DIMS32)
        assert abs(np.trace(dec.c) - 6.0) < 1e-8

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_holds_the_roots_it_whitened_by(self, kind, rng):
        # the roots and the rebuilt Sigma have the bytes of a fresh root pair
        sigma = rand_spd(6, rng)
        dec = kcd.kcd(sigma, DIMS32, kind)
        for got, fresh in zip(dec.roots, dec.k.sqrt_factors(kind), strict=True):
            assert got.tobytes() == fresh.tobytes()
        h = dec.k.h_matrix(kind)
        assert dec.reconstruct().tobytes() == (h @ dec.c @ h.T).tobytes()

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_core_of_separable_is_identity(self, kind, rng):
        sigma = matops.kron(rand_spd(2, rng), rand_spd(3, rng))
        np.testing.assert_allclose(
            kcd.kcd(sigma, matops.Dims(3, 2), kind).c, np.eye(6), atol=1e-8
        )

    def test_core_is_fixed_point(self, rng):
        sigma = rand_spd(6, rng)
        c = kcd.kcd(sigma, DIMS32, SquareRootKind.SYMMETRIC).c
        np.testing.assert_allclose(
            kcd.kcd(c, DIMS32, SquareRootKind.SYMMETRIC).c, c, atol=1e-8
        )

    def test_k_of_core_is_identity(self, rng):
        sigma = rand_spd(6, rng)
        c = kcd.kcd(sigma, DIMS32, SquareRootKind.CHOLESKY).c
        np.testing.assert_allclose(
            kcd.kronecker_mle(c, DIMS32).matrix, np.eye(6), atol=1e-6
        )

    def test_rank_preserved(self, rng):
        g = rng.standard_normal((6, 4))
        sigma = g @ g.T  # rank 4 > 3/2 + 2/3
        dec = kcd.kcd(sigma, DIMS32, SquareRootKind.SYMMETRIC)
        w = np.linalg.eigvalsh(dec.c)
        assert (w > 1e-10 * w[-1]).sum() == 4


    @pytest.mark.parametrize("h_kind", ["chol", "bogus"])
    def test_rejects_unknown_root_kind_before_flip_flop(self, h_kind, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("the flip-flop ran before the root kind was checked")

        monkeypatch.setattr(kcd, "kronecker_mle", ran)
        with pytest.raises(ValueError, match="must be a SquareRootKind"):
            kcd.kcd(np.eye(6), DIMS32, h_kind)


class TestDh:
    def test_zero_tangent(self, rng):
        sep = kcd.SeparableCovariance(k1=np.eye(2), k2=np.eye(2))
        for kind in SquareRootKind:
            out = kcd.dh(sep, np.zeros((2, 2)), np.zeros((2, 2)), kind)
            assert np.abs(out).max() == 0.0

    def test_identity_cholesky_closed_form(self, rng):
        sep = kcd.SeparableCovariance(k1=np.eye(2), k2=np.eye(2))
        u1, u2 = rand_sym(2, rng), rand_sym(2, rng)
        expect = matops.half(matops.kron(np.eye(2), u1) + matops.kron(u2, np.eye(2)))
        np.testing.assert_allclose(
            kcd.dh(sep, u1, u2, SquareRootKind.CHOLESKY), expect, atol=1e-12
        )

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_finite_differences(self, kind, rng):
        k1 = rand_spd(2, rng)
        k1 /= np.linalg.det(k1) ** 0.5
        k2 = rand_spd(2, rng)
        sep = kcd.SeparableCovariance(k1=k1, k2=k2)
        u1, u2 = rand_sym(2, rng), rand_sym(2, rng)
        eps = 1e-5

        def h_at(t):
            return kcd.SeparableCovariance(k1=k1 + t * u1, k2=k2 + t * u2).h_matrix(kind)

        fd = (h_at(eps) - h_at(-eps)) / (2 * eps)
        np.testing.assert_allclose(kcd.dh(sep, u1, u2, kind), fd, atol=1e-6)

    @pytest.mark.parametrize("h_kind", ["chol", None])
    def test_rejects_unknown_root_kind(self, h_kind, rng):
        # any value but CHOLESKY used to give the symmetric root, even "chol"
        sep = kcd.SeparableCovariance(k1=np.eye(2), k2=rand_spd(3, rng))
        u1, u2 = rand_sym(2, rng), rand_sym(3, rng)
        for call in (
            lambda: kcd.dh(sep, u1, u2, h_kind),
            lambda: sep.h_matrix(h_kind),
            lambda: sep.sqrt_factors(h_kind),
        ):
            with pytest.raises(ValueError, match="must be a SquareRootKind"):
                call()

    @pytest.mark.parametrize("p1, p2", [(3, 2), (4, 3), (6, 4)])
    def test_defining_equation(self, p1, p2, rng):
        # h(K) R^T + R h(K)^T = U for both branches, with factors of two sizes
        k1 = rand_spd(p1, rng)
        k2 = rand_spd(p2, rng)
        sep = kcd.SeparableCovariance(k1=k1, k2=k2)
        u1, u2 = rand_sym(p1, rng), rand_sym(p2, rng)
        u = kcd.separable_tangent(sep, u1, u2)
        for kind in SquareRootKind:
            h = sep.h_matrix(kind)
            r = kcd.dh(sep, u1, u2, kind)
            np.testing.assert_allclose(h @ r.T + r @ h.T, u, atol=1e-9)

    def test_solves_only_factor_sized_systems(self, rng, monkeypatch):
        # the product rule differentiates each factor root on its own: no
        # p x p Sylvester system and no Kronecker product with an identity
        sizes = []
        sylvester, kron = core_geometry.sylvester_solve, matops.kron

        def sized_sylvester(e, v):
            sizes.append(len(e))
            return sylvester(e, v)

        def no_identity_kron(b, a):
            for m in (b, a):
                assert not np.array_equal(m, np.eye(len(m))), "kron with an identity"
            return kron(b, a)

        monkeypatch.setattr(core_geometry, "sylvester_solve", sized_sylvester)
        monkeypatch.setattr(matops, "kron", no_identity_kron)
        sep = kcd.SeparableCovariance(k1=rand_spd(3, rng), k2=rand_spd(2, rng))
        for kind in SquareRootKind:
            kcd.dh(sep, rand_sym(3, rng), rand_sym(2, rng), kind)
        assert sorted(sizes) == [2, 3]


class TestRcOperator:
    def _base(self, rng):
        sigma = rand_spd(4, rng)
        return sigma, kcd.kronecker_mle(sigma, DIMS22)

    def _tangent(self, s1, rng):
        w1 = spd_geometry.proj_unitdet_spd(s1, rand_sym(2, rng))
        w2 = rand_sym(2, rng)
        return w1, w2

    def test_identity_core(self, rng):
        # C = I exactly when Sigma = K: R_C is the identity
        s1 = rand_spd(2, rng)
        s1 /= np.linalg.det(s1) ** 0.5
        sep = kcd.SeparableCovariance(k1=s1, k2=rand_spd(2, rng))
        w1, w2 = self._tangent(s1, rng)
        x1, x2 = kcd.rc_operator(sep.matrix, sep, DIMS22)(w1, w2)
        np.testing.assert_allclose(x1, w1, atol=1e-12)
        np.testing.assert_allclose(x2, w2, atol=1e-12)

    @pytest.mark.parametrize("p1, p2", [(2, 2), (4, 3), (6, 4)])
    def test_is_the_core_form(self, p1, p2, rng):
        # the map written in the symmetric-root core C of Sigma, conjugated
        # by the factor roots, is the map written in Sigma and K
        dims = matops.Dims(p1, p2)
        sigma = rand_spd(dims.p, rng)
        sep = kcd.kronecker_mle(sigma, dims)
        (s1h, s1ih), (s2h, s2ih) = (matops.spd_half_powers(k) for k in (sep.k1, sep.k2))
        c = matops.whiten(matops.kron(s2h, s1h), sigma)
        r_c = kcd.rc_operator(sigma, sep, dims)
        for _ in range(5):
            w1 = spd_geometry.proj_unitdet_spd(sep.k1, rand_sym(p1, rng))
            w2 = rand_sym(p2, rng)
            w1b, w2b = matops.sym(s1ih @ w1 @ s1ih), matops.sym(s2ih @ w2 @ s2ih)
            m1 = matops.weighted_partial_trace_1(c, w2b, dims)
            m2 = matops.weighted_partial_trace_2(c, w1b, dims)
            x1 = w1 + (s1h @ m1 @ s1h - np.trace(w2b) * sep.k1) / p2
            x2 = w2 + s2h @ m2 @ s2h / p1
            for got, ref in zip(r_c(w1, w2), (x1, x2), strict=True):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zero(self, rng):
        sigma, sep = self._base(rng)
        x1, x2 = kcd.rc_operator(sigma, sep, DIMS22)(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.abs(x1).max() == 0.0 and np.abs(x2).max() == 0.0

    def test_solve_rejects_a_rank_deficient_system(self, rng, monkeypatch):
        # an R_C that drops U1: the columns of the K1 basis are zero
        sigma, sep = self._base(rng)
        monkeypatch.setattr(kcd, "rc_operator", lambda *args: lambda w1, w2: (0 * w1, w2))
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            kcd.rc_solve(sigma, sep, sep.k1, sep.k2, DIMS22)

    def test_solve_round_trip(self, rng):
        sigma, sep = self._base(rng)
        r_c = kcd.rc_operator(sigma, sep, DIMS22)
        for _ in range(5):
            w1, w2 = self._tangent(sep.k1, rng)
            m1, m2 = r_c(w1, w2)
            u1, u2 = kcd.rc_solve(sigma, sep, m1, m2, DIMS22)
            assert np.abs(u1 - w1).max() < 1e-8
            assert np.abs(u2 - w2).max() < 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_solve_with_ill_conditioned_factors(self, seed):
        # rotated factors with eigenvalues log-spaced over [1, 1e6] about a
        # core, Cholesky roots: the columns of the dense R_C span eight orders of
        # magnitude, and an unscaled lstsq called the system rank deficient
        dims, rng = matops.Dims(4, 3), np.random.default_rng(seed)
        sep, sigma = ill_conditioned_split(dims, rng)
        r_c = kcd.rc_operator(sigma, sep, dims)
        u1 = spd_geometry.proj_unitdet_spd(sep.k1, rand_sym(dims.p1, rng))
        m = r_c(u1, rand_sym(dims.p2, rng))
        back = r_c(*kcd.rc_solve(sigma, sep, *m, dims))
        err = max(np.abs(x - y).max() for x, y in zip(back, m, strict=True))
        assert err <= 1e-8 * max(np.abs(y).max() for y in m)

    def test_preserves_tangency(self, rng):
        sigma, sep = self._base(rng)
        w1, w2 = self._tangent(sep.k1, rng)
        x1, _ = kcd.rc_operator(sigma, sep, DIMS22)(w1, w2)
        assert abs(np.trace(np.linalg.solve(sep.k1, x1))) < 1e-10


class TestDk:
    def test_separable_tangent_fixed_point(self, rng):
        sigma = matops.kron(rand_spd(2, rng), rand_spd(2, rng))
        sep = kcd.kronecker_mle(sigma, DIMS22)
        v = kcd.separable_tangent(sep, rand_sym(2, rng), rand_sym(2, rng))
        u1, u2 = kcd.dk(sigma, v, DIMS22)
        np.testing.assert_allclose(
            kcd.separable_tangent(sep, u1, u2), v, atol=1e-10
        )

    def test_closed_form_at_separable(self, rng):
        # C = I: the R_C solve must agree with the explicit projection formula
        sigma = matops.kron(rand_spd(2, rng), rand_spd(2, rng))
        sep = kcd.kronecker_mle(sigma, DIMS22)
        v = rand_sym(4, rng)
        u1, u2 = kcd.dk(sigma, v, DIMS22)
        s1, s2 = sep.k1, sep.k2
        r1 = matops.spd_half_powers(s1)[0]
        r2 = matops.spd_half_powers(s2)[0]
        kih = matops.kron(np.linalg.inv(r2), np.linalg.inv(r1))
        vt = matops.sym(kih @ v @ kih)
        t1 = matops.weighted_partial_trace_1(vt, np.eye(2), DIMS22)
        t2 = matops.weighted_partial_trace_2(vt, np.eye(2), DIMS22)
        closed = (
            matops.kron(r2 @ t2 @ r2, s1) / 2.0
            + matops.kron(s2, r1 @ t1 @ r1) / 2.0
            - np.trace(vt) / 4.0 * matops.kron(s2, s1)
        )
        np.testing.assert_allclose(
            kcd.separable_tangent(sep, u1, u2), closed, atol=1e-10
        )

    def test_finite_differences(self, rng):
        sigma = rand_spd(4, rng)
        v = rand_sym(4, rng)
        eps = 1e-5
        kp = kcd.kronecker_mle(sigma + eps * v, DIMS22).matrix
        km = kcd.kronecker_mle(sigma - eps * v, DIMS22).matrix
        fd = (kp - km) / (2 * eps)
        sep = kcd.kronecker_mle(sigma, DIMS22)
        u1, u2 = kcd.dk(sigma, v, DIMS22)
        np.testing.assert_allclose(
            kcd.separable_tangent(sep, u1, u2), fd, atol=1e-5
        )

    def test_half_powers_computed_once(self, rng, monkeypatch):
        # R_C reads Sigma and its Kronecker MLE: dk takes no factor root and
        # whitens nothing
        calls = []

        def counted(name):
            real = getattr(matops, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(matops, name, wrapped)

        for name in ("spd_half_powers", "whiten", "kron"):
            counted(name)
        kcd.dk(rand_spd(12, rng), rand_sym(12, rng), matops.Dims(4, 3))
        assert calls == []


class TestTangentGate:
    # every differential checks its tangent with matops.check_tangent, so a
    # NaN raises instead of giving a NaN result
    @pytest.mark.parametrize("defect", ["nan", "shape"])
    @pytest.mark.parametrize("op", ["dk", "dc-sym", "dc-chol", "dh-sym", "dh-chol",
                                    "dg-sym", "dg-chol"])
    def test_rejects_a_bad_tangent(self, op, defect, rng):
        sigma = rand_spd(6, rng)
        dec = kcd.kcd(sigma, DIMS32, SquareRootKind.SYMMETRIC)
        u1, u2, v = rand_sym(3, rng), rand_sym(2, rng), rand_sym(6, rng)
        if defect == "nan":
            u1[0, 1] = u1[1, 0] = v[0, 1] = v[1, 0] = np.nan
            message = "non-finite"
        else:
            u1, v = rand_sym(2, rng), rand_sym(5, rng)
            message = "expected size"
        name, _, root = op.partition("-")
        kind = SquareRootKind.CHOLESKY if root == "chol" else SquareRootKind.SYMMETRIC
        call = {
            "dk": lambda: kcd.dk(sigma, v, DIMS32),
            "dc": lambda: kcd.dc(sigma, v, DIMS32, kind),
            "dh": lambda: kcd.dh(dec.k, u1, u2, kind),
            "dg": lambda: kcd.dg(dec.k, dec.c, np.zeros((3, 3)), u2, v, kind),
        }[name]
        with pytest.raises(ConfigError, match=message):
            call()


class TestDcDg:
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_dc_finite_differences(self, kind, rng):
        sigma = rand_spd(4, rng)
        v = rand_sym(4, rng)
        eps = 1e-5
        fd = (
            kcd.kcd(sigma + eps * v, DIMS22, kind).c
            - kcd.kcd(sigma - eps * v, DIMS22, kind).c
        ) / (2 * eps)
        np.testing.assert_allclose(kcd.dc(sigma, v, DIMS22, kind), fd, atol=1e-5)

    def test_dc_runs_flip_flop_once(self, rng, monkeypatch):
        # dc and the dk inside it share one Kronecker MLE of Sigma
        calls = []
        mle = kcd.kronecker_mle

        def counted(*args, **kwargs):
            calls.append(args)
            return mle(*args, **kwargs)

        monkeypatch.setattr(kcd, "kronecker_mle", counted)
        kcd.dc(rand_spd(4, rng), rand_sym(4, rng), DIMS22, SquareRootKind.SYMMETRIC)
        assert len(calls) == 1

    def test_dc_builds_the_symmetric_root_once(self, rng, monkeypatch):
        # one factor root per factor serves h(K) and the correction, and R_C
        # reads Sigma and K, so it needs no root: Sigma and V whitened once
        # each, and no half power beyond the symmetric roots
        whitened, roots = [], []
        whiten, half_powers, chol = matops.whiten, matops.spd_half_powers, matops.chol

        def counted_whiten(h, m):
            whitened.append(m)
            return whiten(h, m)

        def counted_half_powers(k):
            roots.append("half")
            return half_powers(k)

        def counted_chol(k):
            roots.append("chol")
            return chol(k)

        monkeypatch.setattr(matops, "whiten", counted_whiten)
        monkeypatch.setattr(matops, "spd_half_powers", counted_half_powers)
        monkeypatch.setattr(matops, "chol", counted_chol)
        sigma, v = rand_spd(12, rng), rand_sym(12, rng)
        kcd.dc(sigma, v, matops.Dims(4, 3), SquareRootKind.SYMMETRIC)
        assert len(whitened) == 2 and roots == ["half"] * 2
        # the Cholesky root: its two factors and no symmetric root; Sigma,
        # V and the two factor tangents whitened once each
        roots.clear()
        whitened.clear()
        kcd.dc(sigma, v, matops.Dims(4, 3), SquareRootKind.CHOLESKY)
        assert len(whitened) == 4 and roots == ["chol"] * 2

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_dc_correction_solves_only_factor_sized_systems(self, kind, rng,
                                                            monkeypatch):
        # h^-1 dh is formed factor-wise from the root differentials: the only
        # p x p systems left are the whitenings of Sigma and V
        whitening = []
        solve, whiten = np.linalg.solve, matops.whiten

        def factor_solve(a, b):
            assert whitening or len(a) < 12, "p x p solve outside whitening"
            return solve(a, b)

        def marked_whiten(h, m):
            whitening.append(True)
            try:
                return whiten(h, m)
            finally:
                whitening.pop()

        monkeypatch.setattr(np.linalg, "solve", factor_solve)
        monkeypatch.setattr(matops, "whiten", marked_whiten)
        sigma, v = rand_spd(12, rng), rand_sym(12, rng)
        got = kcd.dc(sigma, v, matops.Dims(4, 3), kind)
        monkeypatch.undo()
        eps = 1e-5
        fd = (kcd.kcd(sigma + eps * v, matops.Dims(4, 3), kind).c
              - kcd.kcd(sigma - eps * v, matops.Dims(4, 3), kind).c) / (2 * eps)
        np.testing.assert_allclose(got, fd, atol=1e-5)

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_dg_finite_differences(self, kind, rng):
        sigma = rand_spd(4, rng)
        dec = kcd.kcd(sigma, DIMS22, kind)
        u1, u2 = rand_sym(2, rng), rand_sym(2, rng)
        w = core_geometry.tangent_project_full(rand_sym(4, rng), DIMS22)
        eps = 1e-5

        def g_at(t):
            s = kcd.SeparableCovariance(k1=dec.k.k1 + t * u1, k2=dec.k.k2 + t * u2)
            h = s.h_matrix(kind)
            return h @ (dec.c + t * w) @ h.T

        fd = (g_at(eps) - g_at(-eps)) / (2 * eps)
        np.testing.assert_allclose(
            kcd.dg(dec.k, dec.c, u1, u2, w, kind), fd, atol=1e-5
        )

    def test_dg_zero_tangent_forms(self, rng):
        sigma = rand_spd(4, rng)
        dec = kcd.kcd(sigma, DIMS22, SquareRootKind.SYMMETRIC)
        w = core_geometry.tangent_project_full(rand_sym(4, rng), DIMS22)
        h = dec.k.h_matrix(SquareRootKind.SYMMETRIC)
        np.testing.assert_allclose(
            kcd.dg(dec.k, dec.c, np.zeros((2, 2)), np.zeros((2, 2)), w,
                   SquareRootKind.SYMMETRIC),
            h @ w @ h.T,
            atol=1e-12,
        )

    @pytest.mark.parametrize("kind", list(SquareRootKind))
    def test_inverse_diffeomorphism(self, kind, rng):
        # dg(k(S), c(S), dk[V], dc[V]) = V, and dc[V] is a core tangent: dg
        # rebuilds V from dc's W = h^-1 V h^-T - corr - corr^T whatever dk
        # returned, so only W's zero partial traces show that dk solved R_C
        sigma = rand_spd(4, rng)
        v = rand_sym(4, rng)
        dec = kcd.kcd(sigma, DIMS22, kind)
        u1, u2 = kcd.dk(sigma, v, DIMS22)
        w = kcd.dc(sigma, v, DIMS22, kind)
        np.testing.assert_allclose(
            kcd.dg(dec.k, dec.c, u1, u2, w, kind), v, atol=1e-6
        )
        eye = np.eye(2)
        for trace in (matops.weighted_partial_trace_1, matops.weighted_partial_trace_2):
            assert np.abs(trace(w, eye, DIMS22)).max() <= 1e-10 * np.abs(w).max()

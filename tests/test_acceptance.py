"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass line on success (run with `pytest -s` to see them inline).
"""

import dataclasses
import time

import numpy as np
import pytest

from corecov import cli, core_geometry as cg, kcd, matops, picse, simulate
from corecov.errors import NoKroneckerMle
from corecov.kcd import SquareRootKind
from corecov.picse import FitConfig, SampleCov

from conftest import rand_lower, rand_spd, rand_sym
from test_core_geometry import rotation_example_tuple

SHAPES = [(2, 2, 3), (3, 2, 4), (4, 3, 5)]


def _report(num, text):
    print(f"\n[acceptance] criterion {num:>2}: PASS - {text}")


def _sample_factors():
    out = []
    seeds_per_shape = [34, 33, 33]
    for (shape, count) in zip(SHAPES, seeds_per_shape):
        dims = matops.Dims(*shape)
        for s in range(count):
            out.append((dims, cg.random_core_factor(dims, seed=s)))
    return out


def test_criterion_01_core_constraints():
    t0 = time.perf_counter()
    factors = _sample_factors()
    assert len(factors) == 100
    for dims, a in factors:
        res_r = np.abs(cg.row_gram(a, dims) - dims.p2 * np.eye(dims.p1)).max()
        res_c = np.abs(cg.col_gram(a, dims) - dims.p1 * np.eye(dims.p2)).max()
        assert res_r <= 1e-8 and res_c <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"100 core factors within 1e-8 of both Gram constraints "
               f"({elapsed:.2f} s)")


def test_criterion_02_kcd_round_trip():
    count = 0
    for shape_i, (p1, p2) in enumerate([(3, 2), (4, 3)]):
        dims = matops.Dims(p1, p2)
        for s in range(25):
            rng = np.random.default_rng(1000 * shape_i + s)
            sigma = rand_spd(dims.p, rng)
            for kind in SquareRootKind:
                dec = kcd.kcd(sigma, dims, kind)
                rel = np.linalg.norm(dec.reconstruct() - sigma) / np.linalg.norm(sigma)
                assert rel <= 1e-8
                k_of_core = kcd.kronecker_mle(dec.c, dims).matrix
                assert np.abs(k_of_core - np.eye(dims.p)).max() <= 1e-6
            count += 1
    assert count == 50
    _report(2, "50 KCD round trips at 1e-8 relative; k(c(S)) = I at 1e-6, both roots")


def test_criterion_03_nonexistence_detection():
    f = np.zeros((4, 3))
    f[0, 0] = f[2, 1] = f[3, 2] = 1.0
    with pytest.raises(NoKroneckerMle):
        kcd.kronecker_mle(f @ f.T, matops.Dims(2, 2))
    for s in range(50):
        rng = np.random.default_rng(5000 + s)
        kcd.kronecker_mle(rand_spd(4, rng), matops.Dims(2, 2))
    _report(3, "rank-3 unit-slice Gram flagged; 0 false flags on 50 SPD inputs")


def test_criterion_04_rank_dimension_suite():
    for dims, a in _sample_factors():
        expect = cg.manifold_dims(dims).j_rank
        assert cg.RankTangentSpace(a, dims).rank == expect
    dims33 = matops.Dims(3, 3, 3)
    a_bad = cg.from_slices(rotation_example_tuple())
    assert cg.RankTangentSpace(a_bad, dims33).rank < 11
    _report(4, "rank(J) = binom(p1+1,2)+binom(p2+1,2)-1 at 100 points; "
               "deficient on the rotation family")


def test_criterion_05_projection_suite():
    rng = np.random.default_rng(99)
    dims32 = matops.Dims(3, 2)
    # G: idempotent + Euclidean-orthogonal
    for _ in range(100):
        v = rand_sym(6, rng)
        g = cg.tangent_project_full(v, dims32)
        assert np.abs(cg.tangent_project_full(g, dims32) - g).max() <= 1e-10
        w = cg.tangent_project_full(rand_sym(6, rng), dims32)
        assert abs(np.sum((v - g) * w)) <= 1e-10

    dims223 = matops.Dims(2, 2, 3)
    a = cg.random_core_factor(dims223, seed=12)
    space = cg.RankTangentSpace(a, dims223)
    for _ in range(100):
        v = rng.standard_normal((4, 3))
        w = space.tangent(space.coords(v))
        assert np.abs(space.tangent(space.coords(w)) - w).max() <= 1e-10
        tangent = space.tangent(rng.standard_normal(space.basis.shape[1]))
        assert abs(np.sum((v - w) * tangent)) <= 1e-10

    from corecov import spd_geometry as sg

    for _ in range(100):
        s = rand_spd(4, rng)
        v = rand_sym(4, rng)
        pv = sg.proj_unitdet_spd(s, v)
        assert np.abs(sg.proj_unitdet_spd(s, pv) - pv).max() <= 1e-10
        w = sg.proj_unitdet_spd(s, rand_sym(4, rng))
        assert abs(sg.ai_inner(s, v - pv, w)) <= 1e-10

        l = np.linalg.cholesky(s)
        vl = rand_lower(4, rng)
        pl = sg.proj_unitdet_chol(l, vl)
        assert np.abs(sg.proj_unitdet_chol(l, pl) - pl).max() <= 1e-10
        wl = sg.proj_unitdet_chol(l, rand_lower(4, rng))
        assert abs(sg.chol_inner(l, vl - pl, wl)) <= 1e-10

    for _ in range(100):
        tangent = space.tangent(rng.standard_normal(space.basis.shape[1]))
        pv = cg.vertical_project(a, tangent)
        ph = cg.horizontal_project(a, tangent)
        assert abs(np.sum(pv * ph)) <= 1e-10
        theta = rng.standard_normal((3, 3))
        theta = (theta - theta.T) / 2.0
        assert np.abs(cg.vertical_project(a, a @ theta) - a @ theta).max() <= 1e-10
    _report(5, "G, rank projection, unit-det projections, vertical/horizontal: "
               "idempotent and orthogonal at 1e-10 on 100 draws each")


def test_criterion_06_derivative_oracles():
    t0 = time.perf_counter()
    eps = 1e-5
    tol = 1e-4
    from corecov import spd_geometry as sg

    for shape in [(2, 2, 3), (3, 2, 3)]:
        dims = matops.Dims(*shape)
        kdims = matops.Dims(dims.p1, dims.p2)
        for point in range(20):
            rng = np.random.default_rng(7000 + 100 * shape[0] + point)
            sigma = rand_spd(dims.p, rng)
            v = rand_sym(dims.p, rng)

            # dk
            sep = kcd.kronecker_mle(sigma, kdims)
            u1, u2 = kcd.dk(sigma, v, kdims)
            fd = (
                kcd.kronecker_mle(sigma + eps * v, kdims).matrix
                - kcd.kronecker_mle(sigma - eps * v, kdims).matrix
            ) / (2 * eps)
            assert np.abs(kcd.separable_tangent(sep, u1, u2) - fd).max() < tol

            kind = list(SquareRootKind)[point % 2]
            # dh
            w1, w2 = rand_sym(dims.p1, rng), rand_sym(dims.p2, rng)
            fd_h = (
                kcd.SeparableCovariance(sep.k1 + eps * w1, sep.k2 + eps * w2).h_matrix(kind)
                - kcd.SeparableCovariance(sep.k1 - eps * w1, sep.k2 - eps * w2).h_matrix(kind)
            ) / (2 * eps)
            assert np.abs(kcd.dh(sep, w1, w2, kind) - fd_h).max() < tol

            # dc
            fd_c = (
                kcd.kcd(sigma + eps * v, kdims, kind).c
                - kcd.kcd(sigma - eps * v, kdims, kind).c
            ) / (2 * eps)
            assert np.abs(kcd.dc(sigma, v, kdims, kind) - fd_c).max() < tol

            # dg
            dec = kcd.kcd(sigma, kdims, kind)
            w_core = cg.tangent_project_full(rand_sym(dims.p, rng), kdims)

            def g_at(t):
                s = kcd.SeparableCovariance(dec.k.k1 + t * w1, dec.k.k2 + t * w2)
                h = s.h_matrix(kind)
                return h @ (dec.c + t * w_core) @ h.T

            fd_g = (g_at(eps) - g_at(-eps)) / (2 * eps)
            assert np.abs(kcd.dg(dec.k, dec.c, w1, w2, w_core, kind) - fd_g).max() < tol

            # Appendix-style Euclidean gradients and Hessian products of the
            # likelihood, plus Riemannian gradients, at a random parameter point
            from test_picse import calc_for, make_tau

            tau = make_tau(kind, 7000 + point, dims=dims)
            data = np.random.default_rng(7100 + point).standard_normal(
                (6, dims.p1, dims.p2)
            )
            sc = SampleCov.from_data(data, dims)
            for theta in ("k1bar", "k2bar", "a"):
                if theta == "a":
                    d = np.random.default_rng(7200 + point).standard_normal(
                        (dims.p, dims.r)
                    )
                elif kind is SquareRootKind.CHOLESKY:
                    d = rand_lower(dims.p1 if theta == "k1bar" else dims.p2, rng)
                else:
                    d = rand_sym(dims.p1 if theta == "k1bar" else dims.p2, rng)
                calc = calc_for(theta, tau, data)
                eg, ehv = calc.grad(), calc.hess(d)
                base = getattr(tau, theta)
                taup = dataclasses.replace(tau, **{theta: base + eps * d})
                taum = dataclasses.replace(tau, **{theta: base - eps * d})
                fd1 = (picse.nll(taup, sc) - picse.nll(taum, sc)) / (2 * eps)
                assert abs(fd1 - float(np.sum(eg * d))) < tol
                egp = calc_for(theta, taup, data).grad()
                egm = calc_for(theta, taum, data).grad()
                assert np.abs((egp - egm) / (2 * eps) - ehv).max() < tol

            # Riemannian gradient pairings along exact geodesics / retraction
            kblock = picse._KBlock(tau, data, 1)
            tang = kblock.basis[point % len(kblock.basis)]
            rg, _, _ = kblock.derivatives()
            taup = kblock.retract(eps * tang)
            taum = kblock.retract(-eps * tang)
            fd_r = (picse.nll(taup, sc) - picse.nll(taum, sc)) / (2 * eps)
            assert abs(kblock._inner(kblock.point, rg, tang) - fd_r) < tol

            ablock = picse._ABlock(tau, sc)
            basis = ablock.space.basis
            avec = basis[:, point % basis.shape[1]].reshape(
                tau.a.shape, order="F"
            )
            arg, _, _ = ablock.derivatives()
            ap = picse.retract_core_factor(tau.a, eps * avec, dims)
            am = picse.retract_core_factor(tau.a, -eps * avec, dims)
            fd_a = (
                picse.nll(dataclasses.replace(tau, a=ap), sc)
                - picse.nll(dataclasses.replace(tau, a=am), sc)
            ) / (2 * eps)
            assert abs(float(np.sum(arg * avec)) - fd_a) < tol

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, f"dh/dk/dc/dg, likelihood gradients/Hessians, Riemannian "
               f"gradients all match central differences at 1e-4 ({elapsed:.1f} s)")


def test_criterion_07_partial_isotropy_round_trip():
    dims = matops.Dims(3, 2, 4)
    for i, lam in enumerate((0.2, 0.5, 0.8)):
        a0 = cg.random_core_factor(dims, seed=40 + i)
        c = (1 - lam) * (a0 @ a0.T) + lam * np.eye(6)
        lam_hat, a_hat = cg.partial_isotropy_decompose(c, dims)
        assert abs(lam_hat - lam) <= 1e-8
        assert np.abs(a_hat @ a_hat.T - a0 @ a0.T).max() <= 1e-8
    _report(7, "planted (lambda, A A^T) recovered at 1e-8 for lambda in "
               "{0.2, 0.5, 0.8}")


def test_criterion_08_fit_monotonicity():
    dims = matops.Dims(4, 3, 3)
    p = dims.p
    total = 0
    converged = 0
    for model in ("m1", "m2"):
        for seed in range(20):
            truth = simulate.gen_truth(model, dims, 0.4, seed=simulate._seq(600, seed))
            for n in (p // 2, p, 2 * p):
                data = simulate.gen_data(
                    truth.sigma, n, simulate._seq(600, seed, n), dims
                )
                _, _, trace = picse.fit(data, dims, FitConfig())
                obj = np.asarray(trace.objectives)
                assert (np.diff(obj) <= 1e-9 * np.abs(obj[:-1]) + 1e-12).all()
                assert trace.n_sweeps <= 200
                total += 1
                converged += trace.termination == "converged"
    assert converged >= 0.9 * total
    _report(8, f"{total} fits monotone; {converged}/{total} converged within "
               f"200 sweeps")


def test_criterion_09_desk_scale_ordering():
    t0 = time.perf_counter()
    dims = matops.Dims(6, 4, 3)
    p = dims.p
    lam = 0.2
    for model in ("m1", "m2"):
        errs = {"kmle": [], "base": [], "picse": []}
        lam_errs = []
        for rep in range(20):
            truth = simulate.gen_truth(model, dims, lam, simulate._seq(777, rep))
            data = simulate.gen_data(
                truth.sigma, 2 * p, simulate._seq(777, rep, 1), dims
            )
            errs["kmle"].append(
                simulate.rel_spec_norm(picse.kmle_estimator(data, dims), truth.sigma)
            )
            errs["base"].append(
                simulate.rel_spec_norm(
                    picse.base_estimator(data, dims, SquareRootKind.SYMMETRIC),
                    truth.sigma,
                )
            )
            tau, sigma_hat, _ = picse.fit(data, dims, FitConfig())
            errs["picse"].append(simulate.rel_spec_norm(sigma_hat, truth.sigma))
            lam_errs.append(abs(tau.lam - lam))
        means = {k: float(np.mean(v)) for k, v in errs.items()}
        assert means["picse"] < means["base"] < means["kmle"], (model, means)
        assert float(np.mean(lam_errs)) < 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(9, f"mean error ordering PICSE < Base < KMLE on both models; "
               f"mean lambda error < 0.1 ({elapsed:.0f} s)")


def test_criterion_10_identifiability_invariance():
    dims = matops.Dims(3, 2, 3)
    worst = 0.0
    for seed in range(10):
        truth = simulate.gen_truth("m1", dims, 0.3, simulate._seq(880, seed))
        data = simulate.gen_data(truth.sigma, 30, simulate._seq(880, seed, 1), dims)
        sc = SampleCov.from_data(data, dims)
        tau0 = picse.init(sc, SquareRootKind.SYMMETRIC)
        o, _ = np.linalg.qr(np.random.default_rng(885 + seed).standard_normal((3, 3)))
        tau0_rot = dataclasses.replace(tau0, a=tau0.a @ o)
        _, s_a, _ = picse.fit(data, dims, FitConfig(), initial=tau0)
        _, s_b, _ = picse.fit(data, dims, FitConfig(), initial=tau0_rot)
        worst = max(worst, simulate.rel_spec_norm(s_b, s_a))
    assert worst <= 1e-6
    _report(10, f"right-rotated initialization moves the estimate by at most "
                f"{worst:.2e} (<= 1e-6) over 10 fits")


def test_criterion_11_simulate_determinism(tmp_path):
    args = [
        "simulate", "--model", "m1", "--p1", "2", "--p2", "2", "--rank", "3",
        "--lambda", "0.3", "--n", "8", "--n", "12", "--reps", "2", "--seed", "19",
        "--sqrt", "sym",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "results.csv").read_bytes()
    b2 = (out2 / "results.csv").read_bytes()
    assert b1 == b2
    _report(11, "two consecutive `simulate` runs wrote byte-identical CSVs")

import numpy as np
import pytest

from corecov import core_geometry as cg, kcd, matops, simulate
from corecov.kcd import SquareRootKind
from corecov.simulate import ExperimentConfig

DIMS = matops.Dims(3, 2, 3)


class TestGenTruth:
    def test_m1_core_structure(self):
        truth = simulate.gen_truth("m1", DIMS, 0.35, seed=1)
        dec = kcd.kcd(truth.sigma, DIMS, SquareRootKind.SYMMETRIC)
        expect = (1 - 0.35) * (truth.a @ truth.a.T) + 0.35 * np.eye(6)
        assert np.abs(dec.c - expect).max() < 1e-8
        np.testing.assert_allclose(dec.k.matrix, truth.k, atol=1e-8)

    def test_m2_core_structure(self):
        truth = simulate.gen_truth("m2", DIMS, 0.35, seed=2)
        dec = kcd.kcd(truth.sigma, DIMS, SquareRootKind.SYMMETRIC)
        expect = (1 - 0.35) * (truth.a @ truth.a.T) + 0.35 * truth.d
        assert np.abs(dec.c - expect).max() < 1e-8
        # D is itself a diagonal core
        assert np.abs(truth.d - np.diag(np.diag(truth.d))).max() < 1e-12
        cg.check_core_matrix(truth.d, DIMS)

    def test_determinism(self):
        a = simulate.gen_truth("m1", DIMS, 0.5, seed=7)
        b = simulate.gen_truth("m1", DIMS, 0.5, seed=7)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        c = simulate.gen_truth("m1", DIMS, 0.5, seed=8)
        assert np.abs(a.sigma - c.sigma).max() > 1e-6

    def test_spd_and_conditioning(self):
        truth = simulate.gen_truth("m2", DIMS, 0.2, seed=9)
        w = np.linalg.eigvalsh(truth.sigma)
        assert w.min() > 0
        w1 = np.linalg.eigvalsh(truth.k_sqrt)
        assert w1.max() / w1.min() <= 50.0 * 50.0  # kron of two cond<=50 factors


class TestGenData:
    def test_law_of_large_numbers(self):
        dims = matops.Dims(4, 2)
        data = simulate.gen_data(np.eye(8), 10000, seed=3, dims=dims)
        ymat = np.stack([matops.vec(y) for y in data])
        s = ymat.T @ ymat / len(ymat)
        assert np.linalg.norm(s - np.eye(8), 2) < 0.1

    def test_determinism(self):
        a = simulate.gen_data(np.eye(6), 5, seed=4, dims=DIMS)
        b = simulate.gen_data(np.eye(6), 5, seed=4, dims=DIMS)
        np.testing.assert_array_equal(a, b)

    def test_second_moment(self):
        truth = simulate.gen_truth("m1", DIMS, 0.4, seed=5)
        n = 4000
        data = simulate.gen_data(truth.sigma, n, seed=6, dims=DIMS)
        sq = np.array([np.sum(y * y) for y in data])
        target = np.trace(truth.sigma)
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - target) < 3 * se


class TestRelSpecNorm:
    def test_basics(self):
        truth = simulate.gen_truth("m1", DIMS, 0.4, seed=11)
        assert simulate.rel_spec_norm(truth.sigma, truth.sigma) == 0.0
        assert abs(simulate.rel_spec_norm(2 * truth.sigma, truth.sigma) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            simulate.rel_spec_norm(np.eye(2), np.zeros((2, 2)))

    def test_kmle_core_distance_scale(self):
        # the trivial-core estimator sits at ||C - I|| / ||C||, which is large
        # for a low-rank spiked core
        dims = matops.Dims(6, 4, 3)
        truth = simulate.gen_truth("m1", dims, 0.2, seed=12)
        c = kcd.kcd(truth.sigma, dims, SquareRootKind.SYMMETRIC).c
        val = simulate.rel_spec_norm(np.eye(dims.p), c)
        assert 0.8 < val < 1.1


class TestRunExperiment:
    def test_smoke_counts_and_metrics(self):
        config = ExperimentConfig(
            model="m1", dims=matops.Dims(2, 2, 3), lam=0.2, n_list=(8,),
            reps=1, seed=5, h_kinds=(SquareRootKind.SYMMETRIC,),
        )
        records, summary = simulate.run_experiment(config)
        assert len(records) == 3  # kmle, base-sym, picse-sym
        for rec in records:
            assert not rec.failed
            assert np.isfinite(rec.metric_sigma) and rec.metric_sigma >= 0
            assert np.isfinite(rec.metric_k) and np.isfinite(rec.metric_c)
        names = {r.estimator for r in records}
        assert names == {"kmle", "base-sym", "picse-sym"}
        assert len(summary["cells"]) == 3

    def test_both_kinds_counts(self):
        config = ExperimentConfig(
            model="m2", dims=matops.Dims(2, 2, 3), lam=0.4, n_list=(8, 12),
            reps=2, seed=6,
            h_kinds=(SquareRootKind.SYMMETRIC, SquareRootKind.CHOLESKY),
        )
        records, _ = simulate.run_experiment(config)
        assert len(records) == 2 * 2 * 5

    def test_rerun_identical(self, tmp_path):
        config = ExperimentConfig(
            model="m1", dims=matops.Dims(2, 2, 3), lam=0.3, n_list=(8,),
            reps=2, seed=77, h_kinds=(SquareRootKind.SYMMETRIC,),
        )
        paths = []
        for run in range(2):
            records, _ = simulate.run_experiment(config)
            path = tmp_path / f"run{run}.csv"
            simulate.write_results_csv(records, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_failure_rows_flagged_and_run_continues(self):
        # n = 2 at (2, 2, 3): the sample core has rank 2 < r, so the
        # structured estimators fail while the study still emits all rows
        config = ExperimentConfig(
            model="m1", dims=matops.Dims(2, 2, 3), lam=0.3, n_list=(2,),
            reps=1, seed=5, h_kinds=(SquareRootKind.SYMMETRIC,),
        )
        records, summary = simulate.run_experiment(config)
        assert len(records) == 3
        failed = {r.estimator: r.failed for r in records}
        assert failed["base-sym"] and failed["picse-sym"]
        for rec in records:
            if rec.failed:
                assert rec.termination.startswith("error:")
                assert np.isnan(rec.metric_sigma)
        cell = {c["estimator"]: c for c in summary["cells"]}
        assert cell["base-sym"]["failures"] == 1
        assert cell["base-sym"]["metric_sigma_mean"] is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="m3", dims=DIMS, lam=0.5, n_list=(8,), reps=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model="m1", dims=DIMS, lam=1.5, n_list=(8,), reps=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model="m1", dims=DIMS, lam=0.5, n_list=(1,), reps=1, seed=0)
        with pytest.raises(ValueError, match="r < p"):
            ExperimentConfig(
                model="m1", dims=matops.Dims(2, 2, 4), lam=0.5, n_list=(8,), reps=1, seed=0
            )

    @pytest.mark.parametrize("field, value, match", [
        ("n_list", (), "n_list must be non-empty without repeats"),
        ("n_list", (8, 12, 8), "n_list must be non-empty without repeats"),
        ("h_kinds", (), "h_kinds must be non-empty without repeats"),
        ("h_kinds", (SquareRootKind.CHOLESKY,) * 2, "h_kinds must be non-empty"),
        ("h_kinds", ("chol",), "must be a SquareRootKind"),
        ("h_kinds", (SquareRootKind.SYMMETRIC, "bogus"), "must be a SquareRootKind"),
    ], ids=["empty-n", "repeated-n", "empty-kinds", "repeated-kind", "chol-str", "bogus"])
    def test_config_rejects_bad_lists(self, field, value, match):
        # a repeated n used to write every row twice and summarize the copies
        config = dict(model="m1", dims=DIMS, lam=0.5, n_list=(8,), reps=1, seed=0)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{**config, field: value})

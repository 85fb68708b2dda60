import json

import numpy as np
import pytest

from corecov import core_geometry as cg, kcd, matops, picse, simulate
from corecov.errors import ConfigError, StructureError
from corecov.kcd import SquareRootKind
from corecov.simulate import ExperimentConfig

DIMS = matops.Dims(3, 2, 3)


class TestGenTruth:
    def test_m1_core_structure(self):
        truth = simulate.gen_truth("m1", DIMS, 0.35, seed=1)
        dec = kcd.kcd(truth.sigma, DIMS, SquareRootKind.SYMMETRIC)
        expect = (1 - 0.35) * (truth.a @ truth.a.T) + 0.35 * np.eye(6)
        assert np.abs(dec.c - expect).max() < 1e-8
        np.testing.assert_allclose(dec.k.matrix, truth.sep.matrix, atol=1e-8)
        assert abs(np.linalg.det(truth.sep.k1) - 1.0) < 1e-12

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
        w1 = np.linalg.eigvalsh(truth.sep.matrix)
        # the square of a kron of two cond<=50 factors
        assert w1.max() / w1.min() <= (50.0 * 50.0) ** 2

    @pytest.mark.parametrize("model", ["M2", "m3"])
    def test_unknown_model_rejected(self, model):
        # "M2" and "m3" returned the M1 truth
        with pytest.raises(ConfigError, match="^unknown model "):
            simulate.gen_truth(model, DIMS, 0.2, seed=0)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, np.nan])
    def test_lambda_outside_unit_interval_rejected(self, lam):
        # 0 gave a singular Sigma, 1 a separable one, nan a NaN Sigma
        with pytest.raises(ConfigError, match="lambda must lie in"):
            simulate.gen_truth("m1", DIMS, lam, seed=0)


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

    def test_one_start_per_data_set_and_root(self, monkeypatch):
        # Base and PICSE share picse.init per data set and root: both roots,
        # two n, one rep make 4 starts (8 when each estimator made its own);
        # PICSE still runs through picse.fit, which benchmarks wrap
        calls = {"init": 0, "fit": 0}
        init, fit = picse.init, picse.fit

        def counted_init(*args, **kwargs):
            calls["init"] += 1
            return init(*args, **kwargs)

        def counted_fit(*args, **kwargs):
            calls["fit"] += 1
            return fit(*args, **kwargs)

        monkeypatch.setattr(picse, "init", counted_init)
        monkeypatch.setattr(picse, "fit", counted_fit)
        config = ExperimentConfig(
            model="m2", dims=matops.Dims(2, 2, 3), lam=0.4, n_list=(8, 12),
            reps=1, seed=6,
            h_kinds=(SquareRootKind.SYMMETRIC, SquareRootKind.CHOLESKY),
        )
        records, _ = simulate.run_experiment(config)
        assert not any(r.failed for r in records)
        assert calls == {"init": 4, "fit": 4}

    def test_failed_start_fails_base_and_picse(self, monkeypatch):
        def failing_init(sample_cov, h_kind):
            raise StructureError("top-r core spectrum not positive")

        monkeypatch.setattr(picse, "init", failing_init)
        config = ExperimentConfig(
            model="m1", dims=matops.Dims(2, 2, 3), lam=0.3, n_list=(8,),
            reps=1, seed=5, h_kinds=(SquareRootKind.SYMMETRIC, SquareRootKind.CHOLESKY),
        )
        records, _ = simulate.run_experiment(config)
        terminations = {r.estimator: r.termination for r in records}
        assert terminations == {
            "kmle": "closed_form",
            "base-sym": "error:StructureError", "base-chol": "error:StructureError",
            "picse-sym": "error:StructureError", "picse-chol": "error:StructureError",
        }

    def test_scoring_decomposes_no_estimate(self, monkeypatch):
        # each runner returns the split it holds, and the truth's cores come
        # from the factor gen_truth drew: the study decomposes only the sample,
        # once per root in picse.init, whose rank-r truncation takes the
        # ungated flip-flop (4 when the truncation went through kcd too, 6 when
        # the truth went through kcd once per root, 11 when every estimate was
        # decomposed again for its score)
        calls = {"kcd": 0}
        decompose = kcd.kcd

        def counted_kcd(*args, **kwargs):
            calls["kcd"] += 1
            return decompose(*args, **kwargs)

        monkeypatch.setattr(kcd, "kcd", counted_kcd)
        config = ExperimentConfig(
            model="m1", dims=matops.Dims(2, 2, 3), lam=0.2, n_list=(8,), reps=1, seed=5,
            h_kinds=(SquareRootKind.SYMMETRIC, SquareRootKind.CHOLESKY),
        )
        records, _ = simulate.run_experiment(config)
        assert not any(r.failed for r in records)
        assert calls == {"kcd": 2}

    def test_no_flip_flop_on_a_truth(self, monkeypatch):
        # both roots' truth cores split the Kronecker factor gen_truth drew,
        # so no kronecker_mle call reads a truth's sigma
        truths, on_truth = [], []
        gen, mle = simulate.gen_truth, kcd.kronecker_mle

        def kept_truth(*args, **kwargs):
            truths.append(gen(*args, **kwargs))
            return truths[-1]

        def counted_mle(sigma, *args, **kwargs):
            on_truth.append(any(sigma is t.sigma for t in truths))
            return mle(sigma, *args, **kwargs)

        monkeypatch.setattr(simulate, "gen_truth", kept_truth)
        monkeypatch.setattr(kcd, "kronecker_mle", counted_mle)
        config = ExperimentConfig(
            model="m2", dims=matops.Dims(2, 2, 3), lam=0.2, n_list=(8,), reps=2, seed=5,
            h_kinds=(SquareRootKind.SYMMETRIC, SquareRootKind.CHOLESKY),
        )
        records, _ = simulate.run_experiment(config)
        assert not any(r.failed for r in records)
        assert len(truths) == 2 and on_truth and not any(on_truth)

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

    @pytest.mark.parametrize("field, value", [
        ("reps", 1.5), ("n_list", (24.5,)), ("n_list", (8, 12.0)),
    ])
    def test_config_rejects_non_integer_counts(self, field, value):
        # fractional counts used to pass, then fail inside run_experiment
        # (a fractional n only after gen_truth had run)
        config = dict(model="m1", dims=DIMS, lam=0.5, n_list=(8,), reps=1, seed=0)
        with pytest.raises(TypeError):
            ExperimentConfig(**{**config, field: value})

    def test_config_rejects_bad_seed(self):
        # seed 1.5 used to run the study with seed 1 while summary.json said 1.5
        config = dict(model="m1", dims=DIMS, lam=0.5, n_list=(8,), reps=1)
        with pytest.raises(TypeError):
            ExperimentConfig(**config, seed=1.5)
        with pytest.raises(ValueError, match="non-negative"):
            ExperimentConfig(**config, seed=-1)
        assert type(ExperimentConfig(**config, seed=np.uint8(3)).seed) is int

    def test_config_stores_python_ints(self):
        # numpy counts used to reach summary.json, which cannot encode them
        config = ExperimentConfig(
            model="m1", dims=DIMS, lam=0.5, n_list=[np.int64(8)], reps=np.int32(2), seed=0
        )
        assert config.n_list == (8,) and type(config.n_list[0]) is int
        assert type(config.reps) is int
        json.dumps(simulate._summarize(config, []))


def _max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestScoringSplit:
    """The core covariance decomposition is unique (Hoff, McCormack & Zhang
    2023), so the (K, C) split each runner returns for its sigma_hat is the
    one kcd finds: for KMLE K = sigma_hat and C = I; for Base and PICSE
    K = nu^2 Kbar Kbar^T and C = Ctilde."""

    @pytest.mark.parametrize("dims, n", [
        (matops.Dims(6, 4, 3), 12), (matops.Dims(4, 3, 3), 6),
    ], ids=["6x4-n12", "4x3-n6"])
    @pytest.mark.parametrize("kind", list(SquareRootKind))
    @pytest.mark.parametrize("seed", range(3))
    def test_runner_split_is_the_kcd(self, dims, n, kind, seed):
        config = ExperimentConfig(
            model="m2", dims=dims, lam=0.2, n_list=(n,), reps=1, seed=seed, h_kinds=(kind,),
        )
        truth = simulate.gen_truth("m2", dims, 0.2, seed)
        data = simulate.gen_data(truth.sigma, n, seed + 10, dims)
        starts = {}
        for runner in (simulate._kmle, simulate._base, simulate._picse):
            sigma_hat, k_hat, c_hat, _, _ = runner(data, config, kind, starts)
            dec = kcd.kcd(sigma_hat, dims, kind)
            assert _max_rel(k_hat, dec.k.matrix) < 1e-10, runner.__name__
            assert _max_rel(c_hat, dec.c) < 1e-10, runner.__name__

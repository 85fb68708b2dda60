"""Seeded synthetic-data harness: truth generation under models M1/M2,
matrix-normal sampling, relative spectral-norm metrics, and replication
studies comparing the KMLE / Base / PICSE estimators.

Reproducibility: every random draw comes from a Philox (4x64 counter-based)
bit generator keyed by numpy SeedSequence spawn keys of the form
(rep, purpose, ...what) under the experiment seed, so replications are
independent, order-insensitive, and byte-stable across runs.
"""

import json
import operator
import time
from dataclasses import dataclass, fields

import numpy as np

from . import core_geometry, kcd, matops, picse
from .errors import NUMERICAL_ERRORS, ConfigError
from .kcd import SquareRootKind

# spawn-key purpose codes
_TRUTH = 0
_DATA = 1
_CORE_FACTOR = 2
_OBS = 3

# Condition-number cap of the truth's Kronecker factors.
_COND_CAP = 50.0


def _seq(seed, *key):
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        base = tuple(seed.spawn_key)
    else:
        entropy = int(seed)
        base = ()
    return np.random.SeedSequence(entropy=entropy, spawn_key=base + key)


def _rng(seed, *key):
    return np.random.Generator(np.random.Philox(_seq(seed, *key)))


def _check_model(model, lam):
    if model not in ("m1", "m2"):
        raise ConfigError(f"unknown model {model!r}")
    if not (0.0 < lam < 1.0):
        raise ConfigError("lambda must lie in (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    model: str  # "m1" | "m2"
    dims: matops.Dims
    lam: float
    n_list: tuple
    reps: int
    seed: int
    h_kinds: tuple = (SquareRootKind.SYMMETRIC,)
    tol: float = picse.FitConfig.tol
    max_iter: int = picse.FitConfig.max_iter

    def __post_init__(self):
        _check_model(self.model, self.lam)
        # integers (operator.index) and floats, stored as Python scalars for summary.json
        reps, seed = operator.index(self.reps), operator.index(self.seed)
        n_list = tuple(map(operator.index, self.n_list))
        if reps < 1 or any(n < 2 for n in n_list):
            raise ConfigError("need reps >= 1 and every n >= 2")
        if seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed}")
        object.__setattr__(self, "n_list", n_list)
        for name in ("n_list", "h_kinds"):
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"{name} must be non-empty without repeats: {values!r}")
        picse.check_rank(self.dims)
        core_geometry.check_dense_size(self.dims.p, self.dims.r)
        for kind in self.h_kinds:
            fit_config = picse.FitConfig(tol=self.tol, max_iter=self.max_iter, h_kind=kind)
        for name, value in (("reps", reps), ("seed", seed), ("lam", float(self.lam)),
                            ("tol", fit_config.tol), ("max_iter", fit_config.max_iter)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, kw_only=True)
class ResultRecord:
    estimator: str
    rep: int
    n: int
    metric_sigma: float = np.nan
    metric_k: float = np.nan
    metric_c: float = np.nan
    lambda_hat: float | None
    wall_time_s: float
    termination: str
    failed: bool


# results.csv columns: the record without its wall time (see write_results_csv)
CSV_HEADER = [f.name for f in fields(ResultRecord) if f.name != "wall_time_s"]


@dataclass(frozen=True)
class TruthBundle:
    sigma: np.ndarray
    sep: kcd.SeparableCovariance  # sigma's Kronecker factor K = K2 (x) K1, det(K1) = 1
    a: np.ndarray
    d: np.ndarray  # isotropy replacement core in M2, None in M1


def _random_spd_capped(q, rng):
    """Random SPD with orthogonal eigenbasis and condition number <= _COND_CAP."""
    g = rng.standard_normal((q, q))
    qmat, rmat = np.linalg.qr(g)
    qmat = qmat * np.sign(np.diag(rmat))
    lo = 1.0 / np.sqrt(_COND_CAP)
    w = np.exp(rng.uniform(np.log(lo), np.log(lo * _COND_CAP), size=q))
    return matops.sym((qmat * w) @ qmat.T)


def gen_truth(model, dims, lam, seed):
    """Draw one ground-truth covariance under M1 or M2.

    M1: Sigma = K^(1/2) ((1-lam) A A^T + lam I) K^(1/2)T
    M2: the same with I replaced by a random diagonal core D = c(D_tilde).
    ConfigError unless model is "m1" or "m2" and lam lies in (0, 1).
    """
    _check_model(model, lam)
    rng = _rng(seed, _TRUTH)
    k1 = _random_spd_capped(dims.p1, rng)
    k2 = _random_spd_capped(dims.p2, rng)
    k_sqrt = matops.kron(k2, k1)
    a = core_geometry.random_core_factor(dims, _seq(seed, _CORE_FACTOR))
    if model == "m2":
        dtil = np.diag(np.exp(rng.uniform(np.log(1.0 / 3.0), np.log(3.0), dims.p)))
        d = kcd.kcd(dtil, dims, SquareRootKind.SYMMETRIC).c
        d = np.diag(np.diag(d))  # the core of a diagonal matrix is diagonal
    else:
        d = np.eye(dims.p)
    core_part = (1.0 - lam) * (a @ a.T) + lam * d
    sigma = matops.sym(k_sqrt @ core_part @ k_sqrt.T)
    s = matops.det_root(k1) ** 2  # scales K1 = k1 k1 to det(K1) = 1
    return TruthBundle(
        sigma=sigma,
        sep=kcd.SeparableCovariance(k1 @ k1 / s, k2 @ k2 * s),
        a=a,
        d=d if model == "m2" else None,
    )


def gen_data(sigma, n, seed, dims):
    """n observations with vec(Y_i) = Sigma^(1/2) z_i, one Philox stream per
    observation keyed by (seed, i)."""
    root = matops.spd_half_powers(sigma, what="Sigma")[0]
    out = np.empty((n, dims.p1, dims.p2))
    for i in range(n):
        z = _rng(seed, _OBS, i).standard_normal(dims.p)
        out[i] = matops.mat(root @ z, dims.p1, dims.p2)
    return out


def rel_spec_norm(est, truth):
    """Spectral norm of the estimation error over that of the truth."""
    denom = np.linalg.norm(np.asarray(truth, dtype=float), 2)
    if denom == 0.0:
        raise ConfigError("truth matrix is zero")
    return float(np.linalg.norm(np.asarray(est, dtype=float) - truth, 2) / denom)


# Runners of the study's estimators: (data, config, kind, starts) -> (sigma_hat,
# K, C, lambda_hat, termination), where sigma_hat = h(K) C h(K)^T is the split the
# estimator holds.  Base runs first and leaves its start, or its error, in starts[kind].
def _kmle(data, config, kind, starts):
    sigma_hat = picse.kmle_estimator(data, config.dims)
    return sigma_hat, sigma_hat, np.eye(config.dims.p), None, "closed_form"


def _base(data, config, kind, starts):
    try:
        start = picse.init(picse.SampleCov.from_data(data, config.dims), kind)
    except NUMERICAL_ERRORS as exc:
        starts[kind] = exc
        raise
    starts[kind] = start
    return picse.sigma_from_params(start), start.k, start.ctilde, None, "closed_form"


def _picse(data, config, kind, starts):
    if isinstance(starts[kind], Exception):
        raise starts[kind]
    fit_config = picse.FitConfig(tol=config.tol, max_iter=config.max_iter, h_kind=kind)
    tau, sigma_hat, trace = picse.fit(data, config.dims, fit_config, initial=starts[kind])
    return sigma_hat, tau.k, tau.ctilde, tau.lam, trace.termination


def run_experiment(config):
    """Run the replication study; returns (records, summary dict).

    Per replication and sample size, each estimator is fit and scored against
    the truth Sigma, its Kronecker component K, and its core component C (the
    core comparison uses the estimator's own square-root convention; KMLE is
    scored with the symmetric one).  Base and PICSE share one initialization
    per data set and root.  Failures become flagged records.
    """
    dims = config.dims
    # name, scoring square-root kind and runner of each estimator, in record order
    estimators = [("kmle", SquareRootKind.SYMMETRIC, _kmle)] + [
        (f"{name}-{kind.value}", kind, runner)
        for name, runner in (("base", _base), ("picse", _picse))
        for kind in config.h_kinds
    ]
    records = []
    for rep in range(config.reps):
        truth = gen_truth(config.model, dims, config.lam, _seq(config.seed, rep))
        truth_cores = {kind: truth.sep.split(truth.sigma, kind).c
                       for kind in set(config.h_kinds) | {SquareRootKind.SYMMETRIC}}
        for n in config.n_list:
            data = gen_data(truth.sigma, n, _seq(config.seed, rep, _DATA, n), dims)
            starts = {}
            records += [_run_one(est, data, starts, config, truth, truth_cores, rep, n)
                        for est in estimators]
    return records, _summarize(config, records)


def _run_one(estimator, data, starts, config, truth, truth_cores, rep, n):
    """Fit and score one estimator; a numerical failure gives a failed record."""
    name, kind, runner = estimator
    t0 = time.perf_counter()
    try:
        sigma_hat, k_hat, c_hat, lam_hat, termination = runner(data, config, kind, starts)
        metrics = {
            "metric_sigma": rel_spec_norm(sigma_hat, truth.sigma),
            "metric_k": rel_spec_norm(k_hat, truth.sep.matrix),
            "metric_c": rel_spec_norm(c_hat, truth_cores[kind]),
        }
    except NUMERICAL_ERRORS as exc:
        metrics, lam_hat, termination = {}, None, f"error:{type(exc).__name__}"
    return ResultRecord(
        estimator=name,
        rep=rep,
        n=n,
        lambda_hat=lam_hat,
        wall_time_s=time.perf_counter() - t0,
        termination=termination,
        failed=not metrics,
        **metrics,
    )


def _summarize(config, records):
    cells = {}
    for rec in records:
        cells.setdefault((rec.estimator, rec.n), []).append(rec)
    summary = {
        "config": {
            "model": config.model,
            "p1": config.dims.p1,
            "p2": config.dims.p2,
            "rank": config.dims.r,
            "lambda": config.lam,
            "n_list": list(config.n_list),
            "reps": config.reps,
            "seed": config.seed,
            "h_kinds": [k.value for k in config.h_kinds],
            "tol": config.tol,
            "max_iter": config.max_iter,
        },
        "cells": [],
    }
    for (estimator, n), cell in sorted(cells.items()):
        ok = [r for r in cell if not r.failed]
        entry = {
            "estimator": estimator,
            "n": n,
            "count": len(cell),
            "failures": len(cell) - len(ok),
            "wall_time_total_s": float(sum(r.wall_time_s for r in cell)),
        }
        for column in ("metric_sigma", "metric_k", "metric_c", "lambda_hat"):
            vals = [getattr(r, column) for r in ok if getattr(r, column) is not None]
            entry[f"{column}_mean"] = float(np.mean(vals)) if vals else None
            entry[f"{column}_std"] = float(np.std(vals)) if vals else None
        summary["cells"].append(entry)
    return summary


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "" if np.isnan(value) else repr(value)
    return str(value)


def write_results_csv(records, path):
    """One record per row.  Wall times are deliberately left out so reruns of
    the same configuration are byte-identical; timing lives in the summary."""
    lines = [",".join(CSV_HEADER)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, column)) for column in CSV_HEADER))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(summary, path):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

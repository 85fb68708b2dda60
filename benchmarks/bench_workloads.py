"""The benchmark's workloads.

Each workload holds a fixed pool of problem instances whose reference outputs
are stored under reference/.  The workload seed fixes the order in which a
pass visits the pool, so every seed times the same work and only the visiting
order changes; reference outputs exist only for a fixed pool.  Every
operation is one call a user makes: `picse.fit` for fit-small, `corecov fit`
or `corecov simulate` through `cli.main` for the other two.  Functions are
looked up on their modules at call time, so the tracer's wrappers see them.

Checks follow ROADMAP tolerances: final objectives and study metrics within
1e-8 relative, objective traces non-increasing with the slack acceptance
criterion 8 allows, `PicseParams.validate()` passing.
"""

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from corecov import cli, matops, picse, simulate
from corecov.kcd import SquareRootKind

HERE = os.path.dirname(os.path.abspath(__file__))
REL_TOL = 1e-8
LAMBDA = 0.2
# Root of every truth and data draw; instance keys are its spawn keys.
INPUT_ENTROPY = 20251201


class Mismatch(Exception):
    """An output that misses its reference or an invariant."""


def _seq(*key):
    return np.random.SeedSequence(entropy=INPUT_ENTROPY, spawn_key=key)


def _order(items, seed):
    perm = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in perm]


def _close(value, ref, what):
    if not abs(value - ref) <= REL_TOL * abs(ref):
        raise Mismatch(f"{what} {value!r} differs from reference {ref!r}")


def _check_fit(params, objectives, ref):
    params.validate()
    obj = np.asarray(objectives, dtype=float)
    if not (np.diff(obj) <= 1e-9 * np.abs(obj[:-1]) + 1e-12).all():
        raise Mismatch("objective trace increases")
    _close(float(obj[-1]), ref["objective"], "final objective")


@dataclass(frozen=True)
class Op:
    key: str
    run: object  # zero-argument callable returning the output to check


@dataclass(frozen=True)
class FitSmall:
    """Direct `picse.fit` calls at a small shape: truths from m1 and m2,
    n in {p, 2p}, each data set fitted with sym then chol."""

    dims: matops.Dims
    truths: int

    def build(self, seed, workdir):
        problems = []
        p = self.dims.p
        for m, model in enumerate(("m1", "m2")):
            for t in range(self.truths):
                truth = simulate.gen_truth(model, self.dims, LAMBDA, _seq(0, m, t))
                for n in (p, 2 * p):
                    data = simulate.gen_data(truth.sigma, n, _seq(1, m, t, n), self.dims)
                    problems.append((f"{model}-t{t}-n{n}", data))
        ops = []
        for key, data in _order(problems, seed):
            for kind in (SquareRootKind.SYMMETRIC, SquareRootKind.CHOLESKY):
                config = picse.FitConfig(h_kind=kind)
                ops.append(Op(f"{key}-{kind.value}", self._fitter(data, config)))
        return ops

    def _fitter(self, data, config):
        return lambda: picse.fit(data, self.dims, config)

    def record(self, output):
        return {"objective": float(output[2].objectives[-1])}

    def check(self, output, ref):
        tau, _, trace = output
        _check_fit(tau, trace.objectives, ref)


@dataclass(frozen=True)
class FitLarge:
    """`corecov fit --sqrt sym` through `cli.main` on a CSV written during
    set-up, one m2 data set with n = 2p.  One fit fills a pass, so the seed
    changes nothing here."""

    dims: matops.Dims

    def build(self, seed, workdir):
        d = self.dims
        truth = simulate.gen_truth("m2", d, LAMBDA, _seq(2, 0))
        data = simulate.gen_data(truth.sigma, 2 * d.p, _seq(3, 0), d)
        path = os.path.join(workdir, "fit-input.csv")
        np.savetxt(path, np.stack([matops.vec(y) for y in data]), delimiter=",", fmt="%.17g")
        counter = itertools.count()

        def run():
            out = os.path.join(workdir, f"fit-{next(counter)}.json")
            argv = ["fit", "--input", path, "--p1", str(d.p1), "--p2", str(d.p2),
                    "--rank", str(d.r), "--sqrt", "sym", "--out", out]
            return cli.main(argv), out

        return [Op("m2-n2p", run)]

    def _load(self, output):
        code, path = output
        if code != 0:
            raise Mismatch(f"corecov fit exited with {code}")
        with open(path) as fh:
            return json.load(fh)

    def record(self, output):
        return {"objective": float(self._load(output)["trace"]["objectives"][-1])}

    def check(self, output, ref):
        payload = self._load(output)
        tau = picse.PicseParams(
            k1bar=np.array(payload["k1bar"]),
            k2bar=np.array(payload["k2bar"]),
            nu=float(payload["nu"]),
            a=np.array(payload["a"]),
            lam=float(payload["lambda"]),
            h_kind=SquareRootKind.SYMMETRIC,
            dims=self.dims,
        )
        _check_fit(tau, payload["trace"]["objectives"], ref)


_EXACT = ("estimator", "rep", "n", "termination", "failed")


@dataclass(frozen=True)
class SimulateStudy:
    """`corecov simulate` through `cli.main`, one single-replication study
    per pool seed, with KMLE, Base and PICSE under both square roots."""

    dims: matops.Dims
    n_list: tuple
    study_seeds: int

    def build(self, seed, workdir):
        counter = itertools.count()
        d = self.dims

        def runner(study_seed):
            def run():
                out = os.path.join(workdir, f"sim-{next(counter)}")
                argv = ["simulate", "--model", "m2", "--p1", str(d.p1), "--p2", str(d.p2),
                        "--rank", str(d.r), "--lambda", str(LAMBDA), "--reps", "1",
                        "--seed", str(study_seed), "--sqrt", "both", "--out", out]
                for n in self.n_list:
                    argv += ["--n", str(n)]
                return cli.main(argv), out
            return run

        keys = _order(list(range(self.study_seeds)), seed)
        return [Op(f"seed{s}", runner(s)) for s in keys]

    def _rows(self, output):
        code, out = output
        if code != 0:
            raise Mismatch(f"corecov simulate exited with {code}")
        if not os.path.isfile(os.path.join(out, "summary.json")):
            raise Mismatch("summary.json missing")
        with open(os.path.join(out, "results.csv")) as fh:
            return [line.split(",") for line in fh.read().splitlines()]

    def record(self, output):
        return {"rows": self._rows(output)}

    def check(self, output, ref):
        rows, ref_rows = self._rows(output), ref["rows"]
        if len(rows) != len(ref_rows) or rows[0] != ref_rows[0]:
            raise Mismatch("results.csv shape or header differs from reference")
        header = ref_rows[0]
        for row, ref_row in zip(rows[1:], ref_rows[1:]):
            for col, value, want in zip(header, row, ref_row):
                if col in _EXACT or want == "":
                    if value != want:
                        raise Mismatch(f"{col} {value!r} differs from reference {want!r}")
                else:
                    _close(float(value), float(want), col)


# Pools sized so that one pass takes 20-30 s on a 2-vCPU x86 VM with
# OpenBLAS; the second field records that time and sets how many passes a run
# of a given length makes.  The tiny variants exist for the harness's tests.
WORKLOADS = {
    "fit-small": (FitSmall(matops.Dims(4, 3, 3), truths=6), 29.0),
    "fit-large": (FitLarge(matops.Dims(12, 10, 6)), 24.0),
    "simulate-study": (SimulateStudy(matops.Dims(6, 4, 3), (12, 48), study_seeds=5), 21.0),
}
TINY = {
    "fit-small": FitSmall(matops.Dims(2, 2, 3), truths=1),
    "fit-large": FitLarge(matops.Dims(3, 2, 5)),
    "simulate-study": SimulateStudy(matops.Dims(2, 2, 3), (3, 8), study_seeds=1),
}


def workload(name, tiny=False):
    return TINY[name] if tiny else WORKLOADS[name][0]


def passes(name, seconds):
    """Passes over the pool in a timed phase of about `seconds`; fixed for
    a given run length, so the work does not depend on the program's speed."""
    return max(1, round(seconds / WORKLOADS[name][1]))


def reference_path(name, tiny=False):
    return os.path.join(HERE, "reference", f"{name}{'.tiny' if tiny else ''}.json")


def load_reference(name, tiny=False):
    with open(reference_path(name, tiny)) as fh:
        return json.load(fh)

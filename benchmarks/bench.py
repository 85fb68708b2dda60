"""corecov benchmark: three fit workloads, end-to-end metrics, traced layers.

    python3 benchmarks/bench.py --workload fit-small --seed 1 --seconds 25 --trace 0

Workloads (see bench_workloads.py):
  fit-small       48 `picse.fit` calls at Dims(4,3,3): m1/m2 truths, n in
                  {p, 2p}, sym and chol.  Retraction, balancing and the
                  flip-flop dominate; the Tier-1 hot spot.
  fit-large       `corecov fit --sqrt sym` at Dims(12,10,6), n = 240, through
                  `cli.main`.  The dense `j_operator` dominates.
  simulate-study  `corecov simulate --model m2 --p1 6 --p2 4 --rank 3
                  --lambda 0.2 --n 12 --n 48 --sqrt both --reps 1` for five
                  study seeds.  The paper's study path, including n < p.

Each run is one process with one BLAS thread.  It times a fixed number of
passes over the workload's pool, set by --seconds alone (one pass takes
20-30 s on a 2-vCPU x86 VM), then checks every output against reference/.  The last stdout
line is the result object; the line before it holds the machine block and
run details, which are also written, with the spans, to .bench_out/.

--trace 0 reports the end-to-end metrics.  Timings but setup_s are rescaled
to a reference CPU speed by the probe in bench_speed.py, because the speed a
shared VM gives a process drifts by up to 1.7x; the raw phase time and the
factor are in the details line.
  wall_s        time of the timed phase
  fit_p50_s     median time of one `picse.fit` call
  fit_tail_s    highest percentile of per-fit time with at least ten fits
                beyond it; when a run has fewer than 21 fits, the mean of the
                ten slowest (of all, below ten).  The details line gives the
                sample count and the percentile
  sweep_mean_s  summed fit time over summed FitTrace.n_sweeps
  setup_s       median over five fresh processes of process start to the
                first timed call: import, input generation, CSV writing
  peak_rss_mib  peak resident memory of the workload process
  ok_ratio      operations that neither raised, exited non-zero, nor missed
                the reference, over operations attempted (1 - fail ratio)
--trace 1 times the same passes once untraced and once with every public
function of the seven modules wrapped (bench_trace.py), and reports per
function `.calls` and `.total_s`, per module `.self_s`, derived counts and
trace_overhead_ratio, all unscaled.  Per-fit times come from spans around
`picse.fit` in both modes; no other wrapper is installed in an untraced run.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("fit-small", "fit-large", "simulate-study")

TRACED = (
    "cli.main",
    "simulate.run_experiment", "simulate.gen_truth", "simulate.gen_data",
    "simulate.rel_spec_norm", "simulate.write_results_csv",
    "simulate.write_summary_json",
    "picse.fit", "picse.init", "picse.nll", "picse.update_nu",
    "picse.update_lambda", "picse.retract_core_factor",
    "picse.sigma_from_params", "picse.kmle_estimator", "picse.base_estimator",
    "core_geometry.j_operator", "core_geometry.balance_core_factor",
    "core_geometry.row_gram", "core_geometry.col_gram",
    "kcd.kronecker_mle", "kcd.kcd",
    "spd_geometry.ai_inner", "spd_geometry.chol_inner",
    "spd_geometry.ai_unitdet_basis", "spd_geometry.chol_unitdet_basis",
    "spd_geometry.ai_exp", "spd_geometry.chol_exp",
    "spd_geometry.ai_grad_hess", "spd_geometry.chol_grad_hess",
    "matops.kron",
)
MODULES = ("cli", "simulate", "picse", "core_geometry", "kcd", "spd_geometry", "matops")
UNDER = {
    "kcd.kronecker_mle": "picse.retract_core_factor",
    "core_geometry.row_gram": "core_geometry.balance_core_factor",
}
NBYTES = ("core_geometry.j_operator", "matops.kron")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny shapes and references, for the harness's tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit; used to time set-up")
    return parser.parse_args(argv)


def _one_blas_thread():
    """Pin BLAS to one thread; must run before numpy loads.  A second thread
    did not make the Dims(12,10,6) fit faster on a 2-vCPU VM, and its
    spinning slows the speed probe that runs between bytecodes."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def measure_setup(args):
    """Median over SETUP_REPEATS fresh processes of process start to the end
    of input building.  The child prints its `perf_counter()`, a system-wide
    monotonic clock on Linux.  Not rescaled: start-up is mostly loading and
    importing, which the speed probe does not track."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times), times


def _run_pass(ops, tracer, outputs, errors):
    """Run every op once; an exception escaping an op marks it failed."""
    for op in ops:
        tracer.op = len(outputs)
        try:
            outputs.append((op.key, op.run()))
        except Exception:
            outputs.append((op.key, None))
            errors[len(outputs) - 1] = traceback.format_exc(limit=3)


def _check_all(wl, outputs, errors, reference):
    """Check each output that did not fail already; a miss marks it failed."""
    from bench_workloads import Mismatch

    for i, (key, output) in enumerate(outputs):
        if i in errors:
            continue
        try:
            wl.check(output, reference[key])
        except Mismatch as exc:
            errors[i] = f"{key}: {exc}"
        except Exception:
            errors[i] = f"{key}: " + traceback.format_exc(limit=3)


def _tail(times):
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile).  Below 21 samples that percentile would not exceed the
    median, so the mean of the ten slowest samples (all, below ten) is
    reported instead, with percentile None; the slowest single fit of a
    20-fit run spread by 23% (IQR over median) across ten runs."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.mean(ordered[-10:]), None
    return ordered[n - 11], 100.0 * (n - 10) / n


def _fit_tracer(fits, names=("picse.fit",)):
    """Tracer over `names` that also appends (sweeps, termination) of every
    `picse.fit` call that returns to `fits`."""
    from bench_trace import Tracer

    def observe(result):
        trace = result[2]
        fits.append((trace.n_sweeps, trace.termination))

    return Tracer(names, under=UNDER, nbytes=NBYTES, observers={"picse.fit": observe})


def _timed(ops, n_passes, tracer, outputs, errors):
    with tracer:
        t0 = perf_counter()
        for _ in range(n_passes):
            _run_pass(ops, tracer, outputs, errors)
        return perf_counter() - t0


def _e2e(wall, tracer, fits, speed, setup):
    """End-to-end timings, scaled to the reference speed, and run details."""
    scale = speed.factor()
    setup_median, setup_times = setup
    times = [float(t) * scale for t in tracer.durations("picse.fit")]
    tail, pct = _tail(times)
    sweeps = sum(s for s, _ in fits)
    metrics = {
        "wall_s": (wall * scale, "s"),
        "fit_p50_s": (statistics.median(times), "s"),
        "fit_tail_s": (tail, "s"),
        "sweep_mean_s": (sum(times) / sweeps, "s"),
        "setup_s": (setup_median, "s"),
    }
    details = {"fits": len(times), "sweeps": sweeps, "fit_tail_percentile": pct,
               "raw_wall_s": wall, "speed_factor": scale, "setup_s_samples": setup_times,
               "fit_s": times}
    return metrics, details


def _ratio(num, den):
    return num / den if den else 0.0


def _layers(tracer, fits, wall_u, wall_t):
    summ = tracer.summary()
    calls = summ["calls"]
    absent = list(tracer.absent)
    metrics = {}
    for name in TRACED:
        if name in absent:
            continue
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.total_s"] = (summ["total_s"][name], "s")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (summ["module_self_s"][module], "s")
    sweeps = sum(s for s, _ in fits)
    under = dict(zip(tracer.names, tracer.under_counts))
    nbytes = dict(zip(tracer.names, tracer.nbytes))
    # name: (value, unit, the traced functions the value is counted from)
    derived = {
        "picse.sweeps": (sweeps, "count", ["picse.fit"]),
        "picse.converged_ratio": (
            _ratio(sum(t == "converged" for _, t in fits), len(fits)), "ratio",
            ["picse.fit"]),
        "picse.nll.calls_per_sweep": (
            _ratio(calls["picse.nll"], sweeps), "calls/sweep", ["picse.fit", "picse.nll"]),
        "picse.retract_core_factor.attempts_per_call": (
            _ratio(under["kcd.kronecker_mle"], calls["picse.retract_core_factor"]),
            "attempts/call", ["picse.retract_core_factor", "kcd.kronecker_mle"]),
        "core_geometry.balance_core_factor.passes_per_call": (
            _ratio(under["core_geometry.row_gram"] / 2,
                   calls["core_geometry.balance_core_factor"]),
            "passes/call", ["core_geometry.balance_core_factor", "core_geometry.row_gram"]),
        "core_geometry.j_operator.calls_per_sweep": (
            _ratio(calls["core_geometry.j_operator"], sweeps), "calls/sweep",
            ["picse.fit", "core_geometry.j_operator"]),
        "core_geometry.j_operator.bytes": (
            nbytes["core_geometry.j_operator"], "B", ["core_geometry.j_operator"]),
        "matops.kron.bytes": (nbytes["matops.kron"], "B", ["matops.kron"]),
        "spd_geometry.ai_inner.calls_per_sweep": (
            _ratio(calls["spd_geometry.ai_inner"], sweeps), "calls/sweep",
            ["picse.fit", "spd_geometry.ai_inner"]),
    }
    for name, (value, unit, sources) in derived.items():
        if set(sources) & set(tracer.absent):
            absent.append(name)
        else:
            metrics[name] = (value, unit)
    metrics["trace_overhead_ratio"] = (wall_t / wall_u, "ratio")
    details = {"absent": absent, "traced_wall_s": wall_t, "untraced_wall_s": wall_u,
               "root_span_s": summ["root_s"], "spans": len(tracer.name)}
    return metrics, details


def run(args):
    """One benchmark run; returns (result object, details)."""
    import bench_workloads as bw
    from bench_speed import SpeedProbe

    wl = bw.workload(args.workload, args.tiny)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_only:
            wl.build(args.seed, workdir)
            print(perf_counter(), flush=True)
            return None, None
        setup = None if args.trace else measure_setup(args)
        ops = wl.build(args.seed, workdir)
        reference = bw.load_reference(args.workload, args.tiny)
        n_passes = bw.passes(args.workload, args.seconds)
        outputs, errors, fits = [], {}, []
        recorder = _fit_tracer(fits)
        if args.trace:
            wall = _timed(ops, n_passes, recorder, outputs, errors)
            traced_fits = []
            tracer = _fit_tracer(traced_fits, TRACED)
            wall_t = _timed(ops, n_passes, tracer, outputs, errors)
            metrics, details = _layers(tracer, traced_fits, wall, wall_t)
        else:
            with SpeedProbe() as speed:
                wall = _timed(ops, n_passes, recorder, outputs, errors)
            metrics, details = _e2e(wall, recorder, fits, speed, setup)
        _check_all(wl, outputs, errors, reference)
        if not args.trace:
            metrics["ok_ratio"] = ((len(outputs) - len(errors)) / len(outputs), "ratio")
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        details.update(workload=args.workload, seed=args.seed, passes=n_passes,
                       ops=len(outputs), errors=[errors[i] for i in sorted(errors)],
                       machine=machine_block(args.seed))
        result = {
            "correct": not errors,
            "attempted": len(outputs),
            "failed": len(errors),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            tracer.save(stem + "-spans.npz")
        with open(stem + ".json", "w") as fh:
            json.dump({"result": result, "details": details}, fh, indent=2)
        return result, details
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "corecov")):
        print(f"error: corecov sources not found under {SRC}", file=sys.stderr)
        return 2
    _one_blas_thread()
    sys.path.insert(0, SRC)
    result, details = run(args)
    if result is None:
        return 0
    for err in details["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

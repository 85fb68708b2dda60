"""Compare two source trees: output bits, benchmark checks, lines and options.

    python3 tools/same_outputs.py [--workload NAME ...] OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `corecov` package, such as
the `src/` of two checkouts.  Each tree runs in its own process with one BLAS
thread.  That process runs all operations of the benchmark workloads in
benchmarks/bench_workloads.py once, in the pool order of seed 0: all three
workloads, or those named by --workload (repeatable).  Each output is reduced
to SHA-256 digests of its bytes:

  fit-small       objectives, step norms, termination, K1bar, K2bar, nu, A,
                  lambda and sigma_hat of each `picse.fit` call
  fit-large       exit code and JSON text of `corecov fit`
  simulate-study  exit code, results.csv and summary.json of `corecov
                  simulate`, the summary with every wall_time_total_s removed

An operation that raises is reduced to its exception.  Each output is also
checked as benchmarks/bench.py checks it; an operation that raises or fails
its check is a miss.  A fit also records its final objective.  The process
then counts the lines of each module of the tree's `corecov` and lists the
parameters with a default of every public function, public method and class
constructor (the class's own `__init__` or `__new__`) defined in each module.

Prints markdown for a GitHub step summary: in a fenced block, each operation
that differs, with the fields that differ and, for a fit, the relative change
of its final objective, which sizes a rounding change; the count of
bit-identical operations; each tree's checks passed and misses; each tree's
peak resident memory (its process's ru_maxrss).  Then a table of lines per
module and a table of options per module.  Exits 0 when every operation
matches, 1 when some differ, and 2 when a tree could not be run.
"""

import argparse
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "benchmarks")
WORKLOADS = ("fit-small", "fit-large", "simulate-study")
SIDES = ("old", "new")
SEED = 0
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


def _fit_fields(output):
    tau, sigma_hat, trace = output

    def array(x):
        x = np.ascontiguousarray(x, dtype=float)
        return repr(x.shape).encode() + x.tobytes()

    return {
        "objectives": array(trace.objectives),
        "step_norms": json.dumps(trace.step_norms, sort_keys=True).encode(),
        "termination": trace.termination.encode(),
        "k1bar": array(tau.k1bar),
        "k2bar": array(tau.k2bar),
        "nu": float(tau.nu).hex().encode(),
        "a": array(tau.a),
        "lambda": float(tau.lam).hex().encode(),
        "sigma_hat": array(sigma_hat),
    }


def _summary_bytes(path):
    """summary.json without its wall times, which differ from run to run."""
    with open(path) as fh:
        summary = json.load(fh)
    for cell in summary["cells"]:
        del cell["wall_time_total_s"]
    return json.dumps(summary, sort_keys=True).encode()


def _fields(workload, output):
    if workload == "fit-small":
        return _fit_fields(output)
    code, path = output
    fields = {"exit_code": str(code).encode()}
    if workload == "simulate-study":
        fields["summary"] = _summary_bytes(os.path.join(path, "summary.json"))
        path = os.path.join(path, "results.csv")
    with open(path, "rb") as fh:
        fields["output"] = fh.read()
    return fields


def _final_objective(workload, output):
    """The last objective of a fit's trace; None for a study or for a
    `corecov fit` that exited with an error."""
    if workload == "fit-small":
        return float(output[2].objectives[-1])
    code, path = output
    if workload != "fit-large" or code != 0:
        return None
    with open(path) as fh:
        return float(json.load(fh)["trace"]["objectives"][-1])


def _digest(fields):
    return {k: hashlib.sha256(v).hexdigest() for k, v in fields.items()}


def _miss(exc):
    return f"{type(exc).__name__}: {exc}"


def run_tree(src, out, workloads=WORKLOADS):
    """Run every operation of `workloads` on the tree at `src`; write
    {"digests": {workload/key: {field: sha256}}, "objectives": {workload/key:
    final objective of a fit}, "misses": {workload/key: why it missed},
    "lines": {module file: lines}, "options": options(), "peak_rss_mib": peak
    resident memory of this process} as JSON to `out`."""
    sys.path[:0] = [src, BENCH]
    import corecov
    import bench_workloads as bw

    if not os.path.abspath(corecov.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"corecov imported from {corecov.__file__}, not {src}")
    digests, objectives, misses = {}, {}, {}
    workdir = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        for workload in workloads:
            wl, reference = bw.workload(workload), bw.load_reference(workload)
            for op in wl.build(SEED, workdir):
                key = f"{workload}/{op.key}"
                try:
                    output = op.run()
                    fields = _fields(workload, output)
                except Exception as exc:  # the exception is the output compared
                    fields = {"exception": repr(exc).encode()}
                    misses[key] = _miss(exc)
                else:
                    objective = _final_objective(workload, output)
                    if objective is not None:
                        objectives[key] = objective
                    try:
                        wl.check(output, reference[op.key])
                    except Exception as exc:  # a check that raises misses too
                        misses[key] = _miss(exc)
                digests[key] = _digest(fields)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = {f.name: f.read_text().count("\n") for f in Path(src, "corecov").glob("*.py")}
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_mib = rss / 2**20 if sys.platform == "darwin" else rss / 2**10
    with open(out, "w") as fh:
        json.dump({"digests": digests, "objectives": objectives, "misses": misses,
                   "lines": lines, "options": options(), "peak_rss_mib": rss_mib},
                  fh, indent=1, sort_keys=True)


def _defaults(fn):
    params = inspect.signature(fn).parameters.values()
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def _methods(cls):
    init = cls.__dict__.get("__init__") or cls.__dict__.get("__new__")
    if init is not None:
        yield cls.__name__, init
    for name, attr in vars(cls).items():
        fn = attr.__func__ if isinstance(attr, (staticmethod, classmethod)) else attr
        if not name.startswith("_") and inspect.isfunction(fn):
            yield f"{cls.__name__}.{name}", fn


def options():
    """{module: {callable: [parameter names with a default]}} of the
    importable `corecov` package."""
    import corecov

    out = {}
    for info in pkgutil.iter_modules(corecov.__path__):
        module = importlib.import_module(f"corecov.{info.name}")
        rows = {}
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = ([(name, obj)] if inspect.isfunction(obj)
                       else _methods(obj) if inspect.isclass(obj) else [])
            for qualname, fn in members:
                rows[qualname] = _defaults(fn)
        out[info.name] = rows
    return out


def compare(old, new, old_objectives=None, new_objectives=None):
    """Names of the operations whose digests differ, with the differing fields
    and, where both trees recorded a final objective, its relative change."""
    old_objectives, new_objectives = old_objectives or {}, new_objectives or {}
    diffs = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, {}), new.get(key, {})
        fields = sorted(f for f in set(a) | set(b) if a.get(f) != b.get(f))
        if not fields:
            continue
        note = ", ".join(fields)
        if key in old_objectives and key in new_objectives:
            f_old, f_new = old_objectives[key], new_objectives[key]
            note += f"; final objective {(f_new - f_old) / abs(f_old):.1e} relative"
        diffs.append(f"{key} ({note})")
    return diffs


def check_lines(side, total, misses):
    """The count of one tree's operations that pass the benchmark's checks,
    then one line per miss."""
    return ([f"benchmark checks {side}: {total - len(misses)} of {total} pass"]
            + [f"miss {side}: {key}: {why}" for key, why in sorted(misses.items())])


def lines_table(old, new):
    rows = ["| module | base | head |", "|---|---:|---:|"]
    rows += [f"| {f} | {old.get(f, 0)} | {new.get(f, 0)} |" for f in sorted(set(old) | set(new))]
    return rows + [f"| total | {sum(old.values())} | {sum(new.values())} |"]


def _cell(names):
    return f"{len(names)}: {', '.join(f'`{n}`' for n in names)}" if names else "0"


def options_table(old, new):
    lines, totals = [], [0, 0]
    for module in sorted(set(old) | set(new)):
        trees = old.get(module, {}), new.get(module, {})
        lines += [f"#### `corecov.{module}`", "| callable | base | head |", "|---|---|---|"]
        for qualname in sorted(set(trees[0]) | set(trees[1])):
            cells = [tree.get(qualname, []) for tree in trees]
            if any(cells):
                lines.append(f"| `{qualname}` | {_cell(cells[0])} | {_cell(cells[1])} |")
        counts = [sum(map(len, tree.values())) for tree in trees]
        totals = [t + c for t, c in zip(totals, counts)]
        lines += [f"| total | {counts[0]} | {counts[1]} |", ""]
    return lines + [f"**Parameters with a default in src/corecov: base {totals[0]}, "
                    f"head {totals[1]}**"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        dest="workloads", metavar="NAME",
                        help="check only this workload (repeatable; default: all "
                             f"of {', '.join(WORKLOADS)})")
    args = parser.parse_args(argv)
    trees = (args.old_src, args.new_src)
    workloads = list(dict.fromkeys(args.workloads or WORKLOADS))

    # Each tree gets a fresh interpreter, so the two corecov packages never
    # meet in one process and BLAS starts with one thread.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
    child = ("import sys, same_outputs; "
             "same_outputs.run_tree(sys.argv[1], sys.argv[2], sys.argv[3:])")
    tmp = tempfile.mkdtemp(prefix="same-outputs-")
    try:
        outs = [os.path.join(tmp, f"{side}.json") for side in SIDES]
        procs = []
        for src, out in zip(trees, outs):
            with open(out + ".log", "w") as log:
                procs.append(subprocess.Popen(
                    [sys.executable, "-c", child, os.path.abspath(src), out, *workloads],
                    cwd=HERE, env=env, stderr=log))
        codes = [proc.wait() for proc in procs]
        for src, out, code in zip(trees, outs, codes):
            if code != 0:
                with open(out + ".log") as log:
                    print(f"error: running {src} failed:\n{log.read()}", file=sys.stderr)
        if any(codes):
            return 2
        old, new = (json.loads(Path(out).read_text()) for out in outs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    diffs = compare(old["digests"], new["digests"], old["objectives"], new["objectives"])
    total = len(set(old["digests"]) | set(new["digests"]))
    out = ["### Outputs of the benchmark operations, base vs head", "```"]
    out += [f"differs: {line}" for line in diffs]
    out.append(f"{total - len(diffs)} of {total} operations bit-identical")
    for side, run in zip(SIDES, (old, new)):
        out += check_lines(side, len(run["digests"]), run["misses"])
    for side, src, run in zip(SIDES, trees, (old, new)):
        out.append(f"peak RSS {side}: {run['peak_rss_mib']:.1f} MiB ({src})")
    out += ["```", "### Lines of src/corecov, per module (0: not in that tree)"]
    out += lines_table(old["lines"], new["lines"])
    out.append("### Parameters with a default, per module")
    out += options_table(old["options"], new["options"])
    print("\n".join(out))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

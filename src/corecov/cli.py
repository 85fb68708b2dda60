"""Command-line interface: `simulate` (replication studies), `fit` (PICSE on
a data file), and `kcd` (Kronecker-core decomposition of a single matrix).

Exit codes: 0 success, 2 invalid input or configuration (rejected before any
computation), 3 numerical failure (anything raised during computation).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import matops, picse, simulate
from .errors import NUMERICAL_ERRORS
from .kcd import SquareRootKind, kcd as run_kcd


def _kinds(token):
    if token == "both":
        return (SquareRootKind.SYMMETRIC, SquareRootKind.CHOLESKY)
    return (SquareRootKind(token),)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="corecov",
        description="Kronecker-core covariance geometry and the partial-isotropy "
        "core shrinkage estimator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded replication study")
    sim.add_argument("--model", choices=["m1", "m2"], required=True)
    sim.add_argument("--p1", type=int, required=True)
    sim.add_argument("--p2", type=int, required=True)
    sim.add_argument("--rank", type=int, required=True)
    sim.add_argument("--lambda", dest="lam", type=float, required=True)
    sim.add_argument("--n", type=int, action="append", required=True,
                     help="sample size (repeatable)")
    sim.add_argument("--reps", type=int, default=20)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--sqrt", choices=["sym", "chol", "both"], default="sym")
    sim.add_argument("--tol", type=float, default=1e-6)
    sim.add_argument("--max-iter", type=int, default=200)
    sim.add_argument("--out", required=True, help="output directory")

    fit = sub.add_parser("fit", help="fit PICSE to vec-rows CSV data")
    fit.add_argument("--input", required=True,
                     help="CSV, n rows x p columns, row i = vec(Y_i) column-stacked")
    fit.add_argument("--p1", type=int, required=True)
    fit.add_argument("--p2", type=int, required=True)
    fit.add_argument("--rank", type=int, required=True)
    fit.add_argument("--sqrt", choices=["sym", "chol"], default="sym")
    fit.add_argument("--tol", type=float, default=1e-6)
    fit.add_argument("--max-iter", type=int, default=200)
    fit.add_argument("--out", required=True, help="output JSON file")

    dec = sub.add_parser("kcd", help="Kronecker-core decomposition of a matrix")
    dec.add_argument("--input", required=True, help="CSV holding a p x p matrix")
    dec.add_argument("--p1", type=int, required=True)
    dec.add_argument("--p2", type=int, required=True)
    dec.add_argument("--sqrt", choices=["sym", "chol"], default="sym")
    dec.add_argument("--out", required=True, help="output JSON file")
    return parser


def _cmd_simulate(args):
    config = simulate.ExperimentConfig(
        model=args.model,
        dims=matops.Dims(args.p1, args.p2, args.rank),
        lam=args.lam,
        n_list=tuple(args.n),
        reps=args.reps,
        seed=args.seed,
        h_kinds=_kinds(args.sqrt),
        tol=args.tol,
        max_iter=args.max_iter,
    )
    os.makedirs(args.out, exist_ok=True)
    records, summary = simulate.run_experiment(config)
    simulate.write_results_csv(records, os.path.join(args.out, "results.csv"))
    simulate.write_summary_json(summary, os.path.join(args.out, "summary.json"))
    return 0


def _check_out_file(path):
    """ValueError unless path is no directory and its directory exists."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"cannot write the output file {path}")


def _load_csv(path):
    """The rows of a numeric CSV file; ValueError when it holds no data."""
    with open(path) as fh:
        lines = [line for line in fh if line.split("#", 1)[0].strip()]
    if not lines:
        raise ValueError(f"{path} contains no data")
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def _cmd_fit(args):
    _check_out_file(args.out)
    rows = _load_csv(args.input)
    dims = matops.Dims(args.p1, args.p2, args.rank)
    if rows.shape[1] != dims.p:
        raise ValueError(f"expected {dims.p} columns, found {rows.shape[1]}")
    data = rows.reshape(-1, dims.p2, dims.p1).transpose(0, 2, 1)
    config = picse.FitConfig(
        tol=args.tol, max_iter=args.max_iter, h_kind=SquareRootKind(args.sqrt)
    )
    tau, sigma_hat, trace = picse.fit(data, dims, config)
    payload = {
        "k1bar": tau.k1bar.tolist(),
        "k2bar": tau.k2bar.tolist(),
        "nu": tau.nu,
        "a": tau.a.tolist(),
        "lambda": tau.lam,
        "sigma_hat": sigma_hat.tolist(),
        "trace": {
            "objectives": [float(v) for v in trace.objectives],
            "step_norms": trace.step_norms,
            "termination": trace.termination,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_kcd(args):
    _check_out_file(args.out)
    sigma = _load_csv(args.input)
    if not np.isfinite(sigma).all():
        raise ValueError("matrix contains non-finite values")
    dims = matops.Dims(args.p1, args.p2)
    result = run_kcd(sigma, dims, SquareRootKind(args.sqrt))
    payload = {
        "k1": result.k.k1.tolist(),
        "k2": result.k.k2.tolist(),
        "c": result.c.tolist(),
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"simulate": _cmd_simulate, "fit": _cmd_fit, "kcd": _cmd_kcd}[
        args.command
    ]
    # The numerical errors subclass ValueError, so they are caught first.
    try:
        return handler(args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

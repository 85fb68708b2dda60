"""Command-line interface: `simulate` (replication studies), `fit` (PICSE on
a data file), and `kcd` (Kronecker-core decomposition of a single matrix).

Exit codes by exception type: 0 success, 2 on ConfigError or OSError (an
argument, file or output path is rejected), 3 on NUMERICAL_ERRORS (a
computation failed on valid input).  Any other exception propagates.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import matops, picse, simulate
from .errors import NUMERICAL_ERRORS, ConfigError
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
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--p1", type=int, required=True)
    shape.add_argument("--p2", type=int, required=True)
    fitting = argparse.ArgumentParser(add_help=False, parents=[shape])
    fitting.add_argument("--rank", type=int, required=True)
    fitting.add_argument("--tol", type=float, default=picse.FitConfig.tol)
    fitting.add_argument("--max-iter", type=int, default=picse.FitConfig.max_iter)

    sim = sub.add_parser("simulate", parents=[fitting],
                         help="run a seeded replication study")
    sim.add_argument("--model", choices=["m1", "m2"], required=True)
    sim.add_argument("--lambda", dest="lam", type=float, required=True)
    sim.add_argument("--n", type=int, action="append", required=True,
                     help="sample size (repeatable)")
    sim.add_argument("--reps", type=int, default=20)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--sqrt", choices=["sym", "chol", "both"], default="sym")
    sim.add_argument("--out", required=True, help="output directory")

    fit = sub.add_parser("fit", parents=[fitting], help="fit PICSE to vec-rows CSV data")
    fit.add_argument("--input", required=True,
                     help="CSV, n rows x p columns, row i = vec(Y_i) column-stacked")
    fit.add_argument("--sqrt", choices=["sym", "chol"], default="sym")
    fit.add_argument("--out", required=True, help="output JSON file")

    dec = sub.add_parser("kcd", parents=[shape],
                         help="Kronecker-core decomposition of a matrix")
    dec.add_argument("--input", required=True, help="CSV holding a p x p matrix")
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
    """ConfigError unless path is no directory and its directory exists."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ConfigError(f"cannot write the output file {path}")


def _load_csv(path):
    """The rows of a numeric CSV file; ConfigError when it is empty or unparsable."""
    try:
        with open(path) as fh:
            lines = [line for line in fh if line.split("#", 1)[0].strip()]
        if lines:
            return np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path} contains no data")


def _cmd_fit(args):
    _check_out_file(args.out)
    rows = _load_csv(args.input)
    dims = matops.Dims(args.p1, args.p2, args.rank)
    data = matops.mat(rows, dims.p1, dims.p2)
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
        raise ConfigError("matrix contains non-finite values")
    if sigma.shape == sigma.T.shape and (
            np.abs(sigma - sigma.T).max() > matops.RESIDUAL_TOL * np.abs(sigma).max()):
        raise ConfigError("matrix is not symmetric")
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
    args = build_parser().parse_args(argv)
    handler = {"simulate": _cmd_simulate, "fit": _cmd_fit, "kcd": _cmd_kcd}[args.command]
    try:
        return handler(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

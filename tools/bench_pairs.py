"""Run the benchmark on two trees in alternating pairs and summarise the runs.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        --pairs N --seed S --out BENCH_K.json [--change TEXT]

PARENT_TREE and CHANGE_TREE are checkouts of the two commits, each with its
own benchmarks/ and src/ (for example `git archive` of each commit, unpacked).
For each --workload (repeatable), pair k = 1..N runs

    python3 TREE/benchmarks/bench.py --workload W --seed S+k-1 --trace 0

on both trees: the parent first in odd pairs, the change first in even ones.
Both runs of a pair use the same seed, and each pair a fresh one.  The runs
are written to --out as they finish; when all are done the file also gets,
per workload and per end-to-end metric of CHANGE_TREE/BENCHMARK.json:

  parent, change      q1, median and q3 (numpy linear percentiles)
  change_wins         pairs in which the change is better (ties count for neither)
  median_change_rel   (change median - parent median) / parent median
  parent_iqr          q3 - q1 of the parent's runs
  median_gap          parent median - change median, positive when the
                      change is better
  gain                at least 10 pairs, the change wins at least 9 of 10 of
                      them and median_gap exceeds parent_iqr: a gain that may
                      be claimed
  within_bound        the change median is worse than the parent median by
                      no more than the metric's bound (relative)

Exits 2 when a benchmark run fails or prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

# Pairs that must be run, and the share of them the change must win, before
# a gain may be claimed.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_bench(tree, workload, seed):
    """(result object, machine block) of one `--trace 0` run on `tree`."""
    cmd = [sys.executable, os.path.join(tree, "benchmarks", "bench.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["details"]["machine"]


def _quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize(runs, metrics):
    """Per workload and per metric, the statistics listed in the module
    docstring.  `runs` are the records this tool writes; `metrics` is the
    `end_to_end` list of BENCHMARK.json."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["tree"]] = run["result"]
        results = [pairs[k] for k in sorted(pairs)]
        n = len(results)
        entry = {"pairs": n,
                 "correct": all(r[tree]["correct"] for r in results for tree in r)}
        for metric in metrics:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            parent = [r["parent"]["metrics"][name]["value"] for r in results]
            change = [r["change"]["metrics"][name]["value"] for r in results]
            wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
            pq, cq = _quartiles(parent), _quartiles(change)
            iqr = pq["q3"] - pq["q1"]
            gap = sign * (pq["median"] - cq["median"])
            scale = abs(pq["median"])
            entry[name] = {
                "parent": pq,
                "change": cq,
                "change_wins": f"{wins} of {n} pairs",
                "median_change_rel": (cq["median"] - pq["median"]) / scale if scale else 0.0,
                "parent_iqr": iqr,
                "median_gap": gap,
                "gain": n >= MIN_PAIRS and wins >= WIN_SHARE * n and gap > iqr,
                "within_bound": -gap <= metric["bound"] * scale,
            }
        summary[workload] = entry
    return summary


def _write(path, doc):
    with open(path + ".tmp", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(path + ".tmp", path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", action="append", required=True, dest="workloads")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", required=True)
    parser.add_argument("--change", default="", help="what the change does")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    doc = {
        "change": args.change,
        "protocol": (
            "tools/bench_pairs.py: python3 TREE/benchmarks/bench.py --workload W "
            "--seed S --trace 0 at the benchmark's default run length, parent and change "
            "each from its own tree; the parent first in odd pairs, the change first in "
            f"even ones; pair k uses seed {args.seed}+k-1; quartiles are numpy linear "
            "percentiles"),
        "machine": None,
        "summary": None,
        "runs": [],
    }
    for workload in dict.fromkeys(args.workloads):
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            seed = args.seed + pair - 1
            for tree in order:
                try:
                    result, machine = run_bench(trees[tree], workload, seed)
                except (RuntimeError, ValueError, KeyError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                machine.pop("seed", None)
                doc["machine"] = doc["machine"] or machine
                doc["runs"].append({"tree": tree, "workload": workload, "seed": seed,
                                    "pair": pair, "first": order[0], "result": result})
                _write(args.out, doc)
    doc["summary"] = summarize(doc["runs"], metrics)
    _write(args.out, doc)
    for workload, entry in doc["summary"].items():
        for name, stats in entry.items():
            if isinstance(stats, dict):
                print(f"{workload} {name}: parent {stats['parent']['median']:.6g} "
                      f"change {stats['change']['median']:.6g} "
                      f"({stats['median_change_rel']:+.1%}), {stats['change_wins']}, "
                      f"gain {stats['gain']}, within bound {stats['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

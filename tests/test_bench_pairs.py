import json
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_pairs  # noqa: E402

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
]
# A stand-in for benchmarks/bench.py: wall_s is the tree's base time plus the
# seed's last digit / 100; it appends "tree seed" to calls.log in the tree.
FAKE_BENCH = """
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
tree = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(tree, "base")) as fh:
    base = float(fh.read())
with open(os.path.join(tree, os.pardir, "calls.log"), "a") as fh:
    fh.write(f"{os.path.basename(tree)} {seed}\\n")
metrics = {"wall_s": {"value": base + (seed % 10) / 100, "unit": "s"},
           "ok_ratio": {"value": 1.0, "unit": "ratio"}}
print(json.dumps({"details": {"machine": {"nproc": 2, "seed": seed}}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
"""


def _tree(tmp_path, name, base):
    tree = tmp_path / name
    (tree / "benchmarks").mkdir(parents=True)
    (tree / "benchmarks" / "bench.py").write_text(FAKE_BENCH)
    (tree / "base").write_text(str(base))
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return str(tree)


def test_pairs_alternate_and_summary_reports_the_gain(tmp_path, capsys):
    parent, change = _tree(tmp_path, "parent", 1.0), _tree(tmp_path, "change", 0.8)
    out = str(tmp_path / "BENCH.json")
    argv = [parent, change, "--workload", "fit-small", "--pairs", "4", "--seed", "31",
            "--out", out]
    assert bench_pairs.main(argv) == 0
    calls = (tmp_path / "calls.log").read_text().split("\n")[:-1]
    assert calls == ["parent 31", "change 31", "change 32", "parent 32",
                     "parent 33", "change 33", "change 34", "parent 34"]
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["machine"] == {"nproc": 2}
    assert [(r["tree"], r["pair"], r["first"]) for r in doc["runs"][:4]] == [
        ("parent", 1, "parent"), ("change", 1, "parent"),
        ("change", 2, "change"), ("parent", 2, "change")]
    wall = doc["summary"]["fit-small"]["wall_s"]
    assert wall["parent"] == pytest.approx({"q1": 1.0175, "median": 1.025, "q3": 1.0325})
    # 4 of 4 pairs won by a clear gap, but a gain needs at least 10 pairs
    assert wall["change_wins"] == "4 of 4 pairs" and not wall["gain"] and wall["within_bound"]
    assert wall["median_gap"] == pytest.approx(0.2)
    assert wall["parent_iqr"] == pytest.approx(0.015)
    ok = doc["summary"]["fit-small"]["ok_ratio"]
    assert ok["change_wins"] == "0 of 4 pairs" and not ok["gain"] and ok["within_bound"]
    assert doc["summary"]["fit-small"]["correct"]
    assert "fit-small wall_s" in capsys.readouterr().out


def _runs(parent, change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), 1):
        for tree, value in (("parent", p), ("change", c)):
            result = {"correct": True, "metrics": {"wall_s": {"value": value}}}
            runs.append({"tree": tree, "workload": "w", "pair": pair, "result": result})
    return runs


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_iqr():
    metric = [METRICS[0]]
    # 9 of 10 wins and a clear gap: a gain
    parent = [10.0 + 0.1 * k for k in range(10)]
    change = [v - 1.0 for v in parent[:9]] + [parent[9] + 1.0]
    assert bench_pairs.summarize(_runs(parent, change), metric)["w"]["wall_s"]["gain"]
    # 8 of 10 wins: no gain
    change = [v - 1.0 for v in parent[:8]] + [v + 1.0 for v in parent[8:]]
    assert not bench_pairs.summarize(_runs(parent, change), metric)["w"]["wall_s"]["gain"]
    # every pair won, but by less than the parent's spread: no gain
    change = [v - 0.01 for v in parent]
    stats = bench_pairs.summarize(_runs(parent, change), metric)["w"]["wall_s"]
    assert stats["change_wins"] == "10 of 10 pairs" and not stats["gain"]
    # 3 of 3 wins by a clear gap: too few pairs for a gain
    stats = bench_pairs.summarize(_runs(parent[:3], [v - 1.0 for v in parent[:3]]), metric)
    wall = stats["w"]["wall_s"]
    assert wall["change_wins"] == "3 of 3 pairs" and wall["median_gap"] > wall["parent_iqr"]
    assert not wall["gain"]


def test_worse_beyond_the_bound_is_reported():
    stats = bench_pairs.summarize(_runs([1.0, 1.0], [1.3, 1.3]), [METRICS[0]])["w"]["wall_s"]
    assert not stats["within_bound"] and stats["median_change_rel"] == pytest.approx(0.3)


def test_failing_run_exits_2(tmp_path, capsys):
    parent, change = _tree(tmp_path, "parent", 1.0), _tree(tmp_path, "change", 0.8)
    with open(os.path.join(change, "benchmarks", "bench.py"), "w") as fh:
        fh.write("import sys; sys.exit(3)\n")
    argv = [parent, change, "--workload", "w", "--pairs", "1", "--seed", "1",
            "--out", str(tmp_path / "B.json")]
    assert bench_pairs.main(argv) == 2
    assert "exited 3" in capsys.readouterr().err

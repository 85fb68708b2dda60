import json
import os
import re
import sys
import time

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))

import same_outputs  # noqa: E402


def test_compare_flags_changed_fields_and_one_sided_keys():
    old = {
        "fit-small/a": {"objectives": "1", "sigma_hat": "2"},
        "fit-small/b": {"objectives": "3"},
        "fit-large/c": {"exit_code": "4", "output": "5"},
    }
    new = {
        "fit-small/a": {"objectives": "1", "sigma_hat": "9"},
        "fit-large/c": {"exit_code": "4", "output": "5"},
        "simulate-study/d": {"exit_code": "6"},
    }
    assert same_outputs.compare(old, new) == [
        "fit-small/a (sigma_hat)",
        "fit-small/b (objectives)",
        "simulate-study/d (exit_code)",
    ]
    assert same_outputs.compare(old, old) == []


def test_tree_without_corecov_exits_2_fast(tmp_path, capsys):
    trees = [tmp_path / "old", tmp_path / "new"]
    for tree in trees:
        tree.mkdir()
    t0 = time.perf_counter()
    assert same_outputs.main([str(tree) for tree in trees]) == 2
    assert time.perf_counter() - t0 < 30.0
    assert "failed" in capsys.readouterr().err


def test_workload_option_runs_only_the_named_workload(capsys):
    # fit-large is one operation; the repeated name runs once; each tree's
    # peak RSS follows the verdict
    src = os.path.join(ROOT, "src")
    argv = ["--workload", "fit-large", "--workload", "fit-large", src, src]
    assert same_outputs.main(argv) == 0
    verdict, *rss = capsys.readouterr().out.splitlines()
    assert verdict == "1 of 1 operations bit-identical"
    assert len(rss) == 2
    for side, line in zip(("old", "new"), rss):
        match = re.fullmatch(rf"peak RSS {side}: (\d+\.\d) MiB \((.*)\)", line)
        assert match and match[2] == src
        # a process that imported numpy and ran a fit, well under a GiB
        assert 10.0 < float(match[1]) < 1024.0


def test_workload_option_rejects_unknown_names(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        same_outputs.main(["--workload", "fit-huge", str(tmp_path), str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _study_digest(tmp_path, name, summary):
    out = tmp_path / name
    out.mkdir()
    (out / "results.csv").write_text("estimator,rep\nkmle,0\n")
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return same_outputs._digest(same_outputs._fields("simulate-study", (0, str(out))))


def test_summary_digest_ignores_wall_times_only(tmp_path):
    def summary(wall_s, mean):
        cell = {"estimator": "kmle", "n": 12, "wall_time_total_s": wall_s,
                "metric_sigma_mean": mean}
        return {"config": {"seed": 0}, "cells": [cell]}

    base = _study_digest(tmp_path, "base", summary(0.5, 0.25))
    assert _study_digest(tmp_path, "slower", summary(2.0, 0.25)) == base
    changed = _study_digest(tmp_path, "changed", summary(0.5, 0.2500000001))
    assert changed["summary"] != base["summary"]
    assert changed["output"] == base["output"]

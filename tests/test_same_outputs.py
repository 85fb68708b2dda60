import json
import os
import re
import sys
import time
import types
from pathlib import Path

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


def test_compare_sizes_a_change_of_the_final_objective():
    old = {"fit-large/m2-n2p": {"exit_code": "0", "output": "1"},
           "fit-small/a": {"objectives": "2"},
           "simulate-study/seed0": {"summary": "3"}}
    new = {"fit-large/m2-n2p": {"exit_code": "0", "output": "9"},
           "fit-small/a": {"objectives": "2"},
           "simulate-study/seed0": {"summary": "8"}}
    # fit-small/a keeps its digests, so its objective is not reported
    old_obj = {"fit-large/m2-n2p": -250.0, "fit-small/a": 1.0}
    new_obj = {"fit-large/m2-n2p": -250.0 - 3.5e-9, "fit-small/a": 2.0}
    assert same_outputs.compare(old, new, old_obj, new_obj) == [
        "fit-large/m2-n2p (output; final objective -1.4e-11 relative)",
        "simulate-study/seed0 (summary)",
    ]
    # an objective one tree did not record (a fit that raised) gets no size
    assert same_outputs.compare(old, new, {}, new_obj) == [
        "fit-large/m2-n2p (output)",
        "simulate-study/seed0 (summary)",
    ]


def test_final_objective_is_the_last_of_each_fit_trace(tmp_path):
    trace = types.SimpleNamespace(objectives=[3.0, 2.5, 2.25])
    assert same_outputs._final_objective("fit-small", (None, None, trace)) == 2.25
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({"trace": {"objectives": [-1.0, -1.5]}}))
    assert same_outputs._final_objective("fit-large", (0, str(path))) == -1.5
    # a failed `corecov fit` leaves no trace, and a study records none
    assert same_outputs._final_objective("fit-large", (2, str(tmp_path / "none"))) is None
    assert same_outputs._final_objective("simulate-study", (0, str(tmp_path))) is None


def test_tree_without_corecov_exits_2_fast(tmp_path, capsys):
    trees = [tmp_path / "old", tmp_path / "new"]
    for tree in trees:
        tree.mkdir()
    t0 = time.perf_counter()
    assert same_outputs.main([str(tree) for tree in trees]) == 2
    assert time.perf_counter() - t0 < 30.0
    assert "failed" in capsys.readouterr().err


def test_workload_option_runs_only_the_named_workload(capsys):
    # fit-large is one operation; the repeated name runs once; the checks of
    # each tree and each tree's peak RSS follow the verdict in the fence
    src = os.path.join(ROOT, "src")
    argv = ["--workload", "fit-large", "--workload", "fit-large", src, src]
    assert same_outputs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    verdict, *checks, rss_old, rss_new, fence = out[out.index("```") + 1:][:6]
    assert verdict == "1 of 1 operations bit-identical"
    assert checks == [f"benchmark checks {side}: 1 of 1 pass" for side in ("old", "new")]
    assert fence == "```"
    for side, line in zip(("old", "new"), (rss_old, rss_new)):
        match = re.fullmatch(rf"peak RSS {side}: (\d+\.\d) MiB \((.*)\)", line)
        assert match and match[2] == src
        # a process that imported numpy and ran a fit, well under a GiB
        assert 10.0 < float(match[1]) < 1024.0
    lines = sum(f.read_text().count("\n") for f in Path(src, "corecov").glob("*.py"))
    assert f"| total | {lines} | {lines} |" in out


def test_check_lines_count_the_passes_and_name_each_miss():
    misses = {"simulate-study/seed2": "Mismatch: metric_k 0.5 differs from reference 0.4",
              "fit-large/m2-n2p": "ValueError: boom"}
    assert same_outputs.check_lines("new", 54, misses) == [
        "benchmark checks new: 52 of 54 pass",
        "miss new: fit-large/m2-n2p: ValueError: boom",
        "miss new: simulate-study/seed2: Mismatch: metric_k 0.5 differs from reference 0.4",
    ]
    assert same_outputs.check_lines("old", 1, {}) == ["benchmark checks old: 1 of 1 pass"]


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


def test_options_lists_the_parameters_with_a_default():
    tree = same_outputs.options()
    assert tree["picse"]["fit"] == ["config", "initial"]
    assert tree["picse"]["FitConfig"] == ["tol", "max_iter", "h_kind"]
    assert tree["spd_geometry"]["ai_exp"] == []
    assert tree["spd_geometry"]["UnitDetTangentSpace.exp"] == []
    # private names and names imported from other modules are skipped
    assert "_block_step" not in tree["picse"] and "SquareRootKind" not in tree["picse"]


def test_options_table_and_totals():
    old = {"a": {"f": ["x"], "g": []}}
    new = {"a": {"f": []}, "b": {"h": ["y", "z"]}}
    assert same_outputs.options_table(old, new) == [
        "#### `corecov.a`", "| callable | base | head |", "|---|---|---|",
        "| `f` | 1: `x` | 0 |", "| total | 1 | 0 |", "",
        "#### `corecov.b`", "| callable | base | head |", "|---|---|---|",
        "| `h` | 0 | 2: `y`, `z` |", "| total | 0 | 2 |", "",
        "**Parameters with a default in src/corecov: base 1, head 2**",
    ]

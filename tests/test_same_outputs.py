import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

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

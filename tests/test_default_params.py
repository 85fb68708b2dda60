import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))

import default_params  # noqa: E402


def test_dump_lists_the_parameters_with_a_default():
    tree = default_params.dump(os.path.join(ROOT, "src"))
    assert tree["picse"]["fit"] == ["config", "initial"]
    assert tree["picse"]["FitConfig"] == ["tol", "max_iter", "h_kind"]
    assert tree["spd_geometry"]["ai_exp"] == []
    assert tree["spd_geometry"]["UnitDetTangentSpace.exp"] == []
    # private names and names imported from other modules are skipped
    assert "_block_step" not in tree["picse"] and "SquareRootKind" not in tree["picse"]


def test_report_tables_and_totals():
    old = {"a": {"f": ["x"], "g": []}}
    new = {"a": {"f": []}, "b": {"h": ["y", "z"]}}
    assert default_params.report(old, new).splitlines() == [
        "#### `corecov.a`", "| callable | base | head |", "|---|---|---|",
        "| `f` | 1: `x` | 0 |", "| total | 1 | 0 |", "",
        "#### `corecov.b`", "| callable | base | head |", "|---|---|---|",
        "| `h` | 0 | 2: `y`, `z` |", "| total | 0 | 2 |", "",
        "**Parameters with a default in src/corecov: base 1, head 2**",
    ]

"""Count the settable options of two source trees: the parameters with a default.

    python3 tools/default_params.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `corecov` package, such as
the `src/` of two checkouts.  Each tree is imported in its own process, and
`inspect.signature` lists the parameters with a default of every public
function, public method and class constructor defined in each of its modules
(a constructor is the class's own `__init__` or `__new__`; inherited ones are
skipped).  Prints one markdown table per module, a row for each callable that
has such a parameter in either tree, with per-module and overall totals.
"""

import argparse
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys


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


def dump(src):
    """{module: {callable: [parameter names with a default]}} of one tree."""
    sys.path.insert(0, src)
    package = importlib.import_module("corecov")
    out = {}
    for info in pkgutil.iter_modules(package.__path__):
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


def _cell(names):
    return f"{len(names)}: {', '.join(f'`{n}`' for n in names)}" if names else "0"


def report(old, new):
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
    lines.append(f"**Parameters with a default in src/corecov: base {totals[0]}, "
                 f"head {totals[1]}**")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    # a fresh interpreter per tree, so the two corecov packages never meet
    child = "import sys, json, default_params; print(json.dumps(default_params.dump(sys.argv[1])))"
    here = os.path.dirname(os.path.abspath(__file__))
    old, new = (json.loads(subprocess.run(
        [sys.executable, "-c", child, os.path.abspath(src)], cwd=here, check=True,
        stdout=subprocess.PIPE, text=True).stdout) for src in (args.old_src, args.new_src))
    print(report(old, new))
    return 0


if __name__ == "__main__":
    sys.exit(main())

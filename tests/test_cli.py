import ast
import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from corecov import cli, kcd, matops, picse, simulate
from corecov.kcd import SquareRootKind

from conftest import rand_spd


def write_data_csv(path, data):
    rows = [",".join(repr(float(x)) for x in matops.vec(y)) for y in data]
    path.write_text("\n".join(rows) + "\n")


def test_simulate_writes_outputs(tmp_path):
    out = tmp_path / "exp"
    rc = cli.main([
        "simulate", "--model", "m1", "--p1", "2", "--p2", "2", "--rank", "3",
        "--lambda", "0.3", "--n", "8", "--reps", "1", "--seed", "3",
        "--sqrt", "sym", "--out", str(out),
    ])
    assert rc == 0
    with open(out / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert {r["estimator"] for r in rows} == {"kmle", "base-sym", "picse-sym"}
    for r in rows:
        assert r["failed"] == "0"
        assert float(r["metric_sigma"]) >= 0.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["model"] == "m1"
    assert len(summary["cells"]) == 3


def test_simulate_determinism(tmp_path):
    args = [
        "simulate", "--model", "m2", "--p1", "2", "--p2", "2", "--rank", "3",
        "--lambda", "0.4", "--n", "8", "--reps", "2", "--seed", "11",
        "--sqrt", "both",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_fit_round_trip(tmp_path):
    dims = matops.Dims(3, 2, 3)
    truth = simulate.gen_truth("m1", dims, 0.4, seed=21)
    data = simulate.gen_data(truth.sigma, 30, seed=22, dims=dims)
    src = tmp_path / "data.csv"
    write_data_csv(src, data)
    out = tmp_path / "fit.json"
    rc = cli.main([
        "fit", "--input", str(src), "--p1", "3", "--p2", "2", "--rank", "3",
        "--sqrt", "sym", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert 0.0 < payload["lambda"] < 1.0
    assert payload["nu"] > 0.0
    sigma_hat = np.array(payload["sigma_hat"])
    assert sigma_hat.shape == (6, 6)
    assert np.linalg.eigvalsh(sigma_hat).min() > 0
    assert payload["trace"]["termination"] in ("converged", "max_iter")
    objs = payload["trace"]["objectives"]
    assert all(b <= a + 1e-9 * abs(a) for a, b in zip(objs, objs[1:]))
    # the vec rows are read back as the same observations
    tau, _, _ = picse.fit(data, dims)
    np.testing.assert_array_equal(np.array(payload["a"]), tau.a)


# The inputs of test_exit_codes: each makes the rows of a CSV file
def drawn(*shape):
    return lambda: np.random.default_rng(25).standard_normal(shape)


def spd():
    return rand_spd(6, np.random.default_rng(34))


def bumped(make, bump):
    def make_bumped():
        rows = make()
        rows[0, 1] += bump
        return rows
    return make_bumped


def scaled(make, factor):
    return lambda: make() * factor


def gram():
    g = np.random.default_rng(0).standard_normal((12, 40))
    return g @ g.T / 40


def gram_without_mle():
    # rank 3 at (2, 2): the flip-flop finds no Kronecker MLE
    f = np.zeros((4, 3))
    f[0, 0] = f[2, 1] = f[3, 2] = 1.0
    return f @ f.T


# argparse keeps the last of a repeated option (--n appends), so a row
# overrides these bases by appending to them
FIT = ["fit", "--p1", "2", "--p2", "2", "--rank", "3"]
KCD = ["kcd", "--p1", "3", "--p2", "2"]
SIM = ["simulate", "--model", "m1", "--p1", "2", "--p2", "2", "--rank", "3",
       "--lambda", "0.3", "--n", "8", "--reps", "1"]
AT_43 = ["--p1", "4", "--p2", "3"]
PAST_DENSE = ["--p1", "10", "--p2", "7", "--rank", "59"]  # p*r = 4130
DATA = drawn(8, 4)
SETTINGS = "need tol > 0 and max_iter >= 1"

# One row per clause of the README's exit-code list, in its order:
# id: (argv, input or None, exit code, stderr substring)
EXIT_CODES = {
    # 0: success; an asymmetry within RESIDUAL_TOL is rounding, not bad input
    "kcd-asymmetry-1e-12": (KCD, bumped(spd, 1e-12), 0, ""),
    # 2: bad input, refused before any computation
    "fit-width": (FIT + ["--p1", "3"], DATA, 2, "expected length-6 vectors"),
    "fit-non-finite": (FIT, bumped(DATA, np.nan), 2, "non-finite"),
    "kcd-non-finite": (KCD, bumped(spd, np.inf), 2, "non-finite"),
    "fit-overflow": (FIT, scaled(DATA, 1e200), 2, "moments of the data overflow"),
    "fit-underflow": (FIT, scaled(DATA, 2.0**-512), 2, "moments of the data underflow"),
    # an empty or unreadable CSV: test_empty_input_exit_code, test_unreadable_input_exit_code
    "kcd-not-square": (KCD, drawn(6, 5), 2, "expected 6x6 input, got (6, 5)"),
    "kcd-asymmetric": (KCD, bumped(spd, 0.1), 2, "error: matrix is not symmetric"),
    "kcd-underflow": (KCD + AT_43, scaled(gram, 2.0**-1023), 2, "matrix entries underflow"),
    "simulate-rank-regime": (SIM + ["--rank", "2"], None, 2, "rank r=2 outside"),
    "fit-full-rank": (FIT + ["--rank", "4"], DATA, 2, "r < p"),
    "simulate-full-rank": (SIM + ["--rank", "4"], None, 2, "r < p"),
    "fit-capacity": (FIT + PAST_DENSE, drawn(3, 70), 2, "p*r <= 4096"),
    "simulate-capacity": (SIM + PAST_DENSE, None, 2, "p*r <= 4096"),
    # NaN fails every comparison, and an inf tol stops a fit after one sweep
    "simulate-tol-0": (SIM + ["--tol", "0"], None, 2, SETTINGS),
    "simulate-tol-nan": (SIM + ["--tol", "nan"], None, 2, SETTINGS),
    "simulate-tol-inf": (SIM + ["--tol", "inf"], None, 2, SETTINGS),
    "fit-tol-nan": (FIT + ["--tol", "nan"], DATA, 2, SETTINGS),
    "fit-tol-inf": (FIT + ["--tol", "inf"], DATA, 2, SETTINGS),
    "simulate-max-iter-0": (SIM + ["--max-iter", "0"], None, 2, SETTINGS),
    "simulate-negative-seed": (SIM + ["--seed", "-1"], None, 2, "seed must be a non-negative"),
    "simulate-repeated-n": (SIM + ["--n", "8"], None, 2, "n_list must be non-empty"),
    # an unusable --out: test_unusable_out_exit_code_before_computation
    # 3: a numerical failure on valid input
    "kcd-no-mle": (KCD + ["--p1", "2"], gram_without_mle, 3, "numerical failure:"),
    # two observations at (4, 3): the sample core has rank below r = 3
    "fit-low-rank-core": (FIT + AT_43, drawn(2, 12), 3, "numerical failure:"),
}


@pytest.mark.parametrize("argv, make_input, code, message", EXIT_CODES.values(),
                         ids=list(EXIT_CODES))
def test_exit_codes(tmp_path, monkeypatch, capsys, argv, make_input, code, message):
    if make_input is not None:
        src = tmp_path / "in.csv"
        np.savetxt(src, make_input(), delimiter=",", fmt="%.17g")
        argv = argv + ["--input", str(src)]
    if code == 2:
        def computed(*args):
            raise AssertionError("computation started before the input was refused")

        for module, name in [(simulate, "gen_truth"), (picse, "init"), (kcd, "_flip_flop")]:
            monkeypatch.setattr(module, name, computed)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert (message in err) if code else err == ""
    assert out.exists() == (code == 0)


def test_unusable_out_exit_code_before_computation(tmp_path, monkeypatch, capsys):
    def ran(*args):
        raise AssertionError("computation started before --out was checked")

    monkeypatch.setattr(picse, "fit", ran)
    monkeypatch.setattr(simulate, "run_experiment", ran)
    monkeypatch.setattr(cli, "run_kcd", ran)
    data, sigma = tmp_path / "data.csv", tmp_path / "sigma.csv"
    write_data_csv(data, np.random.default_rng(27).standard_normal((8, 2, 2)))
    np.savetxt(sigma, rand_spd(4, np.random.default_rng(28)), delimiter=",")
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    fit = ["fit", "--input", str(data), "--p1", "2", "--p2", "2", "--rank", "3"]
    dec = ["kcd", "--input", str(sigma), "--p1", "2", "--p2", "2"]
    sim = [
        "simulate", "--model", "m1", "--p1", "2", "--p2", "2", "--rank", "3",
        "--lambda", "0.3", "--n", "8", "--reps", "1",
    ]
    missing = str(tmp_path / "missing" / "o.json")
    for argv, message in [
        (fit + ["--out", missing], "cannot write the output file"),
        (fit + ["--out", str(tmp_path)], "cannot write the output file"),
        (dec + ["--out", missing], "cannot write the output file"),
        (sim + ["--out", str(taken)], "File exists"),
        (sim + ["--out", str(taken / "x")], "Not a directory"),
    ]:
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
    assert taken.read_text() == "keep\n"
    assert not (tmp_path / "missing").exists()


def test_kcd_command(tmp_path):
    rng = np.random.default_rng(31)
    sigma = rand_spd(6, rng)
    src = tmp_path / "sigma.csv"
    np.savetxt(src, sigma, delimiter=",")
    out = tmp_path / "kcd.json"
    rc = cli.main([
        "kcd", "--input", str(src), "--p1", "3", "--p2", "2", "--sqrt", "chol",
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    k1 = np.array(payload["k1"])
    k2 = np.array(payload["k2"])
    c = np.array(payload["c"])
    from corecov.kcd import SeparableCovariance

    h = SeparableCovariance(k1=k1, k2=k2).h_matrix(SquareRootKind.CHOLESKY)
    assert np.abs(h @ c @ h.T - sigma).max() < 1e-8


WITHOUT_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} refused")

sys.meta_path.insert(0, RefuseScipy())
from corecov import cli

sigma, data, out, sim = sys.argv[1:]
codes = [
    cli.main(["kcd", "--input", sigma, "--p1", "3", "--p2", "2", "--out", out]),
    cli.main(["fit", "--input", data, "--p1", "3", "--p2", "2", "--rank", "3",
              "--out", out]),
    cli.main(["simulate", "--model", "m2", "--p1", "2", "--p2", "2", "--rank", "3",
              "--lambda", "0.2", "--n", "8", "--reps", "1", "--sqrt", "both",
              "--out", sim]),
]
try:
    import scipy
except ImportError:
    refused = True
else:
    refused = False
loaded = [name for name in sys.modules if name.partition(".")[0] == "scipy"]
print(json.dumps({"codes": codes, "refused": refused, "loaded": loaded}))
"""


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: every subcommand runs in a process
    # that refuses to import scipy, and leaves no scipy module loaded
    rng = np.random.default_rng(36)
    sigma, data = tmp_path / "sigma.csv", tmp_path / "data.csv"
    np.savetxt(sigma, rand_spd(6, rng), delimiter=",", fmt="%.17g")
    write_data_csv(data, rng.standard_normal((12, 3, 2)))
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(sigma), str(data),
         str(tmp_path / "out.json"), str(tmp_path / "sim")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0], "refused": True, "loaded": []}


def test_no_module_imports_scipy():
    # every path of the package runs on numpy alone, not only the calls the
    # test above makes: no module names scipy in an import statement, or in
    # the argument of an import_module or __import__ call
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        if isinstance(node, ast.Call) and node.args and (
                getattr(node.func, "attr", getattr(node.func, "id", None))
                in ("import_module", "__import__")):
            return [c.value for c in ast.walk(node.args[0])
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)]
        return []

    package = pathlib.Path(cli.__file__).parent
    found = [f"{path.relative_to(package)}:{node.lineno} {name}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in imported(node) if name.partition(".")[0] == "scipy"]
    assert found == []


@pytest.mark.parametrize("text", ["", "\n  \n# only a comment\n"])
@pytest.mark.parametrize("command", [
    ["fit", "--p1", "3", "--p2", "2", "--rank", "3"],
    ["kcd", "--p1", "3", "--p2", "2"],
])
def test_empty_input_exit_code(tmp_path, capsys, command, text):
    # loadtxt would warn and hand back a (0, 1) array; the file is rejected first
    src = tmp_path / "empty.csv"
    src.write_text(text)
    rc = cli.main(command + ["--input", str(src), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert f"error: {src} contains no data" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_argparse_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("content", [
    b"1.0,2.0,3.0,4.0\n5.0,abc,7.0,8.0\n",  # a non-numeric cell
    b"1.0,2.0,3.0,4.0\n5.0,6.0,7.0\n",  # ragged rows
    b"1.0,2.0,3.0,4.0\n5.0,\xff\xfe,7.0,8.0\n",  # bytes no text encoding decodes
    None,  # no such file
], ids=["non-numeric", "ragged", "undecodable", "missing"])
@pytest.mark.parametrize("command", [
    ["fit", "--p1", "2", "--p2", "2", "--rank", "3"],
    ["kcd", "--p1", "2", "--p2", "2"],
])
def test_unreadable_input_exit_code(tmp_path, capsys, command, content):
    src = tmp_path / "in.csv"
    if content is not None:
        src.write_bytes(content)
    rc = cli.main(command + ["--input", str(src), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o.json").exists()


def test_unexpected_value_error_propagates(tmp_path, monkeypatch):
    # only ConfigError and OSError mean bad input; any other ValueError is a bug
    def buggy(*args):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(picse, "fit", buggy)
    src = tmp_path / "data.csv"
    write_data_csv(src, np.random.default_rng(29).standard_normal((8, 2, 2)))
    with pytest.raises(ValueError, match="a bug, not bad input"):
        cli.main([
            "fit", "--input", str(src), "--p1", "2", "--p2", "2", "--rank", "3",
            "--out", str(tmp_path / "o.json"),
        ])

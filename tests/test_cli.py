import csv
import json

import numpy as np
import pytest

from corecov import cli, matops, picse, simulate
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


def test_fit_rejects_bad_width(tmp_path):
    src = tmp_path / "data.csv"
    src.write_text("1.0,2.0\n3.0,4.0\n")
    rc = cli.main([
        "fit", "--input", str(src), "--p1", "3", "--p2", "2", "--rank", "3",
        "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 2


def test_fit_rejects_nonfinite_data(tmp_path, capsys):
    data = np.random.default_rng(23).standard_normal((12, 3, 2))
    data[4, 1, 1] = np.nan
    src = tmp_path / "data.csv"
    write_data_csv(src, data)
    rc = cli.main([
        "fit", "--input", str(src), "--p1", "3", "--p2", "2", "--rank", "3",
        "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


def test_fit_rank_deficient_sample_core_exit_code(tmp_path):
    # two observations at (4, 3): the sample core has rank below r = 3
    src = tmp_path / "data.csv"
    write_data_csv(src, np.random.default_rng(24).standard_normal((2, 4, 3)))
    rc = cli.main([
        "fit", "--input", str(src), "--p1", "4", "--p2", "3", "--rank", "3",
        "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 3


def _forbid_estimators(monkeypatch):
    # p*r = 70*59 = 4130 exceeds the dense-J limit at (10, 7, 59), so no
    # estimator work may start
    def ran(*args):
        raise AssertionError("estimator work started past the dense-size check")

    monkeypatch.setattr(simulate, "gen_truth", ran)
    monkeypatch.setattr(picse, "init", ran)


def test_fit_capacity_exit_code_before_init(tmp_path, monkeypatch, capsys):
    _forbid_estimators(monkeypatch)
    src = tmp_path / "data.csv"
    write_data_csv(src, np.random.default_rng(25).standard_normal((3, 10, 7)))
    rc = cli.main([
        "fit", "--input", str(src), "--p1", "10", "--p2", "7", "--rank", "59",
        "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 2
    assert "p*r <= 4096" in capsys.readouterr().err


def test_simulate_capacity_exit_code_before_truth(tmp_path, monkeypatch):
    _forbid_estimators(monkeypatch)
    rc = cli.main([
        "simulate", "--model", "m1", "--p1", "10", "--p2", "7", "--rank", "59",
        "--lambda", "0.3", "--n", "140", "--reps", "1", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert not (tmp_path / "x").exists()


def test_simulate_fit_settings_exit_code_before_truth(tmp_path, monkeypatch, capsys):
    _forbid_estimators(monkeypatch)
    base = [
        "simulate", "--model", "m1", "--p1", "2", "--p2", "2", "--rank", "3",
        "--lambda", "0.3", "--n", "8", "--reps", "1", "--out", str(tmp_path / "x"),
    ]
    for bad in (["--tol", "0"], ["--tol", "nan"], ["--tol", "inf"], ["--max-iter", "0"]):
        assert cli.main(base + bad) == 2
        assert "need tol > 0 and max_iter >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fit_nan_tol_exit_code_before_init(tmp_path, monkeypatch, capsys):
    # NaN fails every comparison, so a `tol <= 0` test let it through; every
    # relative change is below inf, so that tol stopped a fit after one sweep
    _forbid_estimators(monkeypatch)
    src = tmp_path / "data.csv"
    write_data_csv(src, np.random.default_rng(26).standard_normal((8, 2, 2)))
    for tol in ("nan", "inf"):
        rc = cli.main([
            "fit", "--input", str(src), "--p1", "2", "--p2", "2", "--rank", "3",
            "--tol", tol, "--out", str(tmp_path / "o.json"),
        ])
        assert rc == 2
        assert "need tol > 0 and max_iter >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


def test_negative_seed_exit_code_before_out(tmp_path, monkeypatch, capsys):
    # numpy used to reject the seed only after --out had been created
    _forbid_estimators(monkeypatch)
    rc = cli.main([
        "simulate", "--model", "m1", "--p1", "2", "--p2", "2", "--rank", "3",
        "--lambda", "0.3", "--n", "8", "--reps", "1", "--seed", "-1",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_repeated_n_exit_code_before_truth(tmp_path, monkeypatch, capsys):
    # a repeated --n used to write every row twice
    _forbid_estimators(monkeypatch)
    rc = cli.main([
        "simulate", "--model", "m1", "--p1", "2", "--p2", "2", "--rank", "3",
        "--lambda", "0.3", "--n", "12", "--n", "12", "--reps", "1",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "n_list must be non-empty without repeats" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def test_kcd_numerical_failure_exit_code(tmp_path):
    f = np.zeros((4, 3))
    f[0, 0] = f[2, 1] = f[3, 2] = 1.0
    src = tmp_path / "gram.csv"
    np.savetxt(src, f @ f.T, delimiter=",")
    rc = cli.main([
        "kcd", "--input", str(src), "--p1", "2", "--p2", "2",
        "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 3


def test_kcd_rejects_nonfinite_matrix(tmp_path, capsys):
    sigma = rand_spd(6, np.random.default_rng(32))
    sigma[1, 2] = sigma[2, 1] = np.inf
    src = tmp_path / "sigma.csv"
    np.savetxt(src, sigma, delimiter=",")
    rc = cli.main([
        "kcd", "--input", str(src), "--p1", "3", "--p2", "2",
        "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


def test_kcd_rejects_non_square_matrix(tmp_path, capsys):
    src = tmp_path / "sigma.csv"
    np.savetxt(src, np.random.default_rng(33).standard_normal((6, 5)), delimiter=",")
    rc = cli.main([
        "kcd", "--input", str(src), "--p1", "3", "--p2", "2",
        "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 2
    assert "expected 6x6 input, got (6, 5)" in capsys.readouterr().err


def test_kcd_rejects_asymmetric_matrix(tmp_path, capsys):
    # kcd would decompose sym(M) without a word; asymmetry past the relative
    # RESIDUAL_TOL is bad input, a rounding-level one is not
    sigma = rand_spd(6, np.random.default_rng(34))
    out = tmp_path / "o.json"
    for bump, code in ((0.1, 2), (1e-12, 0)):
        bumped = sigma.copy()
        bumped[0, 1] += bump
        src = tmp_path / "sigma.csv"
        np.savetxt(src, bumped, delimiter=",", fmt="%.17g")
        rc = cli.main([
            "kcd", "--input", str(src), "--p1", "3", "--p2", "2", "--out", str(out),
        ])
        assert rc == code
        assert out.exists() == (code == 0)
    assert "error: matrix is not symmetric" in capsys.readouterr().err


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


def test_invalid_config_exit_code(tmp_path):
    rc = cli.main([
        "simulate", "--model", "m1", "--p1", "2", "--p2", "2", "--rank", "2",
        "--lambda", "0.3", "--n", "8", "--reps", "1", "--seed", "3",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 2  # rank 2 violates the rank regime at (2, 2)


def test_full_rank_exit_code_before_any_computation(tmp_path, monkeypatch, capsys):
    # r = p leaves no isotropic block, so lambda is not identified
    def ran(*args):
        raise AssertionError("estimator work started past the rank check")

    monkeypatch.setattr(simulate, "gen_truth", ran)
    monkeypatch.setattr(picse, "init", ran)
    src = tmp_path / "data.csv"
    write_data_csv(src, np.random.default_rng(26).standard_normal((8, 2, 2)))
    rc = cli.main([
        "fit", "--input", str(src), "--p1", "2", "--p2", "2", "--rank", "4",
        "--out", str(tmp_path / "o.json"),
    ])
    assert rc == 2
    assert "r < p" in capsys.readouterr().err
    rc = cli.main([
        "simulate", "--model", "m1", "--p1", "2", "--p2", "2", "--rank", "4",
        "--lambda", "0.3", "--n", "8", "--reps", "1", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "r < p" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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

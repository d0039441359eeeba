import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otrepair
from otrepair import cli
from otrepair.cli import main
from otrepair.errors import CsvParseError, OtRepairError

HAND_CSV = "group,x\ng1,0\ng1,2\ng2,1\ng2,3\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- approx ------------------------------------------------------------------

def test_approx_single_group_zero_objective(tmp_path):
    inp = write(tmp_path / "d.csv", "group,x\ng1,0\ng1,2\n")
    rep = str(tmp_path / "r.json")
    assert main(["approx", "--input", inp, "--report", rep]) == 0
    r = load(rep)
    assert r["schema"] == 1
    assert abs(r["objective"]) <= 1e-12
    assert not r["checks_failed"]
    # single atom: y's law is x's law
    assert r["nu0"]["support"] == [[0.0], [2.0]]
    assert r["nu0"]["weights"] == [0.5, 0.5]


def test_approx_measurable_case_samples(tmp_path):
    inp = write(tmp_path / "d.csv", "group,x\ng1,0\ng2,2\n")
    rep = str(tmp_path / "r.json")
    smp = str(tmp_path / "s.csv")
    assert main(["approx", "--input", inp, "--report", rep,
                 "--samples", smp, "--seed", "5"]) == 0
    with open(smp) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "group,x,weight,u,y1"
    ys = {line.split(",")[-1] for line in lines[1:]}
    assert ys == {"1"}


def test_approx_hand_instance_objective(tmp_path):
    inp = write(tmp_path / "d.csv", HAND_CSV)
    rep = str(tmp_path / "r.json")
    assert main(["approx", "--input", inp, "--report", rep]) == 0
    r = load(rep)
    assert abs(r["objective"] - 0.25) <= 1e-12
    assert abs(r["gap"]) <= 1e-8
    assert r["mean_x"] == r["mean_y"] == [1.5]


def test_approx_weight_and_u_columns(tmp_path):
    inp = write(
        tmp_path / "d.csv",
        "g,v,w,uu\na,0,1,0.2\na,2,1,0.9\nb,1,2,0.4\n",
    )
    rep = str(tmp_path / "r.json")
    smp = str(tmp_path / "s.csv")
    assert main(["approx", "--input", inp, "--group-col", "g",
                 "--value-cols", "v", "--weight-col", "w", "--u-col", "uu",
                 "--report", rep, "--samples", smp]) == 0
    r = load(rep)
    assert r["n_rows"] == 3
    assert abs(sum(a["p"] for a in r["atoms"]) - 1.0) <= 1e-12


def test_approx_determinism_byte_identical(tmp_path):
    inp = write(tmp_path / "d.csv", HAND_CSV)
    paths = []
    for tag in ("1", "2"):
        rep = tmp_path / f"r{tag}.json"
        smp = tmp_path / f"s{tag}.csv"
        assert main(["approx", "--input", inp, "--report", str(rep),
                     "--samples", str(smp), "--seed", "123"]) == 0
        paths.append((rep.read_bytes(), smp.read_bytes()))
    assert paths[0] == paths[1]


def test_approx_round_trip_same_y(tmp_path):
    inp = write(tmp_path / "d.csv", HAND_CSV)
    rep1 = str(tmp_path / "r1.json")
    smp1 = tmp_path / "s1.csv"
    assert main(["approx", "--input", inp, "--report", rep1,
                 "--samples", str(smp1), "--seed", "7"]) == 0
    # re-ingest the samples (x, weight, u columns) and transform again
    rep2 = str(tmp_path / "r2.json")
    smp2 = tmp_path / "s2.csv"
    assert main(["approx", "--input", str(smp1), "--value-cols", "x",
                 "--weight-col", "weight", "--u-col", "u",
                 "--report", rep2, "--samples", str(smp2)]) == 0
    y1 = [line.split(",")[-1] for line in smp1.read_text().strip().split("\n")[1:]]
    y2 = [line.split(",")[-1] for line in smp2.read_text().strip().split("\n")[1:]]
    assert y1 == y2


def test_approx_exit_codes(tmp_path):
    inp = write(tmp_path / "d.csv", HAND_CSV)
    rep = str(tmp_path / "r.json")
    assert main(["approx", "--input", str(tmp_path / "nope.csv"),
                 "--report", rep]) == 2
    assert main(["approx", "--input", inp, "--group-col", "zz",
                 "--report", rep]) == 3
    bad = write(tmp_path / "bad.csv", "group,x\ng1,abc\n")
    assert main(["approx", "--input", bad, "--report", rep]) == 3
    assert main(["approx", "--input", inp, "--report", rep,
                 "--samples", str(tmp_path / "s.csv")]) == 5
    two_d = write(tmp_path / "d2.csv", "group,x1,x2\ng1,0,0\ng2,1,1\n")
    assert main(["approx", "--input", two_d, "--value-cols", "x1,x2",
                 "--method", "quantile1d", "--report", rep]) == 5
    assert main(["approx", "--input", inp, "--method", "entropic",
                 "--epsilon", "0", "--report", rep]) == 5


def test_approx_2d_exact(tmp_path):
    inp = write(
        tmp_path / "d.csv",
        "group,x1,x2\na,0,0\na,1,0\nb,0,1\nb,1,1\nb,2,1\n",
    )
    rep = str(tmp_path / "r.json")
    assert main(["approx", "--input", inp, "--value-cols", "x1,x2",
                 "--report", rep]) == 0
    r = load(rep)
    assert r["dimension"] == 2
    assert not r["checks_failed"]
    assert abs(r["gap"]) <= 1e-8 * max(1.0, r["objective"])


# --- binary-case ----------------------------------------------------------------

BINARY_CSV = "atom,p,f,g\na,0.5,4,2\nb,0.5,0,2\n"


def test_binary_case_half(tmp_path):
    inp = write(tmp_path / "b.csv", BINARY_CSV)
    rep = str(tmp_path / "r.json")
    assert main(["binary-case", "--input", inp, "--pA", "0.5",
                 "--verify", "--report", rep]) == 0
    r = load(rep)
    assert r["regime"] == "half"
    assert (r["alpha"], r["beta"], r["distance_sq"]) == (3.0, 1.0, 1.0)
    assert r["set_b"] == ["a"]
    assert r["brute_force_agrees"] is True


def test_binary_case_nonhalf(tmp_path):
    inp = write(tmp_path / "b.csv", BINARY_CSV)
    rep = str(tmp_path / "r.json")
    assert main(["binary-case", "--input", inp, "--pA", "0.25",
                 "--verify", "--report", rep]) == 0
    r = load(rep)
    assert r["regime"] == "nonhalf"
    assert (r["alpha"], r["beta"], r["distance_sq"]) == (2.0, 2.0, 1.0)
    assert r["set_b"] is None
    assert r["brute_force_agrees"] is True


def test_binary_case_f_equals_g(tmp_path):
    inp = write(tmp_path / "b.csv", "atom,p,f,g\na,0.5,3,3\nb,0.5,1,1\n")
    rep = str(tmp_path / "r.json")
    assert main(["binary-case", "--input", inp, "--pA", "0.5",
                 "--report", rep]) == 0
    r = load(rep)
    assert sorted(r["set_b"]) == ["a", "b"]
    assert abs(r["distance_sq"] - 1.0) <= 1e-12  # Var(f) for f = (3, 1), p = (.5, .5)


def test_binary_case_missing_column(tmp_path):
    inp = write(tmp_path / "b.csv", "atom,p,f\na,1.0,1\n")
    assert main(["binary-case", "--input", inp, "--pA", "0.5",
                 "--report", str(tmp_path / "r.json")]) == 3


# --- ot / barycenter ----------------------------------------------------------------

def test_ot_identical_measures(tmp_path):
    inp = write(tmp_path / "m.csv",
                "measure,weight,x\nm1,1,0\nm1,1,2\nm2,1,0\nm2,1,2\n")
    rep = str(tmp_path / "r.json")
    assert main(["ot", "--input", inp, "--report", rep]) == 0
    assert abs(load(rep)["cost"]) <= 1e-10


def test_ot_two_diracs(tmp_path):
    inp = write(tmp_path / "m.csv", "measure,weight,x\nm1,1,0\nm2,1,1\n")
    rep = str(tmp_path / "r.json")
    assert main(["ot", "--input", inp, "--report", rep]) == 0
    r = load(rep)
    assert r["cost"] == 1.0
    assert r["coupling"]["weights"] == [[1.0]]


def test_ot_requires_two_measures(tmp_path):
    inp = write(tmp_path / "m.csv", "measure,weight,x\nm1,1,0\n")
    assert main(["ot", "--input", inp,
                 "--report", str(tmp_path / "r.json")]) == 3


def test_barycenter_two_diracs_on_grid(tmp_path):
    inp = write(tmp_path / "m.csv", "measure,weight,x\nm1,1,0\nm2,1,2\n")
    grid = write(tmp_path / "g.csv", "x\n0\n1\n2\n")
    rep = str(tmp_path / "r.json")
    assert main(["barycenter", "--input", inp, "--method", "exact",
                 "--support", grid, "--report", rep]) == 0
    r = load(rep)
    assert abs(r["objective"] - 1.0) <= 1e-10
    assert r["nu0"]["weights"][1] == 1.0


def test_barycenter_quantile_auto(tmp_path):
    inp = write(tmp_path / "m.csv",
                "measure,weight,x\nm1,1,0\nm1,1,2\nm2,1,1\nm2,1,3\n")
    rep = str(tmp_path / "r.json")
    assert main(["barycenter", "--input", inp, "--report", rep]) == 0
    r = load(rep)
    assert r["method"] == "quantile_exact"
    assert abs(r["objective"] - 0.25) <= 1e-12


# --- diagnose -------------------------------------------------------------------------

def test_diagnose_round_trip(tmp_path):
    inp = write(tmp_path / "d.csv", HAND_CSV)
    rep = str(tmp_path / "r.json")
    smp = str(tmp_path / "s.csv")
    assert main(["approx", "--input", inp, "--report", rep,
                 "--samples", smp, "--seed", "11"]) == 0
    out = str(tmp_path / "diag.json")
    assert main(["diagnose", "--samples", smp, "--report", rep,
                 "--out", out]) == 0
    r = load(out)
    assert set(r["independence_tv"]) == {"g1", "g2"}
    assert r["reference_objective"] == 0.25


def test_diagnose_at_u_zero_and_one(tmp_path):
    # README example with u = 0, 0, 1, 1: rows a,2 and b,1 draw from rows
    # whose coupling has zero mass on the first and on the last nu0 point
    inp = write(tmp_path / "d.csv", "group,x,u\na,0,0\na,2,0\nb,1,1\nb,3,1\n")
    rep, samples, out = (str(tmp_path / f) for f in ("r.json", "s.csv", "d.json"))
    assert main(["approx", "--input", inp, "--u-col", "u", "--report", rep,
                 "--samples", samples]) == 0
    assert main(["diagnose", "--samples", samples, "--report", rep,
                 "--out", out]) == 0
    diag = load(out)
    assert diag["empirical_distance"] == 0.25
    assert diag["independence_tv"] == {"a": 0.0, "b": 0.0}


def test_diagnose_rejects_bad_report(tmp_path):
    rep = write(tmp_path / "r.json", "{}")
    smp = write(tmp_path / "s.csv", "group,x,weight,u,y1\ng1,0,1,0.5,1\n")
    assert main(["diagnose", "--samples", smp, "--report", rep,
                 "--out", str(tmp_path / "o.json")]) == 3


# --- console entry point -----------------------------------------------------------------

def test_module_entry_point(tmp_path):
    inp = write(tmp_path / "d.csv", HAND_CSV)
    rep = tmp_path / "r.json"
    # the child imports the same package as this test, installed or not
    package_root = str(Path(otrepair.__file__).resolve().parents[1])
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "otrepair", "approx", "--input", inp,
         "--report", str(rep)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert rep.exists()


def test_help_documents_exit_codes():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# --- input hardening and exit codes -------------------------------------------------

@pytest.mark.parametrize("flags, text, bad", [
    ([], "group,x\na,0.0\na,nan\nb,1.0\nb,2.0\n", "nan"),
    ([], "group,x\na,0.0\na,-inf\nb,1.0\n", "-inf"),
    (["--value-cols", "x1,x2"], "group,x1,x2\na,0,nan\nb,1,1\n", "nan"),
    (["--weight-col", "w"], "group,x,w\na,0,nan\nb,1,1\n", "nan"),
    (["--u-col", "u"], "group,x,u\na,0,0.5\nb,1,inf\n", "inf"),
], ids=["1d-nan-x", "1d-inf-x", "2d-nan-x", "nan-weight", "inf-u"])
def test_approx_rejects_non_finite_input(tmp_path, capsys, flags, text, bad):
    inp = write(tmp_path / "d.csv", text)
    code = main(["approx", "--input", inp, "--report", str(tmp_path / "r.json"), *flags])
    assert code == 3
    assert f"non-finite value {bad}\n" in capsys.readouterr().err


@pytest.mark.parametrize("flags, text", [
    ([], "group,x\na,0\na,1e200\nb,1\nb,2\n"),
    (["--value-cols", "x1,x2"], "group,x1,x2\na,0,0\na,1e200,0\nb,1,0\nb,2,0\n"),
], ids=["1d", "2d"])
def test_approx_rejects_cost_overflow(tmp_path, capsys, flags, text):
    # every value is finite, but 1e200 squared is not
    inp = write(tmp_path / "d.csv", text)
    rep = tmp_path / "r.json"
    assert main(["approx", "--input", inp, "--report", str(rep), *flags]) == 3
    assert "squared distance between support points overflows" in capsys.readouterr().err
    assert not rep.exists()


def test_binary_case_rejects_non_finite_input(tmp_path, capsys):
    inp = write(tmp_path / "b.csv", "atom,p,f,g\na,0.5,nan,2\nb,0.5,0,2\n")
    rep = tmp_path / "r.json"
    assert main(["binary-case", "--input", inp, "--pA", "0.5", "--report", str(rep)]) == 3
    assert "f contains the non-finite value nan\n" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("subcommand, text", [
    ("approx", "group,x\na,0\nb\n"),
    ("ot", "measure,weight,x\nm1,1,0\nm2,1\n"),
], ids=["approx", "ot"])
def test_short_csv_row_is_a_parse_error(tmp_path, capsys, subcommand, text):
    inp = write(tmp_path / "d.csv", text)
    assert main([subcommand, "--input", inp, "--report", str(tmp_path / "r.json")]) == 3
    assert "row 3 has no cell for column 'x'" in capsys.readouterr().err
    with pytest.raises(CsvParseError) as exc:
        cli._read_csv(inp, numeric=["x"])
    assert (exc.value.row, exc.value.column) == (3, "x")


def test_invalid_option_values_exit_5(tmp_path):
    inp = write(tmp_path / "d.csv", HAND_CSV)
    rep = str(tmp_path / "r.json")
    for flags in (["--method", "free", "--k", "0"], ["--resolution", "0"]):
        assert main(["approx", "--input", inp, "--report", rep, *flags]) == 5
    assert main(["ot", "--input", inp, "--measure-col", "group", "--weight-col", "x",
                 "--method", "entropic", "--epsilon", "-1", "--report", rep]) == 5


def _library_errors(cls=OtRepairError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _library_errors(sub)


@pytest.mark.parametrize("error", sorted(set(_library_errors()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_library_error_exits_with_a_documented_code(error, tmp_path,
                                                          monkeypatch, capsys):
    assert error.exit_code in (3, 4, 5)
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"\n  {error.exit_code}  " in capsys.readouterr().out

    def failing(args):
        raise error("injected")

    monkeypatch.setattr(cli, "cmd_ot", failing)
    assert main(["ot", "--input", "unused.csv", "--report", str(tmp_path / "r.json")]) \
        == error.exit_code
    assert capsys.readouterr().err.startswith("error: ")

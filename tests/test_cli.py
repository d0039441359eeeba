import csv
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otrepair
from otrepair import approx, cli
from otrepair.barycenter import _total
from otrepair.cli import main
from otrepair.errors import CsvParseError, OtRepairError
from otrepair.measure import ConditionalAtom, Dataset

HAND_CSV = "group,x\ng1,0\ng1,2\ng2,1\ng2,3\n"
WEIGHTED_CSV = "group,x,w\ng1,0,1\ng1,2,1\ng2,1,1\ng2,3,1\n"


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


def test_samples_quote_labels_as_csv_writer_does(tmp_path):
    # labels with a comma, a quote, a line break or nothing are written as
    # csv.writer writes each row, the float cells as 17 significant digits
    labels = ["a,b", 'say "hi"', "two\nlines", "", "plain"]
    buf = io.StringIO()
    rows = csv.writer(buf, lineterminator="\n")
    rows.writerow(["group", "x"])
    for a, label in enumerate(labels):
        rows.writerows([[label, a], [label, a + 0.5]])
    inp = write(tmp_path / "d.csv", buf.getvalue())
    smp = tmp_path / "s.csv"
    assert main(["approx", "--input", inp, "--report", str(tmp_path / "r.json"),
                 "--samples", str(smp), "--seed", "3"]) == 0
    text = smp.read_text(encoding="utf-8")
    with open(smp, encoding="utf-8", newline="") as fh:
        parsed = list(csv.reader(fh))
    assert [row[0] for row in parsed[1:]] == [label for label in labels for _ in range(2)]
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(parsed)
    assert text == again.getvalue()


def test_samples_keep_signed_zero_u(tmp_path):
    # u = -0.0 is a valid draw and is printed "-0", as one "%.17g" per row
    # prints it, in every block of rows; equal floats of other bits are
    # never merged
    rows = 2500
    u = [0.5 if i % 7 == 0 else -0.0 if i % 3 == 1 else 0.0 for i in range(rows)]
    text = "group,x,u\n" + "".join(
        f"g{i % 5},{i % 11 - 5.0!r},{v!r}\n" for i, v in enumerate(u))
    inp = write(tmp_path / "d.csv", text)
    smp = tmp_path / "s.csv"
    assert main(["approx", "--input", inp, "--u-col", "u", "--report",
                 str(tmp_path / "r.json"), "--samples", str(smp)]) == 0
    data = cli._load_dataset(inp, "group", ["x"], None, "u")
    out = otrepair.transform(otrepair.build(data), data)
    numbers = np.column_stack([out.x, out.weights, out.u, out.y])
    row = "%s" + ",%.17g" * numbers.shape[1] + "\n"
    expected = "group,x,weight,u,y1\n" + "".join(
        row % (g, *v) for g, v in zip(out.groups, numbers.tolist()))
    written = smp.read_text(encoding="utf-8")
    assert written == expected
    assert [line.split(",")[3] for line in written.splitlines()[1:]] == \
        ["-0" if np.signbit(v) else f"{v:g}" for v in u]


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


def test_binary_case_rejects_duplicate_atom_labels(tmp_path, capsys):
    # with two atoms labelled a, set_b = ["a"] could not say which one is in B
    inp = write(tmp_path / "b.csv", "atom,p,f,g\na,0.5,1,0\na,0.5,0,1\n")
    rep = tmp_path / "r.json"
    assert main(["binary-case", "--input", inp, "--pA", "0.5", "--report", str(rep)]) == 3
    assert capsys.readouterr().err == "error: atom labels must be distinct\n"
    assert not rep.exists()


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


def test_ot_entropic_out_of_budget_is_not_converged(tmp_path):
    # three sweeps end in the first of the annealing stages, short of the
    # target epsilon
    rng = np.random.default_rng(0)
    points = [("m1", x) for x in rng.normal(size=(6, 2)).tolist()]
    points += [("m2", y) for y in (rng.normal(size=(5, 2)) + 1.0).tolist()]
    inp = write(tmp_path / "m.csv", "measure,weight,x1,x2\n" + "".join(
        f"{m},1,{x1!r},{x2!r}\n" for m, (x1, x2) in points))
    rep = str(tmp_path / "r.json")
    assert main(["ot", "--input", inp, "--value-cols", "x1,x2", "--method", "entropic",
                 "--epsilon", "1e-3", "--tol", "1e-3", "--max-iter", "3",
                 "--report", rep]) == 0
    r = load(rep)
    assert r["iterations"] == 3 and r["converged"] is False


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


THREE_2D_CSV = ("measure,weight,x1,x2\n"
                "m1,1,0,0\nm1,2,1,0.5\nm1,1,0.25,2\n"
                "m2,3,2,1\nm2,1,-1,0.75\n"
                "m3,1,0.5,-1\nm3,1,1.5,1.5\nm3,2,-0.5,0.5\n")


def test_barycenter_exact_reports_the_joint_lp_couplings(tmp_path, monkeypatch):
    # the joint LP's couplings are optimal already: per_measure_w2 is
    # their costs and no transport LP is solved again
    inp = write(tmp_path / "m.csv", THREE_2D_CSV)
    rep = str(tmp_path / "r.json")
    calls = []
    real = otrepair.ot.solve_exact

    def counted(mu, nu):
        calls.append(mu.n)
        return real(mu, nu)

    monkeypatch.setattr(otrepair.ot, "solve_exact", counted)
    assert main(["barycenter", "--input", inp, "--value-cols", "x1,x2",
                 "--method", "exact", "--report", rep]) == 0
    assert calls == []
    monkeypatch.undo()
    r = load(rep)
    t = cli._read_csv(inp, ["measure"], ["weight", "x1", "x2"])
    fam = otrepair.estimate_conditionals(
        otrepair.Dataset(tuple(t["measure"]), cli._points(t, ["x1", "x2"]), t["weight"]))
    costs = otrepair.solve_barycenter(fam, "exact").couplings[-1].tolist()
    assert r["per_measure_w2"] == dict(zip(fam.labels, costs))
    assert r["objective"] == float(np.cumsum(fam.probabilities * np.array(costs))[-1])


def test_barycenter_objective_adds_in_atom_order(tmp_path):
    # the builtin sum() of floats is compensated from Python 3.12, which
    # moves this golden's objective by its last digit; the report adds
    # p_a * w2_a in atom order on every version
    inp = str(Path(__file__).parent / "golden" / "inputs" / "three_1d.csv")
    rep = str(tmp_path / "r.json")
    assert main(["barycenter", "--input", inp, "--method", "entropic", "--epsilon", "0.05",
                 "--max-iter", "500", "--report", rep]) == 0
    r = load(rep)
    t = cli._read_csv(inp, ["measure"], ["weight", "x"])
    fam = otrepair.estimate_conditionals(
        otrepair.Dataset(tuple(t["measure"]), cli._points(t, ["x"]), t["weight"]))
    assert list(r["per_measure_w2"]) == list(fam.labels)
    w2 = np.array(list(r["per_measure_w2"].values()))
    assert r["objective"] == _total(fam.probabilities, w2) == 0.23578965604082192


def test_barycenter_of_point_masses_is_their_weighted_mean(tmp_path):
    # the closed form, not the best point of the union grid
    inp = write(tmp_path / "m.csv", "measure,weight,x1,x2\nm1,1,0,0\nm2,3,4,8\n")
    rep = str(tmp_path / "r.json")
    assert main(["barycenter", "--input", inp, "--value-cols", "x1,x2",
                 "--method", "exact", "--report", rep]) == 0
    r = load(rep)
    assert r["method"] == "dirac_closed_form"
    assert r["nu0"] == {"support": [[3.0, 6.0]], "weights": [1.0]}
    assert r["per_measure_w2"] == {"m1": 45.0, "m2": 5.0}
    assert r["objective"] == 15.0


def test_barycenter_rejects_non_finite_support(tmp_path, capsys):
    inp = write(tmp_path / "m.csv", "measure,weight,x\nm1,1,0\nm2,1,1\n")
    grid = write(tmp_path / "g.csv", "x\n0\nnan\n1\n")
    rep = tmp_path / "r.json"
    assert main(["barycenter", "--input", inp, "--method", "exact", "--support", grid,
                 "--report", str(rep)]) == 3
    assert "support contains the non-finite value nan\n" in capsys.readouterr().err
    assert not rep.exists()


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


def test_diagnose_is_byte_identical_across_blas_thread_counts(tmp_path):
    # 100,000 sample rows in 50 groups: the empirical distance adds its
    # terms in one fixed order, so the thread count cannot move its bits
    rng = np.random.default_rng(1)
    n = 100_000
    groups = rng.integers(0, 50, n)
    x = 0.1 * groups + rng.normal(size=n)
    y = rng.choice([-1.0, 0.0, 2.0], n)
    lines = ["group,x,weight,u,y1"] + [
        f"g{g},{xi!r},{w!r},{u!r},{yi!r}" for g, xi, w, u, yi in
        zip(groups.tolist(), x.tolist(), (rng.random(n) + 0.05).tolist(),
            rng.random(n).tolist(), y.tolist())]
    smp = write(tmp_path / "s.csv", "\n".join(lines) + "\n")
    rep = write(tmp_path / "r.json", json.dumps({
        "config": {"group_col": "group", "value_cols": ["x"]},
        "nu0": {"support": [[-1.0], [0.0], [2.0]], "weights": [0.25, 0.5, 0.25]},
        "achieved_distance_sq": 2.0}))
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"d{threads}.json"
        run_with_blas_threads(threads, "diagnose", "--samples", smp, "--report", rep,
                              "--out", str(out))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


GOOD_REPORT = {"config": {"group_col": "group", "value_cols": ["x"]},
               "nu0": {"support": [[1.0]], "weights": [1.0]}, "achieved_distance_sq": 0.5}


def test_diagnose_rejects_bad_report(tmp_path, capsys):
    smp = write(tmp_path / "s.csv", "group,x,weight,u,y1\ng1,0,1,0.5,1\n")
    out = tmp_path / "o.json"
    rep = tmp_path / "r.json"
    rep.write_bytes(json.dumps(GOOD_REPORT).encode())
    assert main(["diagnose", "--samples", smp, "--report", str(rep), "--out", str(out)]) == 0
    out.unlink()
    for body in (
        b"{}",
        b"not json",
        b"\xff" + json.dumps(GOOD_REPORT).encode(),
        json.dumps({**GOOD_REPORT, "nu0": {"support": [[1.0], [1.0, 2.0]],
                                           "weights": [0.5, 0.5]}}).encode(),
        json.dumps({**GOOD_REPORT, "nu0": {"support": [[1.0]], "weights": ["all"]}}).encode(),
        json.dumps({**GOOD_REPORT, "achieved_distance_sq": "small"}).encode(),
        # json.load reads NaN, which no report of a valid run holds
        json.dumps({**GOOD_REPORT, "achieved_distance_sq": float("nan")}).encode(),
    ):
        rep.write_bytes(body)
        assert main(["diagnose", "--samples", smp, "--report", str(rep),
                     "--out", str(out)]) == 3, body
        assert capsys.readouterr().err.startswith(f"error: {rep}: not a valid approx report (")
        assert not out.exists()


@pytest.mark.parametrize("column, value, message", [
    ("x", "nan", "x contains the non-finite value nan"),
    ("y1", "nan", "y contains the non-finite value nan"),
    ("u", "nan", "u contains the non-finite value nan"),
    ("weight", "nan", "weights contains the non-finite value nan"),
    ("weight", "-1", "dataset weights must be strictly positive"),
], ids=["nan-x", "nan-y", "nan-u", "nan-weight", "negative-weight"])
def test_diagnose_rejects_bad_sample_values(tmp_path, capsys, column, value, message):
    inp = write(tmp_path / "d.csv", HAND_CSV)
    rep, smp, out = (str(tmp_path / f) for f in ("r.json", "s.csv", "o.json"))
    assert main(["approx", "--input", inp, "--report", rep,
                 "--samples", smp, "--seed", "11"]) == 0
    lines = Path(smp).read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[2] = ",".join(cells)
    write(Path(smp), "\n".join(lines) + "\n")
    assert main(["diagnose", "--samples", smp, "--report", rep, "--out", out]) == 3
    assert message in capsys.readouterr().err
    assert not Path(out).exists()


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


def test_approx_2d_is_byte_identical_across_processes(tmp_path):
    # the joint LP runs HiGHS's interior point method; two interpreters must
    # still pick the same vertex and write the same bytes
    rng = np.random.default_rng(5)
    lines = ["group,x1,x2"] + [
        f"g{a},{float(x[0])!r},{float(x[1])!r}"
        for a in range(3) for x in rng.normal(size=(8, 2)) + a
    ]
    inp = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
    package_root = str(Path(otrepair.__file__).resolve().parents[1])
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    blobs = []
    for tag in ("1", "2"):
        rep, smp = tmp_path / f"r{tag}.json", tmp_path / f"s{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "otrepair", "approx", "--input", inp,
             "--value-cols", "x1,x2", "--report", str(rep), "--samples", str(smp),
             "--seed", "11"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((rep.read_bytes(), smp.read_bytes()))
    assert blobs[0] == blobs[1]
    assert not load(tmp_path / "r1.json")["checks_failed"]


def blas_env(threads):
    """The environment of a child process that imports the same package as
    this test and whose BLAS runs on ``threads`` threads."""
    package_root = str(Path(otrepair.__file__).resolve().parents[1])
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
            "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}


@functools.cache
def blas_threads_reorder_sums():
    """Whether a plain ``p @ f`` over 300,000 terms reads differently under
    1 and under 2 BLAS threads: where it does not, a thread-count test
    cannot fail."""
    code = ("import numpy as np; p, f = np.random.default_rng(0).random((2, 300_000)); "
            "print(repr(float(p @ f)))")
    return len({subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                               env=blas_env(threads)).stdout
                for threads in ("1", "2")}) == 2


def run_with_blas_threads(threads, *argv):
    """``python -m otrepair *argv`` in a fresh process whose BLAS runs on
    ``threads`` threads; fails the test unless it exits 0, and skips it
    where the BLAS thread count does not change a long dot product."""
    if not blas_threads_reorder_sums():
        pytest.skip("a 300,000-term p @ f sums alike under 1 and 2 BLAS threads here")
    proc = subprocess.run([sys.executable, "-m", "otrepair", *argv], capture_output=True,
                          env=blas_env(threads))
    assert proc.returncode == 0, proc.stderr


def many_groups_csv(tmp_path):
    """2,000 groups, 11,331 rows."""
    rng = np.random.default_rng(1)
    sizes = [(4, 5, 8)[g % 3] for g in range(2000)]
    x = np.repeat(0.5 * (np.arange(2000) % 7 - 3), sizes) + rng.normal(size=sum(sizes))
    lines = ["group,x"] + [f"g{g:04d},{v!r}" for g, v in zip(np.repeat(range(2000), sizes),
                                                             x.tolist())]
    return write(tmp_path / "d.csv", "\n".join(lines) + "\n")


def long_groups_csv(tmp_path):
    """2 weighted groups of 15,000 rows on the integers 0-19, the second
    shifted by 0.5."""
    rng = np.random.default_rng(5)
    x = rng.integers(0, 20, 30_000) + np.repeat([0.0, 0.5], 15_000)
    w = rng.random(30_000) + 0.05
    lines = ["group,x,weight"] + [f"{g},{v!r},{wi!r}" for g, v, wi in
                                  zip(np.repeat(["a", "b"], 15_000), x.tolist(), w.tolist())]
    return write(tmp_path / "d.csv", "\n".join(lines) + "\n")


def approx_bytes_across_blas_thread_counts(tmp_path, inp, *options):
    """The report and samples bytes of ``otrepair approx *options`` on the
    CSV ``inp``, run under 1 and under 2 BLAS threads."""
    blobs = []
    for threads in ("1", "2"):
        rep, smp = tmp_path / f"r{threads}.json", tmp_path / f"s{threads}.csv"
        run_with_blas_threads(threads, "approx", "--input", inp, "--report", str(rep),
                              "--samples", str(smp), "--seed", "1", *options)
        blobs.append((rep.read_bytes(), smp.read_bytes()))
    return blobs


def test_approx_is_byte_identical_across_blas_thread_counts(tmp_path):
    # OpenBLAS splits a product this long over two threads, which changes
    # the order of its sums; the means add in one fixed order, so the
    # report and samples keep their bytes
    blobs = approx_bytes_across_blas_thread_counts(tmp_path, many_groups_csv(tmp_path))
    assert blobs[0] == blobs[1]


def test_long_group_approx_is_byte_identical_across_blas_thread_counts(tmp_path):
    # the costs of a 15,000-row group's coupling and verify's dual sums
    # add over segments this long in one fixed order, not by BLAS dots
    blobs = approx_bytes_across_blas_thread_counts(tmp_path, long_groups_csv(tmp_path),
                                                   "--weight-col", "weight")
    assert blobs[0] == blobs[1]


def test_free_support_approx_is_byte_identical_across_blas_thread_counts(tmp_path):
    # the free-support update adds every arc by np.bincount in one fixed
    # order, where it used to be a BLAS product per group
    blobs = approx_bytes_across_blas_thread_counts(tmp_path, many_groups_csv(tmp_path),
                                                   "--method", "free", "--k", "20")
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("p_a", ["0.5", "0.3"])
def test_binary_case_is_byte_identical_across_blas_thread_counts(tmp_path, p_a):
    # the closed forms add their 50,000 terms in one fixed order, not by
    # BLAS dots
    rng = np.random.default_rng(0)
    p, f, g = rng.random((3, 50_000))
    p /= p.sum()
    lines = ["p,f,g"] + [f"{a!r},{b!r},{c!r}" for a, b, c in zip(p.tolist(), f.tolist(),
                                                                  g.tolist())]
    inp = write(tmp_path / "atoms.csv", "\n".join(lines) + "\n")
    blobs = []
    for threads in ("1", "2"):
        rep = tmp_path / f"r{threads}.json"
        run_with_blas_threads(threads, "binary-case", "--input", inp, "--pA", p_a,
                              "--report", str(rep))
        blobs.append(rep.read_bytes())
    assert blobs[0] == blobs[1]


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage error\n     (unknown flag" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["approx", "--input", "d.csv", "--report", "r.json", "--no-such-flag"])
    assert exc.value.code == 2


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


def test_approx_rejects_weights_that_underflow(tmp_path, capsys):
    inp = write(tmp_path / "d.csv", "group,x,w\nb,1,1e300\na,0,1e-320\na,2,1e-320\n")
    rep = tmp_path / "r.json"
    assert main(["approx", "--input", inp, "--weight-col", "w", "--report", str(rep)]) == 3
    err = capsys.readouterr().err
    assert "weight 1e-320 of a row of group 'a' underflows to 0" in err
    assert "Warning" not in err and not rep.exists()


@pytest.mark.parametrize("command", ["approx", "ot", "diagnose"])
def test_weight_totals_that_overflow_say_so(tmp_path, capsys, command):
    # two weights of 1e308 are each finite and positive, but their total
    # overflows: one error line and no numpy warning
    out = tmp_path / "o.json"
    if command == "approx":
        inp = write(tmp_path / "d.csv", "group,x,w\na,0,1e308\nb,1,1e308\n")
        argv = ["approx", "--input", inp, "--weight-col", "w", "--report", str(out)]
    elif command == "ot":
        inp = write(tmp_path / "m.csv", "measure,weight,x\nm1,1e308,0\nm1,1e308,1\nm2,1,0\n")
        argv = ["ot", "--input", inp, "--report", str(out)]
    else:
        inp = write(tmp_path / "d.csv", HAND_CSV)
        rep, smp = str(tmp_path / "r.json"), tmp_path / "s.csv"
        assert main(["approx", "--input", inp, "--report", rep,
                     "--samples", str(smp), "--seed", "11"]) == 0
        lines = smp.read_text(encoding="utf-8").splitlines()
        column = lines[0].split(",").index("weight")
        for i in (1, 2):
            cells = lines[i].split(",")
            cells[column] = "1e308"
            lines[i] = ",".join(cells)
        write(smp, "\n".join(lines) + "\n")
        argv = ["diagnose", "--samples", str(smp), "--report", rep, "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: the weights' total overflows; rescale the weights\n")
    assert not out.exists()


def test_approx_takes_every_group_from_one_grouped_pass(tmp_path, monkeypatch):
    # 300 groups: the estimate, the row matching and the samples read the
    # dataset's grouping once, with no lookup of a group's rows by label
    rng = np.random.default_rng(3)
    lines = ["group,x"] + [f"g{a},{x!r}" for a, x in zip(rng.integers(0, 300, 1500),
                                                         rng.normal(size=1500).tolist())]
    inp = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
    calls = []
    group_rows = Dataset.group_rows
    monkeypatch.setattr(Dataset, "group_rows",
                        lambda self, label: calls.append(label) or group_rows(self, label))
    assert main(["approx", "--input", inp, "--report", str(tmp_path / "r.json"),
                 "--samples", str(tmp_path / "s.csv"), "--seed", "1"]) == 0
    assert not load(tmp_path / "r.json")["checks_failed"]
    assert calls == []


def test_approx_hands_the_estimate_over_flat(tmp_path, monkeypatch):
    # 300 groups: the family takes the estimate's flat arrays as they are,
    # and no stage of the 1-D approx path asks for its atoms one by one
    rng = np.random.default_rng(3)
    lines = ["group,x"] + [f"g{a},{x!r}" for a, x in zip(rng.permutation(np.arange(1500) % 300),
                                                         rng.normal(size=1500).tolist())]
    inp = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
    atoms, families = [], []
    init = ConditionalAtom.__init__
    monkeypatch.setattr(ConditionalAtom, "__init__",
                        lambda self, *args: atoms.append(args) or init(self, *args))
    real = approx.ConditionalFamily

    def spy(*args):
        families.append((args, real(*args)))
        return families[-1][1]

    monkeypatch.setattr(approx, "ConditionalFamily", spy)
    assert main(["approx", "--input", inp, "--report", str(tmp_path / "r.json"),
                 "--samples", str(tmp_path / "s.csv"), "--seed", "1"]) == 0
    assert not load(tmp_path / "r.json")["checks_failed"]
    assert atoms == []
    [((_, _, _, support, weights), fam)] = families
    assert len(fam) == 300 and fam.support is support and fam.weights is weights


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


@pytest.mark.parametrize("text, message", [
    ("", "empty file, header row required"),
    ("group,x\n", "no data rows"),
], ids=["empty", "header-only"])
def test_approx_rejects_a_csv_without_data_rows(tmp_path, capsys, text, message):
    inp = write(tmp_path / "d.csv", text)
    rep = tmp_path / "r.json"
    assert main(["approx", "--input", inp, "--report", str(rep)]) == 3
    assert capsys.readouterr().err == f"error: {inp}: {message}\n"
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


@pytest.mark.parametrize("body, message", [
    (b"a,\xff\n", "'utf-8' codec can't decode byte 0xff"),
    (b"a," + b"1" * 131_073 + b"\n", "field larger than field limit (131072)"),
], ids=["not-utf-8", "long-cell"])
@pytest.mark.parametrize("subcommand, header, flags", [
    ("approx", b"group,x", []),
    ("ot", b"measure,weight,x", []),
    ("barycenter", b"measure,weight,x", []),
    ("binary-case", b"atom,p,f,g", ["--pA", "0.5"]),
], ids=["approx", "ot", "barycenter", "binary-case"])
def test_unreadable_csv_is_a_parse_error(tmp_path, capsys, subcommand, header, flags,
                                         body, message):
    inp = tmp_path / "d.csv"
    inp.write_bytes(header + b"\n" + body)
    rep = tmp_path / "r.json"
    assert main([subcommand, "--input", str(inp), "--report", str(rep), *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {inp}: ") and message in err
    assert not rep.exists()


@pytest.mark.parametrize("subcommand, text, flags, column", [
    ("approx", "group,x, x\na,0,1\nb,1,2\n", [], "x"),
    ("ot", "measure,weight,x,x\nm1,1,0,1\nm2,1,1,2\n", [], "x"),
    ("barycenter", "measure,weight,x,x\nm1,1,0,1\nm2,1,1,2\n", [], "x"),
    ("binary-case", "p,f,g,f\n0.5,0,1,2\n0.5,1,2,3\n", ["--pA", "0.5"], "f"),
], ids=["approx", "ot", "barycenter", "binary-case"])
def test_duplicated_header_column_is_a_parse_error(tmp_path, capsys, subcommand, text,
                                                   flags, column):
    inp = write(tmp_path / "d.csv", text)
    rep = tmp_path / "r.json"
    assert main([subcommand, "--input", inp, "--report", str(rep), *flags]) == 3
    assert capsys.readouterr().err == \
        f"error: {inp}: column {column!r} appears 2 times in the header\n"
    assert not rep.exists()


def test_byte_order_mark_is_skipped(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    inp, rep = tmp_path / "d.csv", tmp_path / "r.json"
    blobs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        inp.write_bytes(bom + HAND_CSV.encode("utf-8"))
        assert main(["approx", "--input", str(inp), "--report", str(rep)]) == 0
        blobs.append(rep.read_bytes())
    assert blobs[0] == blobs[1]


def test_read_csv_names_the_first_short_row_in_file_order(tmp_path):
    # the columns are checked in the order asked for, A (header place 1)
    # before B (place 3), but row 2 lacks only B and row 3 lacks A too
    inp = write(tmp_path / "d.csv", "z,A,y,B\n0,a\n0\n0,a,0,1\n")
    with pytest.raises(CsvParseError, match="row 2 has no cell for column 'B'") as exc:
        cli._read_csv(inp, ["A"], ["B"])
    assert (exc.value.row, exc.value.column) == (2, "B")


@pytest.mark.parametrize("numeric, bad", [
    (["a", "b"], (5, "a", "bad2")),
    (["b", "a"], (4, "b", "bad1")),
], ids=["a-first", "b-first"])
def test_read_csv_names_the_first_malformed_cell_column_by_column(tmp_path, numeric, bad):
    # columns in the order asked for, rows in file order within a column;
    # rows are named by their CSV line, after a quoted two-line cell
    inp = write(tmp_path / "d.csv",
                'g,a,b\n"two\nlines",1,2\nq,1,bad1\nq,bad2,2\nq,bad3,bad4\n')
    line, column, cell = bad
    with pytest.raises(CsvParseError) as exc:
        cli._read_csv(inp, ["g"], numeric)
    assert (exc.value.row, exc.value.column) == (line, column)
    assert str(exc.value) == f"row {line}: cannot parse {cell!r} in column {column!r}"


def test_read_csv_skips_whitespace_only_rows(tmp_path):
    inp = write(tmp_path / "d.csv", "g,x\n , \na,1\n\n\t,\nb, 2\n   \n")
    t = cli._read_csv(inp, ["g"], ["x"])
    assert t["g"] == ["a", "b"]
    assert t["x"].tolist() == [1.0, 2.0]


def test_read_csv_parses_cells_as_float_does(tmp_path, capsys):
    cells = [" 2.5 ", "1_000", "inf", "-0", "1e-310", "-nan", "\t7e3\n"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([["g", "x"], *(["a", c] for c in cells)])
    inp = write(tmp_path / "d.csv", buf.getvalue())
    x = cli._read_csv(inp, ["g"], ["x"])["x"]
    assert x.dtype == np.float64
    assert x.view(np.int64).tolist() == \
        np.array([float(c) for c in cells]).view(np.int64).tolist()
    inp = write(tmp_path / "inf.csv", "group,x\na,1\na,inf\nb,0\n")
    assert main(["approx", "--input", inp, "--report", str(tmp_path / "r.json")]) == 3
    assert "x contains the non-finite value inf" in capsys.readouterr().err


def test_invalid_option_values_exit_5(tmp_path, capsys):
    # every check runs before the first file is written, so none is left
    inp = write(tmp_path / "d.csv", HAND_CSV)
    weighted = write(tmp_path / "w.csv", WEIGHTED_CSV)
    rep, smp = tmp_path / "r.json", tmp_path / "s.csv"
    approx_ = ["approx", "--input", inp]
    ot = ["ot", "--input", weighted, "--measure-col", "group", "--weight-col", "w",
          "--method", "entropic"]
    for argv in ([*approx_, "--method", "free", "--k", "0"],
                 [*approx_, "--resolution", "0"],
                 [*approx_, "--samples", str(smp), "--seed", "-1"],
                 [*approx_, "--method", "free", "--seed", "-3"],
                 [*approx_, "--method", "free", "--max-iter", "0"],
                 [*approx_, "--method", "entropic", "--max-iter", "-1"],
                 [*ot, "--epsilon", "-1"],
                 [*ot, "--max-iter", "0"]):
        assert main([*argv, "--report", str(rep)]) == 5
        assert not rep.exists() and not smp.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 8 and all(line.startswith("error: ") for line in err)


PAIR_CSV = "group,x\na,0\na,2\nb,1\nb,3\n"
PAIR_MEASURES_CSV = "measure,weight,x\na,1,0\na,1,2\nb,1,1\nb,1,3\n"


@pytest.mark.parametrize("argv, code", [
    (["approx", "--input", "d.csv", "--method", "entropic", "--epsilon", "inf"], 5),
    (["approx", "--input", "d.csv", "--method", "entropic", "--tol", "nan"], 5),
    (["approx", "--input", "d.csv", "--method", "free", "--tol", "nan"], 5),
    (["approx", "--input", "missing.csv", "--epsilon", "nan"], 5),
    (["ot", "--input", "m.csv", "--method", "exact", "--tol", "nan"], 5),
    (["ot", "--input", "m.csv", "--method", "entropic", "--epsilon", "inf"], 5),
    (["barycenter", "--input", "m.csv", "--tol", "nan"], 5),
    (["barycenter", "--input", "m.csv", "--epsilon=-inf"], 5),
    (["approx", "--input", "d.csv", "--method", "entropic", "--epsilon", "1e-320"], 4),
    (["barycenter", "--input", "m.csv", "--method", "entropic", "--epsilon", "1e-320"], 4),
], ids=["approx-entropic-epsilon-inf", "approx-entropic-tol-nan", "approx-free-tol-nan",
        "approx-missing-input", "ot-exact-tol-nan", "ot-entropic-epsilon-inf",
        "barycenter-tol-nan", "barycenter-epsilon-minus-inf", "approx-epsilon-underflow",
        "barycenter-epsilon-underflow"])
def test_solver_flags_no_solver_can_use_end_in_a_documented_exit(tmp_path, monkeypatch, capsys,
                                                                 argv, code):
    # a non-finite --epsilon or --tol is a conflict found before any file
    # is read (so a missing input exits 5 too), and an epsilon below what
    # the costs allow fails the entropic barycenter as it fails the
    # entropic solver; either way one error line and no report, no numpy
    # warning
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "d.csv", PAIR_CSV)
    write(tmp_path / "m.csv", PAIR_MEASURES_CSV)
    assert main([*argv, "--report", "r.json"]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if code == 4:
        assert err[0].endswith("epsilon is too small for the cost scale")
    assert sorted(os.listdir(tmp_path)) == ["d.csv", "m.csv"]


@pytest.mark.parametrize("subcommand", ["approx", "ot", "barycenter"])
@pytest.mark.parametrize("value_cols", [",", ""], ids=["comma", "empty"])
def test_value_cols_naming_no_column_is_a_config_conflict(tmp_path, capsys, subcommand,
                                                         value_cols):
    # checked before any file is read, like a column named twice
    rep = tmp_path / "r.json"
    for inp in (write(tmp_path / "m.csv", PAIR_MEASURES_CSV), str(tmp_path / "missing.csv")):
        assert main([subcommand, "--input", inp, "--value-cols", value_cols,
                     "--report", str(rep)]) == 5
        assert capsys.readouterr().err == "error: --value-cols names no column\n"
        assert not rep.exists()


@pytest.mark.parametrize("subcommand, flags", [
    ("approx", ["--value-cols", "x,x"]),
    ("approx", ["--group-col", "x"]),
    ("approx", ["--weight-col", "x"]),
    ("approx", ["--u-col", "x"]),
    ("ot", ["--measure-col", "group", "--weight-col", "w", "--value-cols", "x,x"]),
    ("barycenter", ["--measure-col", "group", "--weight-col", "w", "--value-cols", "x,x"]),
], ids=["approx-value-cols", "approx-group-col", "approx-weight-col", "approx-u-col",
        "ot-value-cols", "barycenter-value-cols"])
def test_a_column_named_twice_is_a_config_conflict(tmp_path, capsys, subcommand, flags):
    # the flags are checked before any file is read, so a missing input
    # file exits 5 as well
    rep = tmp_path / "r.json"
    for inp in (write(tmp_path / "d.csv", WEIGHTED_CSV), str(tmp_path / "missing.csv")):
        assert main([subcommand, "--input", inp, "--report", str(rep), *flags]) == 5
        assert capsys.readouterr().err == \
            "error: column 'x' is named twice by the column flags\n"
        assert not rep.exists()


@pytest.mark.parametrize("report, samples", [
    ("r.json", "nodir/s.csv"),
    ("nodir/r.json", "s.csv"),
], ids=["samples", "report"])
def test_an_output_path_that_cannot_be_opened_leaves_no_file(tmp_path, capsys, monkeypatch,
                                                            report, samples):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "d.csv", HAND_CSV)
    assert main(["approx", "--input", "d.csv", "--report", report, "--samples", samples,
                 "--seed", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "nodir" in err[0]
    assert os.listdir(tmp_path) == ["d.csv"]


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

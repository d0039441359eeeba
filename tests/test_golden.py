"""Golden CLI outputs: every report and samples file, compared byte for byte.

Each case copies the CSVs under ``golden/inputs`` into a fresh directory,
runs its subcommands there with relative paths (reports embed the input
paths), and compares every file the run wrote with ``golden/<case>/``.

After a deliberate output change, rewrite the files and review the diff::

    PYTHONPATH=src python tests/test_golden.py

Before it rewrites anything, that prints each changed JSON leaf as
``case/file: path: old -> new`` and the number of changed rows of each
CSV, so moved digits can be listed as they are.  With ``--check`` it
prints the same lines, writes nothing and exits 1 if anything changed.
"""
import json
import shutil
import sys
from pathlib import Path

import pytest

from otrepair.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    "approx_1d_seed": [
        ["approx", "--input", "one_d.csv", "--report", "report.json",
         "--samples", "samples.csv", "--seed", "7"],
    ],
    "approx_1d_u_weight": [
        ["approx", "--input", "weighted_u.csv", "--group-col", "g",
         "--value-cols", "v", "--weight-col", "w", "--u-col", "uu",
         "--report", "report.json", "--samples", "samples.csv"],
    ],
    "approx_2d": [
        ["approx", "--input", "two_d.csv", "--value-cols", "x1,x2",
         "--report", "report.json", "--samples", "samples.csv", "--seed", "3"],
    ],
    "approx_entropic": [
        ["approx", "--input", "two_d.csv", "--value-cols", "x1,x2",
         "--method", "entropic", "--epsilon", "0.05", "--max-iter", "300",
         "--report", "report.json", "--samples", "samples.csv", "--seed", "5"],
    ],
    "approx_free": [
        ["approx", "--input", "one_d.csv", "--method", "free", "--k", "4",
         "--report", "report.json", "--samples", "samples.csv", "--seed", "2"],
    ],
    "ot_exact": [
        ["ot", "--input", "pair_2d.csv", "--value-cols", "x1,x2",
         "--report", "report.json"],
    ],
    "ot_comonotone1d": [
        ["ot", "--input", "pair_1d.csv", "--method", "comonotone1d",
         "--report", "report.json"],
    ],
    "ot_entropic": [
        ["ot", "--input", "pair_2d.csv", "--value-cols", "x1,x2",
         "--method", "entropic", "--epsilon", "0.05", "--report", "report.json"],
    ],
    "barycenter_auto": [
        ["barycenter", "--input", "three_1d.csv", "--report", "report.json"],
    ],
    "barycenter_exact_support": [
        ["barycenter", "--input", "three_1d.csv", "--method", "exact",
         "--support", "grid_1d.csv", "--report", "report.json"],
    ],
    "barycenter_entropic": [
        ["barycenter", "--input", "three_1d.csv", "--method", "entropic",
         "--epsilon", "0.05", "--max-iter", "500", "--report", "report.json"],
    ],
    "binary_case_verify": [
        ["binary-case", "--input", "binary.csv", "--pA", "0.5", "--verify",
         "--report", "report.json"],
    ],
    "diagnose": [
        ["approx", "--input", "one_d.csv", "--report", "approx.json",
         "--samples", "samples.csv", "--seed", "11"],
        ["diagnose", "--samples", "samples.csv", "--report", "approx.json",
         "--out", "report.json"],
    ],
}


def run_case(name: str, workdir: Path, monkeypatch) -> dict:
    """Run one case in ``workdir``; returns {file name: bytes} of its outputs."""
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    monkeypatch.chdir(workdir)
    for argv in CASES[name]:
        assert main(argv) == 0, argv
    inputs = {p.name for p in INPUTS.iterdir()}
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())
            if p.name not in inputs}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    outputs = run_case(name, tmp_path, monkeypatch)
    expected_dir = GOLDEN / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    assert sorted(outputs) == sorted(expected)
    for fname, blob in expected.items():
        assert outputs[fname] == blob, (f"{name}/{fname} differs from the golden file: "
                                        + "; ".join(changes(fname, blob, outputs[fname])))


def test_every_golden_report_is_standard_json():
    # json.load reads NaN and Infinity, which no standard JSON parser does
    # and no report may hold
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    reports = sorted(GOLDEN.glob("*/*.json"))
    assert len(reports) == len(CASES) + 1  # the diagnose case keeps its approx report
    for path in reports:
        with open(path, encoding="utf-8") as fh:
            json.load(fh, parse_constant=reject)


def json_changes(old, new, path=""):
    """``path: old -> new`` for every leaf of two parsed JSON values that
    differs, a list or dict of another length or keys counting as a leaf."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [c for k in old for c in json_changes(old[k], new[k], f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [c for i, (a, b) in enumerate(zip(old, new))
                for c in json_changes(a, b, f"{path}[{i}]")]
    return [] if old == new else [f"{path or '.'}: {old!r} -> {new!r}"]


def changes(fname: str, old: bytes | None, new: bytes) -> list:
    """What changed in one output file, as printable lines."""
    if old is None:
        return ["new file"]
    if old == new:
        return []
    if fname.endswith(".json"):
        return json_changes(json.loads(old), json.loads(new)) or ["bytes only"]
    a, b = old.decode().splitlines(), new.decode().splitlines()
    moved = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return [f"{moved} of {len(a)} rows changed ({len(a)} -> {len(b)} rows)"]


if __name__ == "__main__":
    import tempfile

    runs = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            runs[case] = run_case(case, Path(tmp), mp)
    moved = False
    for case, outputs in runs.items():
        target = GOLDEN / case
        written = {p.name for p in target.iterdir()} if target.exists() else set()
        for fname in sorted(written - set(outputs)):
            print(f"{case}/{fname}: no longer written")
            moved = True
        for fname, blob in outputs.items():
            old = (target / fname).read_bytes() if (target / fname).exists() else None
            for line in changes(fname, old, blob):
                print(f"{case}/{fname}: {line}")
                moved = True
    if sys.argv[1:] == ["--check"]:
        sys.exit(1 if moved else 0)
    for case, outputs in runs.items():
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for fname, blob in outputs.items():
            (target / fname).write_bytes(blob)
        print(f"wrote {target}", file=sys.stderr)

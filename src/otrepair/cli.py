"""Command-line front end: CSV in, deterministic JSON/CSV out.

Reports are byte-identical across runs for identical inputs and flags:
fields are emitted in a fixed order, floats are printed with 17
significant digits, strings are escaped as ``json.dumps(s,
ensure_ascii=False)`` escapes them, and sampling randomness comes only
from the u column or an explicit --seed.  The emitters work a whole
column or container at a time; any change to them must keep every
report and ``samples.csv`` byte for byte (the golden tests pin them).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from . import approx as approx_mod
from . import diagnostics
from .barycenter import METHODS, _total, solve_barycenter
from .errors import (
    EXIT_IO,
    ConfigConflictError,
    CsvParseError,
    EmptyDatasetError,
    MissingColumnError,
    OtRepairError,
)
from .measure import Dataset, DiscreteMeasure, _finite, make_measure
from .ot import solve_comonotone_1d, solve_entropic, solve_exact
from .special_binary import (
    BinaryInstance,
    brute_force,
    is_half,
    solve_half,
    solve_nonhalf,
)

_EPILOG = """\
exit codes:
  0  success (a report with "checks_failed": true still exits 0)
  2  I/O error (missing or unreadable/unwritable file), or a usage error
     (unknown flag, missing or malformed option value such as --seed abc)
  3  schema or parse error (missing or duplicated column, malformed cell,
     bad data, a file that is not UTF-8, a malformed approx report)
  4  solver failure
  5  configuration conflict (e.g. quantile1d on multi-d data, samples
     requested without a u column or --seed, epsilon <= 0, k < 1,
     --max-iter < 1, a negative --seed, a CSV column named twice by the
     column flags)
A run that exits 3, 4 or 5, or cannot open an output path, leaves no
report and no samples.

CSV dialect: comma-separated, UTF-8 (a leading byte-order mark is
skipped), header row required, '.' decimal point, no thousands separators.
"""


# ---------------------------------------------------------------------------
# deterministic JSON / CSV emission
# ---------------------------------------------------------------------------

# a float as 17 significant digits, the report's and the samples' format
_fmt_float = "{:.17g}".format
# a string as json.dumps(s, ensure_ascii=False) writes it
_json_str = json.encoder.encode_basestring


def _emit_json(value) -> str:
    """``value`` as compact JSON with floats as :func:`_fmt_float` prints
    them (so nan and inf as ``nan`` and ``inf``); one type test per value,
    the commonest first."""
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, dict):
        return "{" + ",".join([_json_str(str(k)) + ":" + _emit_json(v)
                               for k, v in value.items()]) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_emit_json, value)) + "]"
    if isinstance(value, np.ndarray):
        return _emit_json(value.tolist())
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return _fmt_float(float(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_report(path: str, subcommand: str, body: dict) -> None:
    """The report of ``subcommand``: its envelope, then ``body``'s fields."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_emit_json({"schema": 1, "subcommand": subcommand, **body}))
        fh.write("\n")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _read_csv(path: str, text=(), numeric=(), optional=()) -> dict:
    """The named columns of a CSV file, one entry per non-blank data row.

    ``text`` columns become lists of stripped strings and ``numeric``
    ones float arrays.  A column in ``optional`` that the header lacks
    maps to None; any other missing column is a MissingColumnError, and
    a column the header names twice, a row too short to reach a column, a
    file that is not UTF-8 (a leading byte-order mark is skipped) or a
    cell beyond csv's field size limit is a CsvParseError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows, lines = [], []
            for row in reader:
                if "".join(row).strip():
                    rows.append(row)
                    lines.append(reader.line_num)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CsvParseError(f"{path}: {exc}") from None
    if header is None:
        raise CsvParseError(f"{path}: empty file, header row required")
    header = [h.strip() for h in header]
    index = {}
    columns = [*text, *numeric]
    for name in columns:
        count = header.count(name)
        if count > 1:
            raise CsvParseError(f"{path}: column {name!r} appears {count} times in "
                                "the header", column=name)
        if count:
            index[name] = header.index(name)
        elif name not in optional:
            raise MissingColumnError(f"{path}: column {name!r} not found in {header}")
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    if min(map(len, rows)) <= max(index.values(), default=-1):
        # the first short row in file order, its first missing column
        for row, line in zip(rows, lines):
            for name, i in index.items():
                if i >= len(row):
                    raise CsvParseError(f"{path}: row {line} has no cell for column "
                                        f"{name!r}", row=line, column=name)
    out = dict.fromkeys(columns)
    for name, i in index.items():
        cells = [row[i] for row in rows]
        if name not in numeric:
            out[name] = list(map(str.strip, cells))
            continue
        try:
            out[name] = np.fromiter(map(float, cells), dtype=float, count=len(cells))
        except ValueError:
            # the first malformed cell, with its row
            for cell, line in zip(cells, lines):
                try:
                    float(cell)
                except ValueError:
                    raise CsvParseError(f"row {line}: cannot parse {cell!r} in column "
                                        f"{name!r}", row=line, column=name) from None
    return out


def _points(table: dict, value_cols: list[str]) -> np.ndarray:
    return np.asarray([table[c] for c in value_cols], dtype=float).T


def _load_dataset(path: str, group_col: str, value_cols: list[str],
                  weight_col: str | None, u_col: str | None) -> Dataset:
    t = _read_csv(path, [group_col], [*value_cols, *(c for c in (weight_col, u_col) if c)])
    return Dataset(
        groups=tuple(t[group_col]),
        x=_points(t, value_cols),
        weights=t[weight_col] if weight_col else np.ones(len(t[group_col])),
        u=t[u_col] if u_col else None,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _value_cols(args) -> list[str]:
    """The --value-cols entries; a column named twice by the column flags is a conflict."""
    value_cols = [c.strip() for c in args.value_cols.split(",") if c.strip()]
    flags = ("group_col", "measure_col", "weight_col", "u_col")
    named = [*filter(None, map(vars(args).get, flags)), *value_cols]
    for i, name in enumerate(named):
        if name in named[:i]:
            raise ConfigConflictError(f"column {name!r} is named twice by the column flags")
    return value_cols


def _common_config(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys}


def _nu0_payload(nu0: DiscreteMeasure) -> dict:
    return {"support": nu0.support, "weights": nu0.weights}


def _solver_options(args) -> dict:
    """The solver flags as keywords of ``build`` and ``solve_barycenter``."""
    return {"epsilon": args.epsilon, "max_iter": args.max_iter, "tol": args.tol,
            "resolution": args.resolution, "k": args.k,
            "init_seed": args.seed if args.seed is not None else 0}


def cmd_approx(args) -> None:
    value_cols = _value_cols(args)
    data = _load_dataset(args.input, args.group_col, value_cols,
                         args.weight_col, args.u_col)
    ap = approx_mod.build(data, method=args.method, **_solver_options(args))
    report = diagnostics.verify(ap, data)
    # every check runs before the first file is written
    out = approx_mod.transform(ap, data, seed=args.seed) if args.samples else None

    config = _common_config(args, [
        "input", "group_col", "weight_col", "u_col", "method", "epsilon",
        "max_iter", "tol", "resolution", "k", "seed",
    ])
    config["value_cols"] = value_cols
    body = {
        "config": config,
        "n_rows": data.n_rows,
        "dimension": data.dim,
        "atoms": [{"label": str(label), "p": p, "size": n} for label, p, n in zip(
            ap.family.labels, ap.family.probabilities.tolist(),
            np.diff(ap.family.starts).tolist())],
        "method": ap.method,
        "nu0": _nu0_payload(ap.nu0),
        "objective": report.objective,
        "lower_bound": report.lower_bound,
        "gap": report.gap,
        "achieved_distance_sq": ap.achieved_distance_sq,
        "mean_x": report.mean_x,
        "mean_y": report.mean_y,
        "per_atom_w2": report.per_atom_w2,
        "independence_tv": report.independence_tv,
        "checks": list(map(dataclasses.asdict, report.checks)),
        "checks_failed": not report.passed,
    }
    if out is not None:
        with open(args.samples, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(
                [args.group_col] + value_cols + ["weight", "u"]
                + [f"y{i + 1}" for i in range(data.dim)]
            )
            _write_samples(fh, out)
    # samples first, removed if the report fails: a failed run leaves no file
    try:
        _write_report(args.report, "approx", body)
    except OSError:
        if out is not None:
            os.remove(args.samples)
        raise


def _csv_cells(values) -> dict:
    """Each distinct value as ``csv.writer`` writes it as a cell of a row
    of several cells (quoted where it holds a comma, quote or newline)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = {}
    for value in dict.fromkeys(values):
        buf.seek(0)
        buf.truncate()
        writer.writerow([value, ""])
        cells[value] = buf.getvalue()[:-len(",\n")]
    return cells


# sample rows are formatted this many at a time
_SAMPLE_BLOCK = 1024


def _fmt_column(values: np.ndarray) -> list:
    """Every float of a column as :func:`_fmt_float` prints it, each
    distinct value formatted once (y holds only nu0's points, and unit
    weights one value).  Values are keyed by their bits, not by ``==``,
    so -0.0 is still printed ``-0``."""
    bits = values.view(np.int64).tolist()
    cells = {b: _fmt_float(v) for b, v in dict(zip(bits, values.tolist())).items()}
    return list(map(cells.__getitem__, bits))


def _write_samples(fh, out: approx_mod.SampledOutput) -> None:
    """The sample rows: group, x, weight, u and y, with floats as
    :func:`_fmt_float` prints them; each block of rows is formatted one
    column at a time."""
    columns = [*out.x.T, out.weights, out.u, *out.y.T]
    cells = _csv_cells(out.groups)
    for s in range(0, out.n_rows, _SAMPLE_BLOCK):
        block = [_fmt_column(c[s:s + _SAMPLE_BLOCK]) for c in columns]
        groups = map(cells.__getitem__, out.groups[s:s + _SAMPLE_BLOCK])
        fh.write("\n".join(map(",".join, zip(groups, *block))) + "\n")


def cmd_binary_case(args) -> None:
    t = _read_csv(args.input, ["atom"], ["p", "f", "g"], optional=["atom"])
    labels = t["atom"] or [str(i) for i in range(len(t["p"]))]
    inst = BinaryInstance(tuple(labels), t["p"], t["f"], t["g"], args.pA)
    half = is_half(args.pA)
    sol = solve_half(inst) if half else solve_nonhalf(inst)
    agrees = None
    if args.verify:
        bf = brute_force(inst)
        agrees = bool(abs(bf.distance_sq - sol.distance_sq) <= 1e-12)

    _write_report(args.report, "binary-case", {
        "config": {"input": args.input, "pA": args.pA, "verify": bool(args.verify)},
        "regime": "half" if half else "nonhalf",
        "alpha": sol.alpha,
        "beta": sol.beta,
        "set_b": sorted(str(l) for l in sol.set_b) if sol.set_b is not None else None,
        "y_on_event": sol.alpha,
        "y_off_event": sol.beta,
        "distance_sq": sol.distance_sq,
        "brute_force_agrees": agrees,
    })


def _two_measures(args) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    value_cols = _value_cols(args)
    t = _read_csv(args.input, [args.measure_col], [args.weight_col, *value_cols])
    ids = np.array(t[args.measure_col])
    distinct = list(dict.fromkeys(ids))
    if len(distinct) != 2:
        raise CsvParseError(
            f"{args.input}: expected exactly 2 measures, found {len(distinct)}"
        )
    x = _points(t, value_cols)
    return tuple(make_measure(x[ids == mid], t[args.weight_col][ids == mid])
                 for mid in distinct)


def cmd_ot(args) -> None:
    mu, nu = _two_measures(args)
    if args.method == "entropic":
        sol = solve_entropic(mu, nu, args.epsilon, args.max_iter, args.tol)
    elif args.method == "comonotone1d":
        sol = solve_comonotone_1d(mu, nu)
    else:
        sol = solve_exact(mu, nu)
    _write_report(args.report, "ot", {
        "config": _common_config(args, [
            "input", "measure_col", "weight_col", "value_cols", "method",
            "epsilon", "max_iter", "tol",
        ]),
        "method": sol.method,
        "cost": sol.cost,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "coupling": {
            "row_support": sol.coupling.row_measure.support,
            "row_weights": sol.coupling.row_measure.weights,
            "col_support": sol.coupling.col_measure.support,
            "col_weights": sol.coupling.col_measure.weights,
            "weights": sol.coupling.weights,
        },
    })


def cmd_barycenter(args) -> None:
    value_cols = _value_cols(args)
    data = _load_dataset(args.input, args.measure_col, value_cols,
                         args.weight_col, None)
    fam = approx_mod.estimate_conditionals(data)
    support = (_points(_read_csv(args.support, numeric=value_cols), value_cols)
               if args.support else None)
    res = solve_barycenter(fam, args.method, support=support, **_solver_options(args))
    *_, w2 = approx_mod._coupled_arcs(fam, res, res.nu0, np.zeros(fam.dim))
    _write_report(args.report, "barycenter", {
        "config": _common_config(args, [
            "input", "measure_col", "weight_col", "value_cols", "method",
            "epsilon", "max_iter", "tol", "resolution", "k", "seed", "support",
        ]),
        "method": res.method,
        "objective": _total(fam.probabilities, w2),
        "per_measure_w2": dict(zip(fam.labels, w2.tolist())),
        "iterations": res.iterations,
        "converged": res.converged,
        "nu0": _nu0_payload(res.nu0),
    })


def cmd_diagnose(args) -> None:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            ref = json.load(fh)
        support = np.asarray(ref["nu0"]["support"], dtype=float)
        weights = np.asarray(ref["nu0"]["weights"], dtype=float)
        group_col = ref["config"]["group_col"]
        value_cols = list(ref["config"]["value_cols"])
        reference = ref.get("achieved_distance_sq")
        if reference is not None:
            reference = float(reference)
    except (ValueError, KeyError, TypeError) as exc:
        raise CsvParseError(f"{args.report}: not a valid approx report "
                            f"({type(exc).__name__}: {exc})") from None
    nu0 = DiscreteMeasure(support, weights)

    y_cols = [f"y{i + 1}" for i in range(len(value_cols))]
    t = _read_csv(args.samples, [group_col], ["weight", "u", *value_cols, *y_cols])
    # Dataset checks x, u and the weights and normalizes the weights
    rows = Dataset(tuple(t[group_col]), _points(t, value_cols), t["weight"], t["u"])
    out = approx_mod.SampledOutput(
        groups=rows.groups,
        x=rows.x,
        u=rows.u,
        y=_finite("y", _points(t, y_cols)),
        weights=rows.weights,
    )
    emp = diagnostics.empirical_distance(out)
    tv = diagnostics.independence_tv(out, nu0)
    _write_report(args.out, "diagnose", {
        "config": {"samples": args.samples, "report": args.report},
        "empirical_distance": emp,
        "independence_tv": dict(sorted(tv.items())),
        "reference_objective": reference,
        "abs_error_vs_reference": (
            abs(emp - reference) if reference is not None else None
        ),
    })


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otrepair",
        description="Best independent approximation of grouped data "
                    "via Wasserstein-2 barycenters.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_solver_flags(p, resolution=True):
        p.add_argument("--epsilon", type=float, default=0.01)
        p.add_argument("--max-iter", type=int, default=1000)
        p.add_argument("--tol", type=float, default=1e-9)
        if resolution:
            p.add_argument("--resolution", type=int, default=None,
                           help="quantile grid size (default: exact breakpoints)")
            p.add_argument("--k", type=int, default=None,
                           help="free-support point count")
            p.add_argument("--seed", type=int, default=None,
                           help="64-bit seed for sampling / initialization")

    p = sub.add_parser("approx", help="run the full repair pipeline on a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--group-col", default="group")
    p.add_argument("--value-cols", default="x",
                   help="comma-separated coordinate columns, order fixed")
    p.add_argument("--weight-col", default=None)
    p.add_argument("--u-col", default=None)
    p.add_argument("--method", default="auto", choices=METHODS)
    add_solver_flags(p)
    p.add_argument("--report", required=True, help="output JSON path")
    p.add_argument("--samples", default=None, help="optional output CSV path")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("binary-case",
                       help="closed forms for one independent binary event")
    p.add_argument("--input", required=True,
                   help="CSV with columns p,f,g and optional atom")
    p.add_argument("--pA", type=float, required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against brute force")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_binary_case)

    p = sub.add_parser("ot", help="couple two measures from one CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--measure-col", default="measure")
    p.add_argument("--weight-col", default="weight")
    p.add_argument("--value-cols", default="x")
    p.add_argument("--method", default="exact",
                   choices=["exact", "entropic", "comonotone1d"])
    add_solver_flags(p, resolution=False)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_ot)

    p = sub.add_parser("barycenter", help="barycenter of measures from one CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--measure-col", default="measure")
    p.add_argument("--weight-col", default="weight")
    p.add_argument("--value-cols", default="x")
    p.add_argument("--method", default="auto", choices=METHODS)
    p.add_argument("--support", default=None,
                   help="CSV of grid points (same value columns); "
                        "default: union of the measures' supports")
    add_solver_flags(p)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("diagnose", help="verify a samples CSV against its report")
    p.add_argument("--samples", required=True)
    p.add_argument("--report", required=True, help="approx report JSON")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (OtRepairError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code if isinstance(e, OtRepairError) else EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())

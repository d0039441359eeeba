"""The three workloads: seeded inputs and one operation per instance.

Instance shapes are fixed per workload and the seed draws only the
values, so every seed asks for the same amount of work.  Group means sit
on a fixed pattern; the seed draws the normal noise and the weights.

- ``quantile-1d``: the library pipeline on 1-D data, the exact 1-D route.
- ``grid-lp``: the library pipeline on m = 2 instances and one m = 3
  instance with the default method, the only route through the joint LP.
- ``cli-many-groups``: ``otrepair approx`` in-process on a 1-D CSV of
  2,000 small groups, plus one call per cycle on a CSV with a ``nan`` cell.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import otrepair
import otrepair.cli
from reference import Instance, Outcome

# (m, groups, rows per group) of each instance, in cycle order
QUANTILE_1D = [(1, 4, 50), (1, 5, 40), (1, 6, 33), (1, 7, 30)]
GRID_LP = [(2, 4, 50), (2, 5, 40), (2, 8, 25), (3, 5, 40)]
CLI_GROUPS = 2000
CLI_GROUP_SIZES = (4, 5, 8)
# seven mean levels keep nu0 at about a dozen support points
CLI_MEAN_LEVELS = 7
# the documented exit code for a schema or parse error
EXIT_SCHEMA = 3
NAN_CSV = "group,x\na,0.0\na,nan\nb,1.0\nb,2.0\n"


@dataclass
class Operation:
    """One timed call on one instance; ``run`` returns what ``settle`` reads.

    ``expect_fail`` marks the kept call that fails today; it is not part of
    the repair timings and has no instance to check.
    """

    instance: Instance | None
    run: Callable[[], object]
    expect_fail: bool = False


def _group_means(groups: int, m: int) -> np.ndarray:
    """One noise s.d. apart on a line (m = 1), or on a circle (m >= 2).

    Fixed means make the between-group variance, most of ``distance_sq``,
    the same for every seed; the seed moves it only through the noise.
    """
    if m == 1:
        return (np.arange(groups) - (groups - 1) / 2.0)[:, None]
    angle = 2.0 * np.pi * np.arange(groups) / groups
    means = np.zeros((groups, m))
    means[:, 0], means[:, 1] = 1.5 * np.cos(angle), 1.5 * np.sin(angle)
    if m > 2:
        means[:, 2] = (-1.0) ** np.arange(groups)
    return means


def _instance(name, rng, means, sizes, unit_weights=False) -> Instance:
    width = len(str(len(sizes) - 1))
    groups = np.repeat([f"g{a:0{width}d}" for a in range(len(sizes))], sizes)
    x = np.repeat(means, sizes, axis=0) + rng.normal(size=(sum(sizes), means.shape[1]))
    w = np.ones(len(x)) if unit_weights else rng.random(len(x)) + 0.05
    return Instance(name, groups, x, w)


class LibraryWorkload:
    """A repair is ``build`` + ``verify`` + ``transform(seed=...)`` on one dataset."""

    def __init__(self, shapes, seed: int):
        rng = np.random.default_rng(seed)
        instances = [_instance(f"{m}d-{g}x{n}", rng, _group_means(g, m), [n] * g)
                     for m, g, n in shapes]
        self.ops = [self._op(inst, seed * 1000 + i) for i, inst in enumerate(instances)]

    @staticmethod
    def _op(inst: Instance, sample_seed: int) -> Operation:
        data = otrepair.Dataset(tuple(inst.groups.tolist()), inst.x, inst.w)

        def run() -> Outcome:
            ap = otrepair.build(data)
            report = otrepair.verify(ap, data)
            out = otrepair.transform(ap, data, seed=sample_seed)
            return Outcome(ap.achieved_distance_sq, ap.nu0.support, ap.nu0.weights,
                           out.y, out.groups, report.passed)

        return Operation(inst, run)

    def settle(self, op: Operation, result: Outcome):
        """(failed, digest of the output), read outside the timed call."""
        return False, result.digest()

    def outcome(self, op: Operation, result: Outcome) -> Outcome:
        return result

    def close(self) -> None:
        pass


class CliWorkload:
    """``otrepair approx`` with ``--report``, ``--samples`` and ``--seed``."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        sizes = [CLI_GROUP_SIZES[g % len(CLI_GROUP_SIZES)] for g in range(CLI_GROUPS)]
        means = 0.5 * (np.arange(CLI_GROUPS) % CLI_MEAN_LEVELS - CLI_MEAN_LEVELS // 2)
        inst = _instance(f"1d-{CLI_GROUPS}groups", rng, means[:, None], sizes,
                         unit_weights=True)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        data = workdir / "input.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            fh.write("group,x\n")
            fh.writelines(f"{g},{float(v)!r}\n" for g, v in zip(inst.groups, inst.x[:, 0]))
        (workdir / "nan.csv").write_text(NAN_CSV, encoding="utf-8")
        self.report = workdir / "report.json"
        self.samples = workdir / "samples.csv"
        argv = ["approx", "--input", str(data), "--group-col", "group",
                "--value-cols", "x", "--report", str(self.report),
                "--samples", str(self.samples), "--seed", str(seed)]
        nan_argv = ["approx", "--input", str(workdir / "nan.csv"),
                    "--report", str(workdir / "nan-report.json"),
                    "--samples", str(workdir / "nan-samples.csv"), "--seed", str(seed)]
        self.stderr = io.StringIO()
        self.ops = [
            Operation(inst, lambda: self._call(argv)),
            Operation(None, lambda: self._call(nan_argv), expect_fail=True),
        ]

    def _call(self, argv) -> int:
        with contextlib.redirect_stderr(self.stderr):
            return otrepair.cli.main(argv)

    def settle(self, op: Operation, code: int):
        """(failed, digest of the output), read outside the timed call."""
        if op.expect_fail:
            return code != EXIT_SCHEMA, None
        if code != 0:
            return True, None
        body = self.report.read_bytes() + b"\0" + self.samples.read_bytes()
        return False, hashlib.sha256(body).digest()

    def outcome(self, op: Operation, code: int) -> Outcome:
        """The last report and samples written, parsed."""
        with open(self.report, encoding="utf-8") as fh:
            rep = json.load(fh)
        with open(self.samples, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return Outcome(
            float(rep["achieved_distance_sq"]),
            np.asarray(rep["nu0"]["support"], dtype=float),
            np.asarray(rep["nu0"]["weights"], dtype=float),
            np.array([float(r[4]) for r in rows])[:, None],
            tuple(r[0] for r in rows),
            rep["checks_failed"] is False,
        )

    def close(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


def make(name: str, seed: int, workdir: Path):
    if name == "quantile-1d":
        return LibraryWorkload(QUANTILE_1D, seed)
    if name == "grid-lp":
        return LibraryWorkload(GRID_LP, seed)
    if name == "cli-many-groups":
        return CliWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")

"""Repair benchmark for otrepair: one workload per run, closed loop.

    python3 bench/run.py --workload quantile-1d --seed 1 --seconds 20 --trace 0

Runs from a checkout of the repository and imports the package from
``src/``.  One repair at a time: whole cycles over the workload's
instances until ``--seconds`` have passed, each call timed on its own.
Every output is then checked against references computed apart from the
program (see reference.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half traced, reports the per-layer metrics (per
cycle) and the tracing overhead, and writes the spans to
``.bench_out/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up time is the median of this many imports, each in a fresh process
IMPORT_SAMPLES = 5
IMPORT_CODE = ("import time; t = time.perf_counter(); import otrepair, otrepair.cli; "
               "print(repr(time.perf_counter() - t))")
WORKLOADS = ["quantile-1d", "grid-lp", "cli-many-groups"]


def fresh_import_s() -> float:
    """Import time of otrepair and otrepair.cli in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@dataclass
class Loop:
    """What a closed loop over whole cycles saw."""

    times: list = field(default_factory=list)   # seconds per timed repair
    rows: int = 0                                # input rows over timed repairs
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    last: dict = field(default_factory=dict)     # op index -> last result
    problems: list = field(default_factory=list)


def run_loop(wl, seconds: float, digests: dict, tracer=None) -> Loop:
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while loop.cycles == 0 or time.perf_counter() < deadline:
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.operation = loop.attempted
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # a failed repair is counted and the run goes on
                result = None
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            loop.attempted += 1
            if result is None:
                loop.failed += 1
                if not op.expect_fail:
                    loop.problems.append(f"op {i} raised:\n{error}")
                continue
            failed, digest = wl.settle(op, result)
            loop.failed += failed
            if op.expect_fail:
                continue
            if failed:
                loop.problems.append(f"op {i} ({op.instance.name}) failed")
                continue
            loop.times.append(elapsed)
            loop.rows += op.instance.n_rows
            loop.last[i] = result
            if digests.setdefault(i, digest) != digest:
                loop.problems.append(f"op {i} ({op.instance.name}) output changed on a repeat")
        loop.cycles += 1
    return loop


def check_outputs(wl, loop: Loop, reference):
    """Reference checks on every instance, then the checks' own self-test.

    Returns (problems, outcomes checked).
    """
    problems, outcomes = [], []
    checked = None
    for i, result in sorted(loop.last.items()):
        op = wl.ops[i]
        out = wl.outcome(op, result)
        ref = reference.references(op.instance, out)
        problems += [f"{op.instance.name}: {msg}"
                     for msg in reference.check(op.instance, out, ref)]
        outcomes.append(out)
        checked = (op.instance, out, ref)
    if checked is None:
        return problems + ["no output to check"], outcomes
    missed = reference.self_test(*checked)
    problems += [f"self-test: the checks accepted a {name}" for name in missed]
    return problems, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "otrepair" / "__init__.py").is_file():
        print(f"error: no otrepair sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import otrepair  # noqa: F401
    import otrepair.cli  # noqa: F401
    setup = [time.perf_counter() - start]
    setup += [fresh_import_s() for _ in range(IMPORT_SAMPLES - 1)]

    import reference
    import tracing
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, workdir)
    try:
        digests: dict = {}
        if args.trace:
            plain = run_loop(wl, args.seconds / 2, digests)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_loop(wl, args.seconds / 2, digests, tracer)
            finally:
                tracer.uninstall()
            loops = [plain, traced]
        else:
            rss0 = rss_bytes()
            plain = run_loop(wl, args.seconds, digests)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - rss0
            loops = [plain]
        problems = [p for loop in loops for p in loop.problems]
        found, outcomes = check_outputs(wl, loops[-1], reference)
        problems += found
    finally:
        wl.close()

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = tracer.layer_metrics(traced.cycles)
        untraced_s = statistics.median(plain.times)
        traced_s = statistics.median(traced.times)
        metrics["trace.untraced_repair_s"] = {"value": untraced_s, "unit": "s"}
        metrics["trace.traced_repair_s"] = {"value": traced_s, "unit": "s"}
        print(f"tracing overhead on {args.workload}: repair_s {traced_s:.4f} s traced "
              f"vs {untraced_s:.4f} s untraced ({traced_s / untraced_s - 1:+.1%})")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "repair_s": {"value": statistics.median(plain.times), "unit": "s"},
            "rows_per_s": {"value": plain.rows / sum(plain.times), "unit": "rows/s"},
            "peak_mib": {"value": peak / 2**20, "unit": "MiB"},
            "distance_sq": {"value": sum(out.achieved for out in outcomes),
                            "unit": "x_sq"},
        }
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:16s} {'attempted / failed':42s} {attempted:>10d} / {failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Every tolerance is pinned here, not configurable.
"""
import json
import time

import numpy as np
import pytest

from otrepair.approx import build, decompose_solve, lower_bound, transform, transform_grid
from otrepair.barycenter import default_support, solve_barycenter
from otrepair.cli import main
from otrepair.diagnostics import independence_tv
from otrepair.measure import dataset_from_rows, make_measure
from otrepair.ot import cost_matrix, solve_comonotone_1d, solve_entropic, solve_exact
from otrepair.special_binary import (
    BinaryInstance,
    brute_force,
    compare_unconstrained,
    solve_half,
    solve_nonhalf,
)

from conftest import simplex_objective


def _random_dataset(rng, m, n_atoms_lo=2, n_atoms_hi=6, pts_lo=1, pts_hi=30):
    n_atoms = int(rng.integers(n_atoms_lo, n_atoms_hi + 1))
    rows = []
    for a in range(n_atoms):
        n = int(rng.integers(pts_lo, pts_hi + 1))
        for _ in range(n):
            rows.append((f"g{a}", rng.normal(size=m), float(rng.random()) + 0.05))
    return dataset_from_rows(rows)


@pytest.fixture(scope="module")
def criterion1_set():
    """200 randomized instances, built once; shared by criteria 1, 2, 4, 8."""
    rng = np.random.default_rng(1729)
    datasets = [_random_dataset(rng, (1, 2, 3)[i % 3]) for i in range(200)]
    start = time.monotonic()
    approxes = [build(d) for d in datasets]
    elapsed = time.monotonic() - start
    return datasets, approxes, elapsed


def test_criterion_1_bound_attainment(criterion1_set):
    datasets, approxes, elapsed = criterion1_set
    worst = 0.0
    for d, ap in zip(datasets, approxes):
        refs = [lower_bound(ap.family, ap.nu0)]
        if d.dim == 1:
            # a route independent of the comonotone couplings: simplex solves
            refs.append(simplex_objective(ap.family, ap.nu0))
        for ref in refs:
            rel = abs(ap.achieved_distance_sq - ref) / max(1.0, abs(ref))
            worst = max(worst, rel)
            assert rel <= 1e-8
    assert elapsed < 60.0, f"200 builds took {elapsed:.1f}s (target < 60s)"
    print(f"\nACCEPTANCE 1 (bound attainment): PASS "
          f"worst rel gap {worst:.2e}, 200 builds in {elapsed:.1f}s")


def test_criterion_2_mean_matching(criterion1_set):
    _, approxes, _ = criterion1_set
    worst = 0.0
    for ap in approxes:
        dev = float(np.max(np.abs(ap.mean_y - ap.mean_x)))
        worst = max(worst, dev)
        assert dev <= 1e-8
    print(f"\nACCEPTANCE 2 (mean matching): PASS worst deviation {worst:.2e}")


def test_criterion_3_measurable_collapse():
    rng = np.random.default_rng(33)
    worst = 0.0
    for i in range(50):
        m = (1, 2, 3)[i % 3]
        n_atoms = int(rng.integers(2, 7))
        rows = [(f"g{a}", rng.normal(size=m), float(rng.random()) + 0.05)
                for a in range(n_atoms)]
        d = dataset_from_rows(rows)
        ap = build(d)
        out = transform(ap, d, seed=i)
        ex = d.mean_x()
        assert np.all(out.y == out.y[0]), "Y must be constant"
        assert np.max(np.abs(out.y[0] - ex)) <= 1e-12
        expected = float(
            sum(w * np.sum((x - ex) ** 2) for x, w in zip(d.x, d.weights))
        )
        err = abs(ap.achieved_distance_sq - expected)
        worst = max(worst, err)
        assert err <= 1e-10
    print(f"\nACCEPTANCE 3 (measurable collapse): PASS worst error {worst:.2e}")


def test_criterion_4_decomposition_consistency(criterion1_set):
    datasets, approxes, _ = criterion1_set
    worst = 0.0
    for d, ap in zip(datasets, approxes):
        dec = decompose_solve(d)
        diff = abs(dec.achieved_distance_sq - ap.achieved_distance_sq)
        worst = max(worst, diff)
        assert diff <= 1e-8
    print(f"\nACCEPTANCE 4 (decomposition consistency): PASS worst diff {worst:.2e}")


def test_criterion_5_ot_correctness():
    rng = np.random.default_rng(55)
    worst_1d = 0.0
    for _ in range(200):
        n, k = rng.integers(1, 51, 2)
        mu = make_measure(rng.normal(size=int(n)), rng.random(int(n)) + 0.05)
        nu = make_measure(rng.normal(size=int(k)), rng.random(int(k)) + 0.05)
        ex = solve_exact(mu, nu)
        co = solve_comonotone_1d(mu, nu)
        diff = abs(ex.cost - co.cost)
        worst_1d = max(worst_1d, diff)
        assert diff <= 1e-10 * max(1.0, co.cost)
        C = cost_matrix(mu.support, nu.support)
        for sol, a, b in ((ex, mu, nu), (co, mu, nu)):
            g = sol.coupling.weights
            assert np.max(np.abs(g.sum(axis=1) - a.weights)) <= 1e-8
            assert np.max(np.abs(g.sum(axis=0) - b.weights)) <= 1e-8
            # the potentials are a dual certificate: feasible, zero gap
            u, v = sol.potentials
            assert np.min(C - u[:, None] - v[None, :]) >= -1e-9 * max(1.0, C.max())
            assert abs(a.weights @ u + b.weights @ v - sol.cost) <= 1e-10
    worst_ent = 0.0
    for i in range(20):
        m = (1, 2)[i % 2]
        n, k = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        mu = make_measure(rng.random((n, m)), rng.random(n) + 0.05)
        nu = make_measure(rng.random((k, m)), rng.random(k) + 0.05)
        ex = solve_exact(mu, nu)
        en = solve_entropic(mu, nu, epsilon=0.01, max_iter=20000, tol=1e-10)
        gap = abs(en.cost - ex.cost)
        worst_ent = max(worst_ent, gap)
        assert gap <= 5e-3
        g = en.coupling.weights
        assert np.max(np.abs(g.sum(axis=1) - mu.weights)) <= 1e-8
        assert np.max(np.abs(g.sum(axis=0) - nu.weights)) <= 1e-8
    print(f"\nACCEPTANCE 5 (OT correctness): PASS worst 1-D diff {worst_1d:.2e}, "
          f"worst entropic gap {worst_ent:.2e}")


def test_criterion_6_barycenter_optimality():
    from otrepair.measure import family

    rng = np.random.default_rng(66)
    for m in (1, 2, 2):
        n_atoms = int(rng.integers(2, 4))
        p = rng.random(n_atoms) + 0.2
        p /= p.sum()
        atoms = []
        for a in range(n_atoms):
            n = int(rng.integers(2, 5))
            atoms.append((f"g{a}", p[a],
                          make_measure(rng.normal(size=(n, m)),
                                       rng.random(n) + 0.1)))
        fam = family(atoms)
        sup = default_support(fam)
        obj = lower_bound(fam, solve_barycenter(fam, "exact", support=sup).nu0)
        for _ in range(1000):
            w = rng.dirichlet(np.ones(len(sup)))
            cand = make_measure(sup, w + 1e-15)
            assert obj <= simplex_objective(fam, cand) + 1e-8
    # 1-D quantile closed form vs LP, grid-aligned weights
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        n_atoms = int(rng.integers(2, 4))
        p = rng.random(n_atoms) + 0.2
        p /= p.sum()
        fam = family([
            (f"g{a}", p[a], make_measure(rng.normal(size=n), np.ones(n)))
            for a in range(n_atoms)
        ])
        res = solve_barycenter(fam, "quantile1d", resolution=n)
        lp = solve_barycenter(fam, "exact", support=res.nu0.support)
        diff = abs(lower_bound(fam, res.nu0) - lower_bound(fam, lp.nu0))
        worst = max(worst, diff)
        assert diff <= 1e-8
    print(f"\nACCEPTANCE 6 (barycenter optimality): PASS "
          f"1000-candidate sweeps clean, worst quantile-vs-LP diff {worst:.2e}")


def test_criterion_7_binary_closed_form():
    rng = np.random.default_rng(77)
    # the specific instance
    inst = BinaryInstance(("a", "b"), [0.5, 0.5], [4.0, 0.0], [2.0, 2.0], 0.5)
    sol = solve_half(inst)
    assert (sol.alpha, sol.beta, sol.distance_sq) == (3.0, 1.0, 1.0)
    # 100 random instances, <= 10 atoms
    instances = []
    for t in range(100):
        n = int(rng.integers(2, 11))
        p = rng.random(n) + 0.05
        p /= p.sum()
        p_a = 0.5 if t % 2 == 0 else float(rng.choice([0.2, 0.3, 0.4, 0.75]))
        instances.append(BinaryInstance(
            tuple(f"b{i}" for i in range(n)), p,
            rng.random(n) * 4.0, rng.random(n) * 4.0, p_a,
        ))
    for inst in instances:
        if inst.p_a == 0.5:
            a, b = solve_half(inst), brute_force(inst)
            assert abs(a.distance_sq - b.distance_sq) <= 1e-12
            for lab in a.set_b ^ b.set_b:
                i = inst.labels.index(lab)
                assert inst.f[i] == inst.g[i], "B may differ only on ties"
        else:
            a, b = solve_nonhalf(inst), brute_force(inst)
            assert abs(a.distance_sq - b.distance_sq) <= 1e-9
    for inst in instances:
        con, unc = compare_unconstrained(inst)
        assert unc <= con + 1e-10
    print("\nACCEPTANCE 7 (binary closed form): PASS "
          "100 instances vs brute force, unconstrained <= constrained")


def test_criterion_8_independence_by_construction(criterion1_set):
    _, approxes, _ = criterion1_set
    worst = 0.0
    for ap in approxes:
        for a in ap.family.atoms:
            dis = ap.disintegrations[a.label]
            recon = a.law.weights @ dis.conditional
            tv = 0.5 * float(np.abs(recon - ap.nu0.weights).sum())
            worst = max(worst, tv)
            assert tv <= 1e-8
    # u-grid sampling on small-support instances
    rng = np.random.default_rng(88)
    worst_grid = {}
    for _ in range(5):
        rows = []
        for a in range(int(rng.integers(2, 4))):
            for _ in range(int(rng.integers(2, 7))):
                rows.append((f"g{a}", float(rng.random()),
                             float(rng.random()) + 0.1))
        d = dataset_from_rows(rows)
        ap = build(d)
        for res in (100, 1000, 10000):
            out = transform_grid(ap, d, res)
            tv = independence_tv(out, ap.nu0)
            for v in tv.values():
                worst_grid[res] = max(worst_grid.get(res, 0.0), v)
                assert v <= 10.0 / res
    print(f"\nACCEPTANCE 8 (independence): PASS disintegration TV {worst:.2e}, "
          f"grid TV {({r: f'{v:.2e}' for r, v in sorted(worst_grid.items())})}")


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(99)
    lines = ["group,x1,x2"]
    for a in range(3):
        for _ in range(6):
            x = rng.normal(size=2)
            lines.append(f"g{a},{float(x[0])!r},{float(x[1])!r}")
    inp = tmp_path / "d.csv"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    blobs = []
    for tag in ("1", "2"):
        rep = tmp_path / f"r{tag}.json"
        smp = tmp_path / f"s{tag}.csv"
        code = main(["approx", "--input", str(inp), "--value-cols", "x1,x2",
                     "--report", str(rep), "--samples", str(smp),
                     "--seed", "424242"])
        assert code == 0
        blobs.append((rep.read_bytes(), smp.read_bytes()))
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0][0])
    assert report["schema"] == 1 and not report["checks_failed"]
    print("\nACCEPTANCE 9 (CLI determinism): PASS byte-identical reports and samples")

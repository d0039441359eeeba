import dataclasses
import itertools

import numpy as np
import pytest

from otrepair.approx import (
    SampledOutput,
    build,
    transform,
    transform_grid,
)
from otrepair.diagnostics import (
    empirical_distance,
    independence_tv,
    verify,
)
from otrepair.errors import DatasetMismatchError, UnknownSupportPointError
from otrepair.measure import dataset_from_rows, make_measure
from otrepair.ot import cost_matrix

from conftest import random_dataset, with_conditional


def hand_dataset():
    return dataset_from_rows(
        [("g1", 0.0, 1.0), ("g1", 2.0, 1.0), ("g2", 1.0, 1.0), ("g2", 3.0, 1.0)]
    )


# --- verify -----------------------------------------------------------------

def test_verify_independent_instance_all_pass():
    d = dataset_from_rows(
        [("a", 0.0, 1.0), ("a", 2.0, 1.0), ("b", 0.0, 2.0), ("b", 2.0, 2.0)]
    )
    ap = build(d)
    rep = verify(ap, d)
    assert rep.passed
    assert abs(rep.gap) <= 1e-12
    assert all(v <= 1e-12 for v in rep.independence_tv.values())


def test_verify_measurable_instance():
    d = dataset_from_rows([("a", 0.0, 1.0), ("b", 2.0, 1.0), ("c", 5.0, 2.0)])
    ap = build(d)
    rep = verify(ap, d)
    ex = d.mean_x()[0]
    expected = 0.25 * (0 - ex) ** 2 + 0.25 * (2 - ex) ** 2 + 0.5 * (5 - ex) ** 2
    assert abs(rep.objective - expected) <= 1e-10
    assert rep.passed


def test_verify_hand_instance():
    d = hand_dataset()
    ap = build(d)
    rep = verify(ap, d)
    assert abs(rep.objective - 0.25) <= 1e-12
    assert abs(rep.gap) <= 1e-8
    assert rep.passed


def test_verify_reports_failures_without_raising():
    d = hand_dataset()
    ap = build(d)
    # tamper: a wrong lower bound must flip a check, not raise
    bad = dataclasses.replace(ap, achieved_distance_sq=ap.achieved_distance_sq + 1.0)
    rep = verify(bad, d)
    assert not rep.passed
    names = {c.name: c for c in rep.checks}
    assert not names["bound_attainment"].passed
    assert names["mean_matching"].passed


def test_verify_dataset_mismatch():
    d = hand_dataset()
    ap = build(d)
    other = dataset_from_rows([("g1", 0.5, 1.0), ("g2", 1.0, 1.0)])
    with pytest.raises(DatasetMismatchError):
        verify(ap, other)


def test_verify_random_instances(rng):
    for m in (1, 2):
        for _ in range(4):
            d = random_dataset(rng, m=m)
            rep = verify(build(d), d)
            assert rep.passed, [c for c in rep.checks if not c.passed]
            assert abs(rep.gap) <= 1e-8 * max(1.0, rep.objective)


def _perturbed(ap):
    """``ap`` with mass moved between two rows of one atom's conditional.

    Of all swaps between two positive cells (i, j), (k, l) of one coupling
    (mass t leaves them for (i, l) and (k, j)), takes the one that raises
    the cost most.  Both marginals stay as they were and the potentials
    are kept, so only the duality gap can notice.  Returns the tampered
    approximation and the cost rise.
    """
    best = None
    for a in ap.family.atoms:
        g = a.law.weights[:, None] * ap.conditional(a.label)
        C = cost_matrix(a.law.support, ap.nu0.support)
        cells = list(zip(*np.nonzero(g > 1e-9)))
        for (i, j), (k, l) in itertools.combinations(cells, 2):
            if i != k and j != l:
                t = min(g[i, j], g[k, l])
                rise = a.p * t * (C[i, l] + C[k, j] - C[i, j] - C[k, l])
                if best is None or rise > best[0]:
                    best = (rise, a, g, (i, j, k, l), t)
    rise, a, g, (i, j, k, l), t = best
    g = g.copy()
    g[i, j] -= t
    g[k, l] -= t
    g[i, l] += t
    g[k, j] += t
    tampered = with_conditional(ap, a.label, g / a.law.weights[:, None])
    achieved = 0.0
    for b in ap.family.atoms:
        C = cost_matrix(b.law.support, ap.nu0.support)
        cond = tampered.conditional(b.label)
        achieved += b.p * float(np.einsum("i,ij,ij->", b.law.weights, cond, C))
    bad = dataclasses.replace(tampered, achieved_distance_sq=achieved)
    return bad, rise


@pytest.mark.parametrize("m", [1, 2])
def test_verify_fails_on_perturbed_coupling(rng, m):
    d = random_dataset(rng, n_atoms=3, max_rows=6, m=m)
    while min(len(d.group_rows(g)) for g in d.labels) < 2:
        d = random_dataset(rng, n_atoms=3, max_rows=6, m=m)
    ap = build(d)
    assert verify(ap, d).passed
    bad, rise = _perturbed(ap)
    assert rise > 1e-6
    assert abs(bad.achieved_distance_sq - ap.achieved_distance_sq - rise) <= 1e-12
    checks = {c.name: c for c in verify(bad, d).checks}
    assert not checks["bound_attainment"].passed
    assert checks["bound_attainment"].value >= rise - 1e-12
    # the column marginals are intact: only the certificate fails
    assert checks["reconstruction"].passed
    assert checks["independence_tv"].passed


@pytest.mark.parametrize("x", [1.5e4, 1e6])
def test_verify_certifies_an_exact_result_far_from_zero(rng, x):
    # one group, so the objective is 0, but the potentials reach x^2 and
    # their sums round by about 1e-16 x^2: above 1e-8 for these x
    d = dataset_from_rows([("a", 0.0, 1.0), ("a", -x, 2.0)])
    ap = build(d)
    report = verify(ap, d)
    assert report.passed
    assert report.checks[0].tolerance <= 1e-12 * x * x
    # at that scale a perturbed coupling still fails the certificate
    d = dataset_from_rows([(f"g{g}", float(v), 1.0) for g in range(3)
                           for v in x * rng.normal(size=3)])
    bad, rise = _perturbed(build(d))
    checks = {c.name: c for c in verify(bad, d).checks}
    assert rise > 1e6 * checks["bound_attainment"].tolerance
    assert not checks["bound_attainment"].passed


# --- empirical_distance -------------------------------------------------------

def test_empirical_distance_zero_when_equal():
    out = SampledOutput(
        groups=("a", "a"),
        x=np.array([[0.0], [1.0]]),
        u=np.array([0.5, 0.5]),
        y=np.array([[0.0], [1.0]]),
        weights=np.array([0.5, 0.5]),
    )
    assert empirical_distance(out) == 0.0


def test_empirical_distance_single_row():
    out = SampledOutput(
        groups=("a",),
        x=np.array([[0.0]]),
        u=np.array([0.5]),
        y=np.array([[1.0]]),
        weights=np.array([1.0]),
    )
    assert empirical_distance(out) == 1.0


def test_empirical_distance_grid_converges(rng):
    # weights not grid-aligned: rows are genuinely split across nu0's
    # support, so the grid error is O(1/R) rather than float noise
    rows = []
    for g, size in (("a", 3), ("b", 4), ("c", 2)):
        for _ in range(size):
            rows.append((g, float(rng.random()), float(rng.random()) + 0.1))
    d = dataset_from_rows(rows)
    ap = build(d)
    errors = []
    for res in (100, 1000, 10000):
        out = transform_grid(ap, d, res)
        errors.append(abs(empirical_distance(out) - ap.achieved_distance_sq))
    assert errors[0] >= errors[1] - 1e-12
    assert errors[1] >= errors[2] - 1e-12
    for res, err in zip((100, 1000, 10000), errors):
        assert err <= 10.0 / res


def test_empirical_distance_grid_exact_on_hand_instance():
    # permutation couplings: the grid evaluation is exact at any R
    d = hand_dataset()
    ap = build(d)
    for res in (100, 1000):
        out = transform_grid(ap, d, res)
        assert abs(empirical_distance(out) - 0.25) <= 1e-12


# --- independence_tv ------------------------------------------------------------

def test_independence_tv_grid_bound():
    d = hand_dataset()
    ap = build(d)
    for res in (100, 1000):
        out = transform_grid(ap, d, res)
        tv = independence_tv(out, ap.nu0)
        assert set(tv) == {"g1", "g2"}
        assert all(v <= 1.0 / res + 1e-12 for v in tv.values())


def test_independence_tv_single_atom_exact_grid():
    d = dataset_from_rows([("a", 0.0, 1.0), ("a", 2.0, 1.0)])
    ap = build(d)
    out = transform_grid(ap, d, 2)
    tv = independence_tv(out, ap.nu0)
    assert tv["a"] <= 1e-12


def test_independence_tv_constant_output():
    d = hand_dataset()
    ap = build(d)
    # constant y at the first support point: TV = TV(delta, nu0)
    n = d.n_rows
    out = SampledOutput(
        groups=d.groups,
        x=d.x,
        u=np.full(n, 0.5),
        y=np.repeat(ap.nu0.support[:1], n, axis=0),
        weights=d.weights,
    )
    tv = independence_tv(out, ap.nu0)
    expected = 0.5 * (abs(1.0 - ap.nu0.weights[0]) + ap.nu0.weights[1:].sum())
    for v in tv.values():
        assert abs(v - expected) <= 1e-12


def test_independence_tv_unknown_point():
    d = hand_dataset()
    ap = build(d)
    out = transform(ap, d, seed=0)
    bad = SampledOutput(
        groups=out.groups,
        x=out.x,
        u=out.u,
        y=out.y + 1e-9,
        weights=out.weights,
    )
    with pytest.raises(UnknownSupportPointError):
        independence_tv(bad, ap.nu0)


def test_independence_tv_handles_duplicate_support():
    # nu0 written with duplicates: TV compares laws, not raw indices
    nu0 = make_measure([1.0, 1.0, 3.0], [1.0, 1.0, 2.0])
    out = SampledOutput(
        groups=("a", "a"),
        x=np.array([[0.0], [0.0]]),
        u=np.array([0.1, 0.9]),
        y=np.array([[1.0], [3.0]]),
        weights=np.array([0.5, 0.5]),
    )
    tv = independence_tv(out, nu0)
    assert tv["a"] <= 1e-12

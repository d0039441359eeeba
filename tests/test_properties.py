"""Property tests for ``build`` in 1-D and 2-D, for the conditional
family's flat layout, the 1-D quantile readers and the CLI's JSON
emitter.

The examples come from hypothesis with a fixed derivation
(``derandomize=True``), so every run checks the same datasets.  In 2-D
the joint LP may land on another optimal vertex after a relabelling or
a change of coordinates, so objectives there are compared within
HiGHS's 1e-7 relative tolerance.
"""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from otrepair.approx import build, estimate_conditionals, lower_bound, transform
from otrepair.barycenter import (
    NEGLIGIBLE_ATOM,
    _solvable_family,
    _sorted_quantiles,
    quantile_grid_measure,
    solve_barycenter,
)
from otrepair.cli import _emit_json, main
from otrepair.diagnostics import verify
from otrepair.measure import Dataset, DiscreteMeasure, coalesce, family, make_measure
from otrepair.ot import (
    Coupling,
    _search_segments,
    comonotone_staircases,
    cost_matrix,
    solve_comonotone_1d,
)

from conftest import reference_conditionals, reference_emit_json, simplex_objective

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

PROPERTY = hypothesis.settings(
    derandomize=True, deadline=None, max_examples=40, database=None
)

# (group, x, weight) rows; x on a quarter grid so that translating by a
# quarter-grid offset is exact
QUARTER = st.integers(-400, 400).map(lambda k: k / 4)
ROWS = st.lists(
    st.tuples(st.integers(0, 3), QUARTER, st.floats(0.05, 1.0)),
    min_size=1,
    max_size=16,
)
ROWS_2D = st.lists(
    st.tuples(st.integers(0, 3), st.tuples(QUARTER, QUARTER), st.floats(0.05, 1.0)),
    min_size=1,
    max_size=12,
)
# (x, weight) points of a 1-D measure: few values, so ties and duplicate
# points are common, and weights that may be 0 (at least one is positive)
POINTS = st.lists(
    st.tuples(st.integers(-3, 3).map(float), st.one_of(st.just(0.0), st.floats(0.05, 1.0))),
    min_size=1,
    max_size=6,
).filter(lambda pts: any(w > 0.0 for _, w in pts))
# HiGHS's primal feasibility tolerance
LP_RTOL = 1e-7


def dataset(rows, label=lambda g: f"g{g}") -> Dataset:
    return Dataset(
        groups=tuple(label(g) for g, _, _ in rows),
        x=np.array([np.atleast_1d(x) for _, x, _ in rows], dtype=float),
        weights=np.array([w for _, _, w in rows]),
    )


def close(a, b, scale=1.0, rtol=1e-9):
    return abs(a - b) <= rtol * max(1.0, abs(scale), abs(a), abs(b))


@PROPERTY
@given(rows=ROWS, seed=st.integers(0, 2**32 - 1))
def test_build_invariant_under_relabelling_and_reordering(rows, seed):
    base = build(dataset(rows)).achieved_distance_sq
    order = np.random.default_rng(seed).permutation(len(rows))
    permuted = [rows[i] for i in order]
    ap = build(dataset(permuted, label=lambda g: f"z{3 - g}"))
    assert close(ap.achieved_distance_sq, base)


@PROPERTY
@given(rows=ROWS, c=st.integers(-400, 400).map(lambda k: k / 4))
def test_build_translation_equivariance(rows, c):
    ap = build(dataset(rows))
    shifted = build(dataset([(g, x + c, w) for g, x, w in rows]))
    assert close(shifted.achieved_distance_sq, ap.achieved_distance_sq)
    moved = solve_comonotone_1d(ap.nu0.translate(np.array([c])), shifted.nu0).cost
    assert moved <= 1e-9 * max(1.0, c * c)


@PROPERTY
@given(rows=ROWS, s=st.sampled_from([-2.0, -0.5, 0.5, 2.0, 3.0]))
def test_build_scaling_multiplies_distance_by_square(rows, s):
    ap = build(dataset(rows))
    scaled = build(dataset([(g, s * x, w) for g, x, w in rows]))
    expected = s * s * ap.achieved_distance_sq
    assert close(scaled.achieved_distance_sq, expected)


@PROPERTY
@given(rows=ROWS)
def test_build_verifies_and_matches_means(rows):
    data = dataset(rows)
    ap = build(data)
    assert verify(ap, data).passed
    assert np.max(np.abs(ap.mean_y - ap.mean_x)) <= 1e-8 * max(1.0, *np.abs(ap.mean_x))


@PROPERTY
@given(rows=ROWS_2D, seed=st.integers(0, 2**32 - 1))
def test_build_2d_invariant_under_relabelling_and_reordering(rows, seed):
    base = build(dataset(rows)).achieved_distance_sq
    order = np.random.default_rng(seed).permutation(len(rows))
    permuted = [rows[i] for i in order]
    ap = build(dataset(permuted, label=lambda g: f"z{3 - g}"))
    assert close(ap.achieved_distance_sq, base, rtol=LP_RTOL)


@PROPERTY
@given(rows=ROWS_2D, c=st.tuples(QUARTER, QUARTER))
def test_build_2d_translation_equivariance(rows, c):
    ap = build(dataset(rows))
    shifted = build(dataset([(g, (x[0] + c[0], x[1] + c[1]), w) for g, x, w in rows]))
    assert close(shifted.achieved_distance_sq, ap.achieved_distance_sq, rtol=LP_RTOL)


@PROPERTY
@given(rows=ROWS_2D, s=st.sampled_from([-2.0, -0.5, 0.5, 2.0, 3.0]))
def test_build_2d_scaling_multiplies_distance_by_square(rows, s):
    ap = build(dataset(rows))
    scaled = build(dataset([(g, (s * x[0], s * x[1]), w) for g, x, w in rows]))
    expected = s * s * ap.achieved_distance_sq
    assert close(scaled.achieved_distance_sq, expected, rtol=LP_RTOL)


@PROPERTY
@given(rows=ROWS_2D)
def test_build_2d_verifies_and_matches_means(rows):
    data = dataset(rows)
    ap = build(data)
    assert verify(ap, data).passed
    assert np.max(np.abs(ap.mean_y - ap.mean_x)) <= 1e-8 * max(1.0, *np.abs(ap.mean_x))


@PROPERTY
@given(rows=ROWS, rows_2d=ROWS_2D, seed=st.integers(0, 2**32 - 1))
def test_build_and_transform_reruns_are_byte_identical(rows, rows_2d, seed):
    for data in (dataset(rows), dataset(rows_2d)):
        runs = []
        for _ in range(2):
            ap = build(data)
            out = transform(ap, data, seed=seed)
            runs.append((ap.nu0.support.tobytes(), ap.nu0.weights.tobytes(),
                         out.u.tobytes(), out.y.tobytes()))
        assert runs[0] == runs[1]


def measure(points):
    return make_measure([x for x, _ in points], [w for _, w in points])


@PROPERTY
@given(atoms=st.lists(POINTS, min_size=1, max_size=5), target=POINTS)
def test_batched_staircase_is_each_pair_alone(atoms, target):
    # one-point atoms, tied values, duplicate points and zero weights: the
    # batched kernel gives every atom the plan, cost and row potentials of
    # the one-pair solve, bit for bit; an atom's arcs are those on its rows
    laws = [measure(points) for points in atoms]
    nu = measure(target)
    starts = np.cumsum([0] + [mu.n for mu in laws])
    arc_rows, cols, flow, u, costs = comonotone_staircases(
        np.concatenate([mu.support for mu in laws]),
        np.concatenate([mu.weights for mu in laws]), starts, nu)
    for a, mu in enumerate(laws):
        alone = solve_comonotone_1d(mu, nu)
        rows = slice(*starts[a:a + 2])
        arcs = (arc_rows >= rows.start) & (arc_rows < rows.stop)
        plan = np.zeros((mu.n, nu.n))
        plan[arc_rows[arcs] - rows.start, cols[arcs]] = flow[arcs]
        assert np.array_equal(plan, alone.coupling.weights)
        assert costs[a] == alone.cost
        assert np.array_equal(u[rows], alone.potentials[0])


def assert_flat_layout(fam, triples):
    # the layout holds the (label, p, law) triples concatenated bit for bit,
    # read-only, and the atoms view reads the same floats back
    labels, probs, laws = zip(*triples)
    assert fam.labels == labels
    assert fam.starts.tolist() == np.cumsum([0] + [mu.n for mu in laws]).tolist()
    for flat, parts in ((fam.probabilities, [np.array(probs)]),
                        (fam.support, [mu.support for mu in laws]),
                        (fam.weights, [mu.weights for mu in laws])):
        whole = np.concatenate(parts)
        assert flat.shape == whole.shape and flat.tobytes() == whole.tobytes()
        assert not flat.flags.writeable
    for a, label, p, mu in zip(fam.atoms, labels, probs, laws):
        assert a.label == label and a.p == p
        assert a.law.support.tobytes() == mu.support.tobytes()
        assert a.law.weights.tobytes() == mu.weights.tobytes()


@PROPERTY
@given(atoms=st.lists(POINTS, min_size=1, max_size=5), rows=ROWS, rows_2d=ROWS_2D,
       p=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
def test_family_layout_is_the_per_atom_concatenation(atoms, rows, rows_2d, p):
    p = np.array(p[:len(atoms)]) / sum(p[:len(atoms)]) * (1.0 - 1e-13)
    triples = [(f"a{i}", p_a, measure(points))
               for i, (p_a, points) in enumerate(zip(p.tolist(), atoms))]
    light = ("light", 1e-13, measure(atoms[0]))
    by_hand = family(triples + [light])
    with pytest.warns(UserWarning, match="negligible"):
        kept = _solvable_family(by_hand)
    total = np.cumsum([p_a for _, p_a, _ in triples])[-1]
    assert_flat_layout(by_hand, triples + [light])
    assert_flat_layout(kept, [(label, p_a / total, mu) for label, p_a, mu in triples])
    for r in (rows, rows_2d):
        assert_flat_layout(estimate_conditionals(dataset(r)), reference_conditionals(dataset(r)))


# 1-D families for the quantile merge: a few coordinates from 1e-6 to 1e6
# in magnitude, which the atoms' points pick from, so duplicates are
# common; weights in parts of 1, 2 or 4 (dyadic, so cumulative weights
# coincide across atoms) or any float, and 0 in half the examples; and
# perhaps a negligible atom
COORDS = st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(1e-6, 1e6),
                            st.floats(-1e6, -1e-6)), min_size=1, max_size=5, unique=True)
PARTS = st.one_of(st.sampled_from([0.0, 1.0, 1.0, 2.0, 4.0]), st.floats(0.05, 1.0))
QUANTILE_ATOMS = st.lists(
    st.tuples(st.sampled_from([1.0, 1.0, 2.0, 4.0]) | st.floats(0.05, 1.0),
              st.lists(st.tuples(st.integers(0, 4), PARTS), min_size=1, max_size=6)
              .filter(lambda pts: any(w > 0.0 for _, w in pts))),
    min_size=1, max_size=5,
)


def quantile_triples(coords, atoms, zeros, light):
    """(label, p, law) triples with conditional weights ``parts / sum``,
    which keeps dyadic parts exact, and parts of 0 raised to 1 unless
    ``zeros``; a light atom is a copy of the first at p = NEGLIGIBLE_ATOM
    / 10."""
    total = sum(p for p, _ in atoms)
    triples = []
    for a, (p, points) in enumerate(atoms):
        parts = np.array([w if zeros or w > 0.0 else 1.0 for _, w in points])
        x = np.array([coords[i % len(coords)] for i, _ in points])
        triples.append((f"g{a}", p / total, DiscreteMeasure(x, parts / parts.sum())))
    if light:
        triples.append(("light", NEGLIGIBLE_ATOM / 10, triples[0][2]))
    return triples


def within(a, b, rtol, atol):
    return abs(a - b) <= rtol * abs(b) + atol


@pytest.mark.filterwarnings("ignore:dropping 1 negligible atom")
@hypothesis.settings(PROPERTY, max_examples=30)
@given(coords=COORDS, atoms=QUANTILE_ATOMS, zeros=st.booleans(), light=st.booleans())
def test_quantile_merge_couplings_match_fresh_couplings(coords, atoms, zeros, light):
    # the 1-D barycenter's own couplings, which cover the negligible atom
    # too, against oracles that do not read them: fresh staircases
    # (lower_bound) and simplex solves (conftest)
    triples = quantile_triples(coords, atoms, zeros, light)
    fam = family(triples)
    res = solve_barycenter(fam, "quantile1d")
    # a staircase may move a rounding's worth of mass (1e-15) across the
    # whole range, and HiGHS meets its constraints to 1e-10 of the costs
    reach = (max(coords) - min(coords)) ** 2
    if res.couplings is None:  # every kept atom a point mass: the closed form
        assert res.method == "dirac_closed_form"
        return
    rows, cols, flow, u, costs = res.couplings
    *_, fresh = comonotone_staircases(fam.support, fam.weights, fam.starts, res.nu0)
    for cost, ref in zip(costs.tolist(), fresh.tolist()):
        assert within(cost, ref, 1e-12, 1e-15 * reach)
    achieved = float(fam.probabilities @ costs)
    assert within(achieved, lower_bound(fam, res.nu0), 1e-12, 1e-15 * reach)
    assert within(achieved, simplex_objective(fam, res.nu0), 1e-8, 1e-10 * reach)
    # each plan is a coupling of its atom with nu0 and its row potentials
    # certify its cost through their c-transform, as verify does, to the
    # rounding of the potentials' sums
    plan = np.zeros((len(fam.support), res.nu0.n))
    np.add.at(plan, (rows, cols), flow)
    dual, size = 0.0, 0.0
    for a, lo, hi in zip(fam.atoms, fam.starts, fam.starts[1:]):
        Coupling(a.law, res.nu0, plan[lo:hi])
        u_c = (cost_matrix(a.law.support, res.nu0.support) - u[lo:hi, None]).min(axis=0)
        dual += a.p * (a.law.weights @ u[lo:hi] + res.nu0.weights @ u_c)
        size = max(size, np.abs(u[lo:hi]).max(), np.abs(u_c).max())
    assert within(achieved, dual, 1e-8, 1e-8 + 1e-14 * size)
    if any(mu.weights.min() == 0.0 for _, _, mu in triples):
        return  # a dataset has no zero-weight rows
    # the same family as a dataset: build, verify, rebuild, the CLI
    data = Dataset(tuple(label for label, _, mu in triples for _ in range(mu.n)),
                   np.concatenate([mu.support for _, _, mu in triples]),
                   np.concatenate([p * mu.weights for _, p, mu in triples]))
    ap, again = build(data), build(data)
    assert verify(ap, data).passed
    for field in ("indptr", "cols", "mass", "potential"):
        assert (getattr(ap.disintegration, field).tobytes()
                == getattr(again.disintegration, field).tobytes())
    assert ap.nu0.support.tobytes() == again.nu0.support.tobytes()
    assert ap.achieved_distance_sq == again.achieved_distance_sq
    with tempfile.TemporaryDirectory() as tmp:
        inp, rep = Path(tmp) / "d.csv", Path(tmp) / "r.json"
        inp.write_text("measure,weight,x\n" + "".join(
            f"{g},{w!r},{x!r}\n" for g, w, x in zip(data.groups, data.weights.tolist(),
                                                    data.x[:, 0].tolist())), encoding="utf-8")
        assert main(["barycenter", "--input", str(inp), "--method", "quantile1d",
                     "--report", str(rep)]) == 0
        w2 = json.loads(rep.read_text(encoding="utf-8"))["per_measure_w2"]
    est = estimate_conditionals(data)
    nu0 = solve_barycenter(est, "quantile1d").nu0
    *_, staircase = comonotone_staircases(est.support, est.weights, est.starts, nu0)
    for label, ref in zip(est.labels, staircase.tolist()):
        assert within(w2[label], ref, 1e-12, 1e-15 * reach)


def bisection_grid_measure(fam, resolution):
    """The R-point quantile grid barycenter read by bisection: for every
    (atom, level) pair the first sorted point whose cumulative weight
    reaches t, found by :func:`otrepair.ot._search_segments`; the oracle
    of ``quantile_grid_measure``'s count of ranks."""
    fam = _solvable_family(fam)
    _, xs, cum = _sorted_quantiles(fam)
    t = (np.arange(resolution) + 0.5) / resolution
    lo = np.repeat(fam.starts[:-1], resolution)
    hi = np.repeat(fam.starts[1:], resolution)
    pos = np.minimum(_search_segments(cum, lo, hi, np.tile(t, len(fam))), hi - 1)
    values = np.cumsum(fam.probabilities[:, None] * xs[pos].reshape(len(fam), -1), axis=0)[-1]
    return coalesce(DiscreteMeasure(values[:, None], np.full(resolution, 1.0 / resolution)))


@pytest.mark.filterwarnings("ignore:dropping 1 negligible atom")
@hypothesis.settings(PROPERTY, max_examples=60)
@given(coords=COORDS, atoms=QUANTILE_ATOMS, zeros=st.booleans(), light=st.booleans(),
       resolution=st.sampled_from([1, 2, 3, 7, 64, 1000]))
# cumulative weights 1/4 and 1/2 on the grid points of R = 2 and R = 1
@hypothesis.example(coords=[1.0, -2.0], atoms=[(1.0, [(0, 1.0), (1, 1.0)]),
                                               (2.0, [(1, 1.0), (0, 3.0)])],
                    zeros=False, light=False, resolution=2)
@hypothesis.example(coords=[1.0, -2.0], atoms=[(1.0, [(0, 1.0), (1, 1.0)])],
                    zeros=False, light=False, resolution=1)
def test_quantile_grid_is_the_bisection_reader(coords, atoms, zeros, light, resolution):
    # one-point atoms, duplicates, zero and dyadic weights, coordinates
    # from 1e-6 to 1e6 and a negligible atom: the count of ranks reads
    # every quantile the bisection reads, bit for bit
    fam = family(quantile_triples(coords, atoms, zeros, light))
    got = quantile_grid_measure(fam, resolution)
    ref = bisection_grid_measure(fam, resolution)
    assert got.support.tobytes() == ref.support.tobytes()
    assert got.weights.tobytes() == ref.weights.tobytes()


# strings with JSON's escapes, control characters, non-ASCII text and
# the line separators JavaScript reads as line breaks
TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u2029é€😀'),
                         st.characters()), max_size=6)
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 1e-310, float("nan"), float("inf")]))
ARRAYS = st.one_of(
    st.lists(FLOATS, max_size=4).map(np.array),
    st.lists(st.tuples(FLOATS, FLOATS), max_size=3).map(lambda r: np.array(r, dtype=float)),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=4).map(lambda r: np.array(r, dtype=np.int64)),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    FLOATS, FLOATS.map(np.float64), TEXT, ARRAYS,
)
PAYLOADS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(TEXT, st.integers()), inner, max_size=4),
), max_leaves=24)


@hypothesis.settings(PROPERTY, max_examples=300)
@given(payload=PAYLOADS)
def test_emit_json_is_byte_identical_to_json_dumps_per_string(payload):
    assert _emit_json(payload) == reference_emit_json(payload)

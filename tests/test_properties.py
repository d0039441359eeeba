"""Property tests for ``build`` in 1-D and 2-D.

The examples come from hypothesis with a fixed derivation
(``derandomize=True``), so every run checks the same datasets.  In 2-D
the joint LP may land on another optimal vertex after a relabelling or
a change of coordinates, so objectives there are compared within
HiGHS's 1e-7 relative tolerance.
"""
import numpy as np
import pytest

from otrepair.approx import build, transform
from otrepair.diagnostics import verify
from otrepair.measure import Dataset
from otrepair.ot import wasserstein_sq

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
    moved = wasserstein_sq(ap.nu0.translate(np.array([c])), shifted.nu0,
                           method="comonotone_1d")
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

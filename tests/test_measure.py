import numpy as np
import pytest

from otrepair.errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    EmptySupportError,
    NegativeWeightError,
    NonFiniteValueError,
    UOutOfRangeError,
    WeightSumError,
)
from otrepair.measure import (
    ConditionalFamily,
    Dataset,
    DiscreteMeasure,
    coalesce,
    dataset_from_rows,
    dirac,
    family,
    make_measure,
    mean,
    mixture,
)

import groupby
from conftest import random_family


# --- make_measure -----------------------------------------------------------

def test_make_measure_single_atom():
    mu = make_measure([0.0], [1.0])
    assert mu.n == 1 and mu.dim == 1
    assert mu.weights.tolist() == [1.0]


def test_make_measure_renormalizes():
    mu = make_measure([0.0, 1.0], [2.0, 2.0])
    assert mu.weights.tolist() == [0.5, 0.5]


def test_make_measure_renormalizes_2d():
    mu = make_measure([(0.0, 0.0), (1.0, 1.0)], [1.0, 3.0])
    assert mu.weights.tolist() == [0.25, 0.75]
    assert mu.dim == 2


def test_make_measure_errors():
    with pytest.raises(EmptySupportError):
        make_measure([], [])
    with pytest.raises(NegativeWeightError):
        make_measure([0.0, 1.0], [1.0, -0.5])
    with pytest.raises(DimensionMismatchError):
        make_measure([0.0, 1.0], [1.0])
    with pytest.raises(DimensionMismatchError):
        make_measure([(0.0,), (1.0, 2.0)], [1.0, 1.0])
    with pytest.raises(WeightSumError):
        make_measure([0.0, 1.0], [0.0, 0.0])


def test_constructor_tolerance():
    # within 1e-6 of unit mass: renormalized
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5000001]))
    assert abs(mu.weights.sum() - 1.0) < 1e-15
    # beyond: rejected (make_measure is the lenient path)
    with pytest.raises(WeightSumError):
        DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.6, 0.6]))


def test_weight_scale_invariance(rng):
    for _ in range(20):
        n = int(rng.integers(1, 10))
        pts = rng.normal(size=(n, 2))
        w = rng.random(n) + 0.01
        c = float(rng.random() * 10 + 0.1)
        a = make_measure(pts, w)
        b = make_measure(pts, c * w)
        assert np.array_equal(a.support, b.support)
        assert np.allclose(a.weights, b.weights, atol=1e-15)


def test_measures_are_immutable():
    mu = make_measure([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        mu.weights[0] = 0.7
    with pytest.raises(ValueError):
        mu.support[0, 0] = 5.0


# --- mean -------------------------------------------------------------------

def test_mean_values():
    assert np.array_equal(mean(dirac([2.5])), [2.5])
    assert np.array_equal(mean(make_measure([0.0, 2.0], [1.0, 1.0])), [1.0])
    assert np.allclose(mean(make_measure([(1, 0), (0, 1)], [1, 1])), [0.5, 0.5])


# --- mixture ----------------------------------------------------------------

def test_mixture_single_atom_is_identity():
    mu = make_measure([0.0, 1.0], [1.0, 3.0])
    mix = mixture(family([("a", 1.0, mu)]))
    assert mu.equals(mix)


def test_mixture_two_diracs():
    mix = mixture(family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([1.0]))]))
    assert mix.support.ravel().tolist() == [0.0, 1.0]
    assert mix.weights.tolist() == [0.5, 0.5]


def test_mixture_weighted_sum():
    # atoms (0.25, delta_0), (0.75, {0: 1/2, 1: 1/2}) -> {0: 0.625, 1: 0.375}
    fam = family([
        ("a", 0.25, dirac([0.0])),
        ("b", 0.75, make_measure([0.0, 1.0], [1.0, 1.0])),
    ])
    mix = coalesce(mixture(fam))
    # one-line mass-accounting oracle
    masses = {}
    for _, p, mu in [("a", 0.25, fam.atoms[0].law), ("b", 0.75, fam.atoms[1].law)]:
        for x, w in zip(mu.support.ravel(), mu.weights):
            masses[x] = masses.get(x, 0.0) + p * w
    assert mix.support.ravel().tolist() == sorted(masses)
    assert np.allclose(mix.weights, [masses[x] for x in sorted(masses)], atol=1e-15)
    assert np.allclose(mix.weights, [0.625, 0.375])


def test_mixture_linearity_properties(rng):
    second_moment = lambda mu: float(mu.weights @ np.sum(mu.support**2, axis=1))
    for _ in range(25):
        fam = random_family(rng, m=2)
        mix = mixture(fam)
        assert abs(mix.weights.sum() - 1.0) < 1e-12
        sm = sum(a.p * second_moment(a.law) for a in fam.atoms)
        assert abs(second_moment(mix) - sm) <= 1e-12 * max(1.0, abs(sm))
        mn = sum(a.p * mean(a.law) for a in fam.atoms)
        assert np.allclose(mean(mix), mn, rtol=1e-12, atol=1e-15)


# --- coalesce ---------------------------------------------------------------

def test_coalesce_merges_and_sorts():
    mu = make_measure([2.0, 0.0, 2.0, 0.0], [1.0, 2.0, 3.0, 2.0])
    c = coalesce(mu)
    assert c.support.ravel().tolist() == [0.0, 2.0]
    assert np.allclose(c.weights, [0.5, 0.5])


def test_coalesce_canonical_law_representation(rng):
    pts = rng.normal(size=(5, 2))
    idx = rng.integers(0, 5, size=16)
    # dyadic weights sum exactly in every order, so the canonical forms
    # are bitwise equal; generic floats agree to the last ulp only
    w = np.full(16, 1.0 / 16.0)
    a = DiscreteMeasure(pts[idx], w)
    perm = rng.permutation(16)
    b = DiscreteMeasure(pts[idx][perm], w[perm])
    assert coalesce(a).equals(coalesce(b))

    wf = rng.random(16) + 0.1
    a = make_measure(pts[idx], wf)
    b = make_measure(pts[idx][perm], wf[perm])
    assert np.array_equal(coalesce(a).support, coalesce(b).support)
    assert np.allclose(coalesce(a).weights, coalesce(b).weights, atol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_coalesce_matches_the_add_at_oracle(m):
    # duplicate points on a coarse grid, weights over twelve decades
    rng = np.random.default_rng(m)
    for n in (1, 2, 9, 200):
        pts = rng.integers(0, 3, size=(n, m)).astype(float)
        mu = make_measure(pts, rng.random(n) * 10.0 ** rng.integers(-6, 6, n))
        got, want = coalesce(mu), groupby.coalesce(mu)
        assert got.support.tobytes() == want.support.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()


# --- ConditionalFamily ------------------------------------------------------

def test_family_validation():
    # one case per check of the constructor, on a layout that passes them all
    valid = dict(labels=("a", "b"), probabilities=[0.25, 0.75], starts=[0, 1, 3],
                 support=[[0.0], [1.0], [2.0]], weights=[1.0, 0.5, 0.5])
    for parts, error in [
        (dict(labels=(), probabilities=[], starts=[0], support=np.empty((0, 1)),
              weights=[]), EmptyDatasetError),
        (dict(labels=("a", "a")), DimensionMismatchError),
        (dict(probabilities=[0.25, np.nan]), NonFiniteValueError),
        (dict(probabilities=[1.25, -0.25]), NegativeWeightError),
        (dict(probabilities=[0.25, 0.75 + 1e-8]), WeightSumError),
        (dict(probabilities=[1.0]), DimensionMismatchError),
        (dict(support=[[0.0], [np.inf], [2.0]]), NonFiniteValueError),
        (dict(support=[0.0, 1.0, 2.0]), DimensionMismatchError),
        (dict(weights=[1.0, 1.0]), DimensionMismatchError),
        (dict(weights=[1.0, np.nan, 0.5]), NonFiniteValueError),
        (dict(starts=[1, 2, 3]), DimensionMismatchError),
        (dict(starts=[0, 1, 2]), DimensionMismatchError),
        (dict(starts=[0, 3]), DimensionMismatchError),
        (dict(starts=[0.0, 1.0, 3.0]), DimensionMismatchError),
        (dict(starts=[0, 3, 3]), EmptySupportError),
        (dict(weights=[1.0, 1.5, -0.5]), NegativeWeightError),
        (dict(weights=[1.0, 0.5, 0.5 + 1e-8]), WeightSumError),
    ]:
        with pytest.raises(error):
            ConditionalFamily(**{**valid, **parts})
    # it divides nothing and takes C-contiguous float arrays as they are
    support, weights = np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 0.5, 0.5 + 1e-10])
    fam = ConditionalFamily(**{**valid, "support": support, "weights": weights})
    assert fam.support is support and fam.weights is weights
    assert fam.weights[2] == 0.5 + 1e-10 and not support.flags.writeable
    assert len(fam) == 2 and fam.atoms[1].law.weights.tolist() == [0.5, 0.5 + 1e-10]
    mu = dirac([0.0])
    with pytest.raises(EmptyDatasetError):
        family([])
    with pytest.raises(WeightSumError):
        family([("a", 0.6, mu), ("b", 0.6, mu)])
    with pytest.raises(NegativeWeightError):
        family([("a", 1.2, mu), ("b", -0.2, mu)])
    with pytest.raises(DimensionMismatchError):
        family([("a", 0.5, mu), ("b", 0.5, dirac([0.0, 1.0]))])
    with pytest.raises(DimensionMismatchError):
        family([("a", 0.5, mu), ("a", 0.5, mu)])
    fam = family([("a", 0.25, mu), ("b", 0.75, mu)])
    assert fam.labels == ("a", "b")
    assert fam.atoms[1].label == "b" and fam.atoms[1].p == 0.75


# --- Dataset ----------------------------------------------------------------

def test_dataset_from_rows_basic():
    d = dataset_from_rows([("g1", 0.0, 1.0), ("g2", 1.0, 3.0)])
    assert d.n_rows == 2 and d.dim == 1
    assert np.allclose(d.weights, [0.25, 0.75])
    assert d.labels == ("g1", "g2")
    assert d.u is None


def test_dataset_u_column_rules():
    d = dataset_from_rows([("a", 0.0, 1.0, 0.5), ("a", 1.0, 1.0, 0.25)])
    assert d.u.tolist() == [0.5, 0.25]
    with pytest.raises(UOutOfRangeError):
        dataset_from_rows([("a", 0.0, 1.0, 0.5), ("a", 1.0, 1.0, None)])
    with pytest.raises(UOutOfRangeError):
        Dataset(("a",), np.array([[0.0]]), np.array([1.0]), u=np.array([1.5]))


def test_dataset_weight_rules():
    with pytest.raises(NegativeWeightError):
        dataset_from_rows([("a", 0.0, 0.0)])
    with pytest.raises(NegativeWeightError):
        dataset_from_rows([("a", 0.0, -1.0)])


def test_dataset_rejects_weights_that_underflow_on_normalization():
    # every weight is positive, but 1e-320 / 1e300 rounds to 0
    rows = [("b", 1.0, 1e300), ("a", 0.0, 1e-320), ("a", 2.0, 1e-320)]
    with pytest.raises(NegativeWeightError, match="weight 1e-320 of a row of group 'a' "
                                                  "underflows to 0"):
        dataset_from_rows(rows)


def test_dataset_group_rows_order():
    d = dataset_from_rows(
        [("b", 5.0, 1.0), ("a", 1.0, 1.0), ("b", 7.0, 1.0), ("a", 2.0, 1.0)]
    )
    assert d.labels == ("b", "a")
    assert d.group_rows("b").tolist() == [0, 2]
    assert d.group_rows("a").tolist() == [1, 3]


def test_dataset_group_index_matches_naive_scan(rng):
    pool = ["a", "b", "1", 1, 2, 3.5]
    for _ in range(40):
        n = int(rng.integers(1, 30))
        groups = tuple(pool[i] for i in rng.integers(0, len(pool), size=n))
        d = Dataset(groups, rng.normal(size=n), np.ones(n))
        first_seen = []
        for g in groups:
            if g not in first_seen:
                first_seen.append(g)
        assert d.labels == tuple(first_seen)
        rows, indptr = d.grouped_rows()
        for a, label in enumerate(first_seen):
            naive = [i for i, g in enumerate(groups) if g == label]
            assert d.group_rows(label).tolist() == naive
            assert rows[indptr[a]:indptr[a + 1]].tolist() == naive
        with pytest.raises(KeyError):
            d.group_rows("absent")


# labels of mixed types, of which 1, 1.0 and True are one dict key
LABELS = ["a", 1, "b", 1.0, True, (0, "t"), None, 3.5]


@pytest.mark.parametrize("n_labels", [1, 3, len(LABELS)])
def test_dataset_grouping_matches_the_loop_oracle(n_labels):
    rng = np.random.default_rng(n_labels)
    for n in (1, 2, 17, 300):
        groups = tuple(LABELS[i] for i in rng.integers(0, n_labels, size=n))
        d = Dataset(groups, rng.normal(size=n), np.ones(n))
        index, rows, indptr = groupby.grouping(groups)
        assert [(type(k), k, a) for k, a in d._index.items()] == \
            [(type(k), k, a) for k, a in index.items()]
        for got, want in zip(d.grouped_rows(), (rows, indptr)):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(NonFiniteValueError, match=f"non-finite value {bad}"):
        make_measure([0.0, bad], [1.0, 1.0])
    with pytest.raises(NonFiniteValueError, match="weights"):
        DiscreteMeasure([0.0, 1.0], [1.0, bad])
    with pytest.raises(NonFiniteValueError, match="weights"):
        Dataset(("a", "b"), np.zeros(2), np.array([1.0, bad]))
    with pytest.raises(NonFiniteValueError, match="u contains"):
        Dataset(("a", "b"), np.zeros(2), np.ones(2), u=np.array([0.5, bad]))

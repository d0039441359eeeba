from dataclasses import replace

import numpy as np
import pytest

from otrepair.approx import (
    build,
    decompose_solve,
    estimate_conditionals,
    lower_bound,
    sample_y,
    transform,
    transform_grid,
)
from otrepair.barycenter import solve_barycenter
from otrepair.diagnostics import verify
from otrepair.errors import (
    DatasetMismatchError,
    IndexOutOfRangeError,
    MissingUError,
    UnknownGroupError,
    UnseenValueError,
    UOutOfRangeError,
)
from otrepair.measure import (
    Dataset,
    coalesce,
    dataset_from_rows,
    dirac,
    family,
    make_measure,
    mean,
    mixture,
)

from conftest import random_dataset, random_family


# --- estimate_conditionals ----------------------------------------------------

def test_estimate_single_group():
    d = dataset_from_rows([("g1", 0.0, 1.0), ("g1", 2.0, 1.0)])
    fam = estimate_conditionals(d)
    assert fam.labels == ("g1",)
    assert fam.atoms[0].p == 1.0
    assert fam.atoms[0].law.support.ravel().tolist() == [0.0, 2.0]
    assert np.allclose(fam.atoms[0].law.weights, [0.5, 0.5])


def test_estimate_two_singleton_groups():
    d = dataset_from_rows([("g1", 0.0, 1.0), ("g2", 1.0, 3.0)])
    fam = estimate_conditionals(d)
    assert fam.labels == ("g1", "g2")
    assert np.allclose(fam.probabilities, [0.25, 0.75])
    assert fam.atom("g1").law.equals(dirac([0.0]))


def test_estimate_mixture_reproduces_marginal(rng):
    for _ in range(15):
        d = random_dataset(rng, m=2)
        fam = estimate_conditionals(d)
        mix = coalesce(mixture(fam))
        marginal = coalesce(make_measure(d.x, d.weights))
        assert np.array_equal(mix.support, marginal.support)
        assert np.allclose(mix.weights, marginal.weights, atol=1e-14)


def test_estimate_preserves_row_order_with_duplicates():
    d = dataset_from_rows(
        [("a", 1.0, 1.0), ("a", 1.0, 2.0), ("a", 0.0, 1.0)]
    )
    law = estimate_conditionals(d).atoms[0].law
    assert law.support.ravel().tolist() == [1.0, 1.0, 0.0]
    assert np.allclose(law.weights, [0.25, 0.5, 0.25])


# --- lower_bound ---------------------------------------------------------------

def test_lower_bound_zero_for_common_law():
    mu = make_measure([0.0, 1.0], [1.0, 1.0])
    fam = family([("a", 0.5, mu), ("b", 0.5, mu)])
    assert lower_bound(fam, mixture(fam)) <= 1e-12


def test_lower_bound_two_diracs():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    assert lower_bound(fam, dirac([1.0])) == 1.0


def test_lower_bound_monte_carlo_product_coupling(rng):
    # any independent pairing of x and y must do at least this badly
    fam = random_family(rng, n_atoms=3, max_pts=4, m=1)
    nu = make_measure(rng.normal(size=5), rng.random(5) + 0.1)
    bound = lower_bound(fam, nu)
    n = 10_000
    labels = rng.choice(len(fam), size=n, p=fam.probabilities)
    xs = np.empty(n)
    for i, a_idx in enumerate(labels):
        law = fam.atoms[a_idx].law
        xs[i] = law.support[rng.choice(law.n, p=law.weights), 0]
    ys = nu.support[rng.choice(nu.n, size=n, p=nu.weights), 0]
    emp = float(np.mean((xs - ys) ** 2))
    assert emp >= bound - 2e-2


# --- build -----------------------------------------------------------------------

def test_build_independent_x_gives_zero_distance():
    rows = [("a", 0.0, 1.0), ("a", 2.0, 1.0), ("b", 0.0, 2.0), ("b", 2.0, 2.0)]
    ap = build(dataset_from_rows(rows))
    assert ap.achieved_distance_sq <= 1e-12
    assert coalesce(ap.nu0).equals(
        coalesce(make_measure([0.0, 2.0], [1.0, 1.0]))
    )


def test_build_measurable_case_collapses_to_mean():
    rows = [("a", 0.0, 1.0), ("b", 2.0, 1.0), ("c", 7.0, 2.0)]
    d = dataset_from_rows(rows)
    ap = build(d)
    ex = d.mean_x()
    assert ap.method == "dirac_closed_form"
    assert ap.nu0.n == 1 and np.allclose(ap.nu0.support[0], ex)
    expected = sum(
        w * (x - ex[0]) ** 2 for x, w in zip([0.0, 2.0, 7.0], [0.25, 0.25, 0.5])
    )
    assert abs(ap.achieved_distance_sq - expected) <= 1e-12


def test_build_hand_instance_quantile_average():
    d = dataset_from_rows(
        [("g1", 0.0, 1.0), ("g1", 2.0, 1.0), ("g2", 1.0, 1.0), ("g2", 3.0, 1.0)]
    )
    ap = build(d)
    assert ap.nu0.support.ravel().tolist() == [0.5, 2.5]
    assert np.allclose(ap.nu0.weights, [0.5, 0.5])
    assert abs(ap.achieved_distance_sq - 0.25) <= 1e-12
    # cross-check against the fixed-support LP on the quantile image
    lp = solve_barycenter(ap.family, "exact", support=ap.nu0.support)
    assert abs(lower_bound(ap.family, lp.nu0) - 0.25) <= 1e-10


def test_build_bound_attained_and_means_match(rng):
    for m in (1, 2):
        for _ in range(6):
            d = random_dataset(rng, m=m)
            ap = build(d)
            lb = lower_bound(ap.family, ap.nu0)
            assert abs(ap.achieved_distance_sq - lb) <= 1e-8 * max(1.0, lb)
            assert np.max(np.abs(ap.mean_y - ap.mean_x)) <= 1e-8
            for a in ap.family.atoms:
                dis = ap.disintegrations[a.label]
                recon = a.law.weights @ dis.conditional
                assert np.max(np.abs(recon - ap.nu0.weights)) <= 1e-8


def test_build_exact_lp_recentring_identity(rng):
    # for the LP route the achieved value must equal the LP optimum minus
    # the squared recentring shift
    for _ in range(4):
        d = random_dataset(rng, m=2)
        ap = build(d)
        fam = ap.family
        sup_mean = ap.lp_objective - ap.achieved_distance_sq
        from otrepair.barycenter import default_support, fixed_support_weights
        raw, _, lp = fixed_support_weights(fam, default_support(fam))
        shift = ap.mean_x - mean(raw)
        assert abs(lp - ap.lp_objective) <= 1e-12 * max(1.0, abs(lp))
        assert abs(sup_mean - float(shift @ shift)) <= 1e-9


def test_build_perturbation_optimality_1d(rng):
    # exact quantile builds are unrestricted optima: perturbing two nu0
    # weights can only increase the objective
    for _ in range(3):
        d = random_dataset(rng, m=1)
        ap = build(d)
        if ap.nu0.n < 2:
            continue
        base = lower_bound(ap.family, ap.nu0)
        for _ in range(5):
            i, j = rng.choice(ap.nu0.n, size=2, replace=False)
            w = ap.nu0.weights.copy()
            delta = min(1e-3, w[i])
            w[i] -= delta
            w[j] += delta
            cand = make_measure(ap.nu0.support, w)
            assert lower_bound(ap.family, cand) >= base - 1e-10


def test_build_methods_all_attain_their_bound(rng):
    d = random_dataset(rng, n_atoms=2, max_rows=4, m=2)
    for method, kw in [
        ("exact", {}),
        ("entropic", {"epsilon": 0.05, "max_iter": 300}),
        ("free", {"k": 3}),
    ]:
        ap = build(d, method=method, **kw)
        lb = lower_bound(ap.family, ap.nu0)
        assert abs(ap.achieved_distance_sq - lb) <= 1e-8 * max(1.0, lb)
        assert np.max(np.abs(ap.mean_y - ap.mean_x)) <= 1e-8


# --- sample_y ---------------------------------------------------------------------

def _toy_approx():
    d = dataset_from_rows(
        [("g1", 0.0, 1.0), ("g1", 2.0, 1.0), ("g2", 1.0, 1.0), ("g2", 3.0, 1.0)]
    )
    return build(d)


def test_sample_y_dirac_row_constant():
    d = dataset_from_rows([("a", 0.0, 1.0), ("b", 2.0, 1.0)])
    ap = build(d)
    for u in (0.0, 0.3, 1.0):
        assert sample_y(ap, "a", 0, u).tolist() == ap.nu0.support[0].tolist()


def test_sample_y_inverse_cdf_thresholds():
    # hand-built conditional {y1: 0.25, y2: 0.75}: u=0.1 -> y1, u=0.5 -> y2,
    # u=1.0 -> y2, and u exactly at the breakpoint returns the earlier point
    from otrepair.approx import Disintegration, IndependentApproximation
    from otrepair.measure import family as make_family

    nu0 = make_measure([10.0, 20.0], [0.25, 0.75])
    law = dirac([0.0])
    dis = Disintegration(
        law, conditional=np.array([[0.25, 0.75]]), potential=np.array([0.0])
    )
    ap = IndependentApproximation(
        family=make_family([("g", 1.0, law)]),
        nu0=nu0,
        disintegrations={"g": dis},
        achieved_distance_sq=0.0,
        mean_x=np.array([0.0]),
        mean_y=np.array([17.5]),
        method="hand",
    )
    assert sample_y(ap, "g", 0, 0.1).tolist() == [10.0]
    assert sample_y(ap, "g", 0, 0.25).tolist() == [10.0]
    assert sample_y(ap, "g", 0, 0.5).tolist() == [20.0]
    assert sample_y(ap, "g", 0, 1.0).tolist() == [20.0]


def _lex_order(ap):
    """nu0's support indices in lexicographic order, computed here."""
    return np.lexsort(ap.nu0.support.T[::-1])


def test_sample_y_grid_law_matches_conditional(rng):
    ap = _toy_approx()
    order = _lex_order(ap)
    R = 10_000
    grid = (np.arange(R) + 0.5) / R
    for label in ("g1", "g2"):
        dis = ap.disintegrations[label]
        for i in range(dis.law.n):
            emp = np.zeros(ap.nu0.n)
            cum = np.cumsum(dis.conditional[i][order])
            pos = np.minimum(np.searchsorted(cum, grid, side="left"), len(cum) - 1)
            np.add.at(emp, order[pos], 1.0 / R)
            tv = 0.5 * np.abs(
                emp - dis.conditional[i][np.argsort(np.arange(ap.nu0.n))]
            ).sum()
            assert tv <= 1e-4


def test_sample_y_errors():
    ap = _toy_approx()
    with pytest.raises(UnknownGroupError):
        sample_y(ap, "nope", 0, 0.5)
    with pytest.raises(IndexOutOfRangeError):
        sample_y(ap, "g1", 2, 0.5)
    with pytest.raises(UOutOfRangeError):
        sample_y(ap, "g1", 0, 1.5)


# --- transform ----------------------------------------------------------------------

def test_transform_identity_case_preserves_law(rng):
    rows = [("a", 0.0, 1.0), ("a", 2.0, 1.0), ("b", 0.0, 2.0), ("b", 2.0, 2.0)]
    d = dataset_from_rows(rows)
    ap = build(d)
    out = transform_grid(ap, d, 200)
    law_x = coalesce(make_measure(out.x, out.weights))
    law_y = coalesce(make_measure(out.y, out.weights))
    assert np.array_equal(law_x.support, law_y.support)
    assert np.max(np.abs(law_x.weights - law_y.weights)) <= 1e-9


def test_transform_measurable_case_constant():
    d = dataset_from_rows([("a", 0.0, 1.0), ("b", 2.0, 1.0)])
    ap = build(d)
    out = transform(ap, d, seed=3)
    assert np.all(out.y == 1.0)


def test_transform_hand_instance_grid_distance():
    d = dataset_from_rows(
        [("g1", 0.0, 1.0), ("g1", 2.0, 1.0), ("g2", 1.0, 1.0), ("g2", 3.0, 1.0)]
    )
    ap = build(d)
    out = transform_grid(ap, d, 1000)
    dist = float(out.weights @ ((out.x - out.y) ** 2).sum(axis=1))
    assert abs(dist - 0.25) <= 1e-3


def test_transform_errors():
    ap = _toy_approx()
    with pytest.raises(UnknownGroupError):
        transform(ap, dataset_from_rows([("zz", 0.0, 1.0)]), seed=0)
    with pytest.raises(UnseenValueError):
        transform(ap, dataset_from_rows(
            [("g1", 5.0, 1.0), ("g1", 2.0, 1.0),
             ("g2", 1.0, 1.0), ("g2", 3.0, 1.0)]
        ), seed=0)
    d = dataset_from_rows(
        [("g1", 0.0, 1.0), ("g1", 2.0, 1.0), ("g2", 1.0, 1.0), ("g2", 3.0, 1.0)]
    )
    with pytest.raises(MissingUError):
        transform(ap, d)


def test_row_weights_must_match_the_build():
    rows = [("a", [0.0], 1.0), ("a", [2.0], 1.0), ("b", [1.0], 1.0), ("b", [3.0], 1.0)]
    ap = build(dataset_from_rows(rows))
    reweighted = dataset_from_rows([*rows[:1], ("a", [2.0], 9.0), *rows[2:]])
    for call in (lambda d: transform(ap, d, seed=0),
                 lambda d: transform_grid(ap, d, 10),
                 lambda d: verify(ap, d)):
        with pytest.raises(DatasetMismatchError) as err:
            call(reweighted)
        assert err.value.exit_code == 3
    # the same conditional laws on another weight scale still match
    rescaled = dataset_from_rows([(g, x, 0.7 * w) for g, x, w in rows])
    assert verify(ap, rescaled).passed


def _law(points, masses):
    """Mass per distinct point, keyed by the point's bytes."""
    law = {}
    for y, w in zip(points, masses):
        key = np.ascontiguousarray(y).tobytes()
        law[key] = law.get(key, 0.0) + w
    return law


@pytest.mark.parametrize("m", [1, 2])
def test_transform_grid_samples_a_replaced_conditional(rng, m):
    # the samplers read the stored conditionals, so a replaced one is
    # what they draw from
    d = random_dataset(rng, n_atoms=3, max_rows=5, m=m)
    ap = build(d)
    while ap.nu0.n < 3:
        d = random_dataset(rng, n_atoms=3, max_rows=5, m=m)
        ap = build(d)
    label = d.labels[0]
    dis = ap.disintegrations[label]
    conditional = rng.dirichlet(np.ones(ap.nu0.n), size=dis.law.n)
    changed = replace(ap, disintegrations={
        **ap.disintegrations, label: replace(dis, conditional=conditional)})
    R = 1000
    out = transform_grid(changed, d, R)
    for i, r in enumerate(d.group_rows(label)):
        want = _law(ap.nu0.support, conditional[i])
        got = _law(out.y[r * R:(r + 1) * R], np.full(R, 1.0 / R))
        assert set(got) <= set(want)
        assert max(abs(got.get(k, 0.0) - w) for k, w in want.items()) <= 1.0 / R + 1e-12


def test_transform_deterministic_under_seed():
    ap = _toy_approx()
    d = dataset_from_rows(
        [("g1", 0.0, 1.0), ("g1", 2.0, 1.0), ("g2", 1.0, 1.0), ("g2", 3.0, 1.0)]
    )
    a = transform(ap, d, seed=99)
    b = transform(ap, d, seed=99)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.u, b.u)


# --- decompose_solve -----------------------------------------------------------------

def test_decompose_measurable_case():
    d = dataset_from_rows([("a", 0.0, 1.0), ("b", 2.0, 1.0)])
    dec = decompose_solve(d)
    assert np.allclose(dec.nu0.support[0], [1.0])
    assert abs(dec.achieved_distance_sq - 1.0) <= 1e-12
    assert abs(dec.decomposition["centered_achieved"]) <= 1e-15
    assert abs(dec.decomposition["between_variance"] - 1.0) <= 1e-12


def test_decompose_independent_case_reduces_to_build():
    rows = [("a", 0.0, 1.0), ("a", 2.0, 1.0), ("b", 0.0, 2.0), ("b", 2.0, 2.0)]
    d = dataset_from_rows(rows)
    ap, dec = build(d), decompose_solve(d)
    assert abs(ap.achieved_distance_sq - dec.achieved_distance_sq) <= 1e-12
    assert dec.decomposition["between_variance"] <= 1e-15


def test_decompose_matches_build(rng):
    for m in (1, 2):
        for _ in range(5):
            d = random_dataset(rng, m=m)
            ap, dec = build(d), decompose_solve(d)
            assert abs(ap.achieved_distance_sq - dec.achieved_distance_sq) <= 1e-8
            # orthogonal split holds exactly
            assert abs(
                dec.achieved_distance_sq
                - dec.decomposition["centered_achieved"]
                - dec.decomposition["between_variance"]
            ) <= 1e-10 * max(1.0, dec.achieved_distance_sq)
            assert np.max(np.abs(dec.mean_y - dec.mean_x)) <= 1e-8


def test_decompose_transform_consistent(rng):
    d = random_dataset(rng, n_atoms=3, max_rows=4, m=1, with_u=True)
    dec = decompose_solve(d)
    out = transform(dec, d)
    assert out.y.shape == d.x.shape
    assert all(
        any(np.array_equal(y, s) for s in dec.nu0.support) for y in out.y
    )


def test_build_1d_path_runs_no_simplex_solve(rng, monkeypatch):
    import otrepair.ot
    from otrepair.diagnostics import verify

    d2 = random_dataset(rng, m=2)
    built = [(d2, build(d2)), (d2, decompose_solve(d2))]

    def forbidden(*args):
        raise AssertionError("network simplex called")

    monkeypatch.setattr(otrepair.ot, "solve_exact", forbidden)
    monkeypatch.setattr(otrepair.ot, "_solve_transport", forbidden)
    d = random_dataset(rng, m=1)
    built += [(d, build(d)), (d, decompose_solve(d))]
    assert all(ap.achieved_distance_sq >= 0.0 for _, ap in built)
    # verify certifies from the build's potentials in every dimension
    for data, ap in built:
        assert verify(ap, data).passed


def _per_row_lookup(ap, label, i, u):
    """Reference sampler: a scan of one ladder row for the first position
    that adds mass and whose cumulative weight reaches each u, else the
    last position that adds mass."""
    order = _lex_order(ap)
    cum = np.cumsum(ap.disintegrations[label].conditional[i][order])
    grows = np.flatnonzero(np.diff(cum, prepend=0.0) > 0.0)
    pos = [next((j for j in grows if cum[j] >= t), grows[-1])
           for t in np.atleast_1d(u)]
    return ap.nu0.support[order[pos]].reshape(np.shape(u) + (-1,))


def test_samplers_match_per_row_searchsorted(rng):
    for m in (1, 2):
        d = random_dataset(rng, m=m)
        ap = build(d)
        R = 37
        grid = (np.arange(R) + 0.5) / R
        out = transform_grid(ap, d, R)
        # u on the ladder breakpoints themselves exercises the ties
        order = _lex_order(ap)
        u = np.empty(d.n_rows)
        for label in d.labels:
            for i, r in enumerate(d.group_rows(label)):
                assert np.array_equal(out.y[r * R:(r + 1) * R],
                                      _per_row_lookup(ap, label, i, grid))
                cum = np.cumsum(ap.disintegrations[label].conditional[i][order])
                u[r] = cum[rng.integers(ap.nu0.n)]
        u = np.minimum(u, 1.0)
        sampled = transform(ap, Dataset(d.groups, d.x, d.weights, u=u))
        for label in d.labels:
            for i, r in enumerate(d.group_rows(label)):
                assert np.array_equal(sampled.y[r], _per_row_lookup(ap, label, i, u[r]))
                assert np.array_equal(sample_y(ap, label, i, u[r]), sampled.y[r])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("u_value", [0.0, 1.0])
def test_samplers_draw_only_positive_mass_points(rng, m, u_value):
    # u = 0 must skip leading zero-mass positions and u = 1 must not run
    # past the last positive-mass one, however the row's sum rounds
    for _ in range(60):
        d = random_dataset(rng, m=m)
        ap = build(d)
        u = np.full(d.n_rows, u_value)
        out = transform(ap, Dataset(d.groups, d.x, d.weights, u=u))
        for label in d.labels:
            dis = ap.disintegrations[label]
            for i, r in enumerate(d.group_rows(label)):
                for y in (out.y[r], sample_y(ap, label, i, u_value)):
                    (j,) = np.flatnonzero((ap.nu0.support == y).all(axis=1))
                    assert dis.conditional[i, j] > 0.0

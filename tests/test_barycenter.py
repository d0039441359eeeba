import numpy as np
import pytest

from otrepair.barycenter import (
    _assemble_joint_lp,
    barycenter_1d,
    barycenter_1d_exact,
    barycenter_entropic,
    barycenter_fixed_support,
    barycenter_free_support,
    default_support,
    objective,
)
from otrepair.errors import (
    DimensionMismatchError,
    DimensionNotOneError,
    SupportDimensionMismatchError,
)
from otrepair.measure import (
    DiscreteMeasure,
    dirac,
    family,
    make_measure,
    mean,
    mixture,
    second_moment,
)
from otrepair.ot import wasserstein_sq

from conftest import random_family
from densesimplex import solve_standard_form


def bland_fixed_support(fam, support):
    """The joint LP solved by the dense Bland simplex oracle: (nu0, LP value)."""
    S = np.asarray(support, dtype=float).reshape(len(support), -1)
    c, A, b = _assemble_joint_lp(fam, S)
    out = solve_standard_form(c, A.toarray(), b)
    w = np.maximum(out.x[-len(S):], 0.0)
    return DiscreteMeasure(S, w / w.sum()), out.fun


def dirac_grid_oracle(probs, centers, support, resolution=400):
    """Brute-force the restricted barycenter of Dirac atoms on a 3-point grid.

    For Dirac atoms the objective is linear in the grid weights, so a
    dense sweep of the weight simplex certifies the optimum.
    """
    support = np.asarray(support, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if support.ndim == 1:
        support = support[:, None]
    if centers.ndim == 1:
        centers = centers[:, None]
    # cost of putting unit mass at grid point j for atom a
    unit = np.array([
        [float(np.sum((s - c) ** 2)) for s in support] for c in centers
    ])
    best = np.inf
    ticks = np.linspace(0.0, 1.0, resolution + 1)
    for w0 in ticks:
        for w1 in np.linspace(0.0, 1.0 - w0, resolution + 1):
            w = np.array([w0, w1, 1.0 - w0 - w1])
            val = float(probs @ (unit @ w))
            best = min(best, val)
    return best


# --- objective ----------------------------------------------------------------

def test_objective_zero_when_equal():
    mu = make_measure([0.0, 1.0], [1.0, 2.0])
    fam = family([("a", 0.5, mu), ("b", 0.5, mu)])
    assert objective(fam, mu) <= 1e-12


def test_objective_two_diracs_vs_middle():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    assert objective(fam, dirac([1.0])) == 1.0


def test_objective_two_diracs_vs_spread():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    nu = make_measure([0.0, 2.0], [1.0, 1.0])
    # each 1x2 transport is forced: half the mass moves distance 2
    assert objective(fam, nu) == 2.0


def test_objective_dimension_check():
    fam = family([("a", 1.0, dirac([0.0]))])
    with pytest.raises(DimensionMismatchError):
        objective(fam, dirac([0.0, 1.0]))


# --- fixed support exact -------------------------------------------------------

def test_fixed_support_single_atom_recovers_itself():
    mu = make_measure([0.0, 1.0, 3.0], [1.0, 2.0, 1.0])
    fam = family([("a", 1.0, mu)])
    highs = barycenter_fixed_support(fam, mu.support).nu0
    bland, _ = bland_fixed_support(fam, mu.support)
    for nu0 in (highs, bland):
        assert objective(fam, nu0) <= 1e-10
        assert np.allclose(nu0.weights, mu.weights, atol=1e-9)


def test_fixed_support_two_diracs_midpoint_1d():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    grid = np.array([0.0, 1.0, 2.0])
    oracle = dirac_grid_oracle([0.5, 0.5], [0.0, 2.0], grid)
    assert abs(oracle - 1.0) <= 1e-9
    highs = barycenter_fixed_support(fam, grid).nu0
    bland, _ = bland_fixed_support(fam, grid)
    for nu0 in (highs, bland):
        assert abs(objective(fam, nu0) - 1.0) <= 1e-10
        assert abs(nu0.weights[1] - 1.0) <= 1e-9


def test_fixed_support_two_diracs_midpoint_2d():
    fam = family([("a", 0.5, dirac([0.0, 0.0])), ("b", 0.5, dirac([2.0, 0.0]))])
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    oracle = dirac_grid_oracle([0.5, 0.5], [[0.0, 0.0], [2.0, 0.0]], grid)
    assert abs(oracle - 1.0) <= 1e-9
    res = barycenter_fixed_support(fam, grid)
    assert abs(res.objective - 1.0) <= 1e-10
    assert abs(res.nu0.weights[1] - 1.0) <= 1e-9


def test_fixed_support_engines_agree(rng):
    for _ in range(5):
        fam = random_family(rng, n_atoms=2, max_pts=3, m=1)
        sup = default_support(fam)
        a = barycenter_fixed_support(fam, sup)
        b, b_lp = bland_fixed_support(fam, sup)
        assert abs(a.objective - objective(fam, b)) <= 1e-9 * max(1.0, a.objective)
        assert abs(a.lp_objective - b_lp) <= 1e-9 * max(1.0, a.objective)


def test_fixed_support_lp_value_matches_exact_evaluation(rng):
    for _ in range(5):
        fam = random_family(rng, n_atoms=3, max_pts=5, m=2)
        res = barycenter_fixed_support(fam, default_support(fam))
        assert abs(res.lp_objective - res.objective) <= 1e-8 * max(1.0, res.objective)
        total = sum(fam.atoms[i].p * res.per_atom_w2[fam.atoms[i].label]
                    for i in range(len(fam)))
        assert abs(res.objective - total) <= 1e-10 * max(1.0, total)


def test_fixed_support_beats_random_candidates(rng):
    for _ in range(3):
        fam = random_family(rng, n_atoms=2, max_pts=4, m=1)
        sup = default_support(fam)
        res = barycenter_fixed_support(fam, sup)
        for _ in range(60):
            w = rng.dirichlet(np.ones(len(sup)))
            cand = make_measure(sup, w + 1e-12)
            assert res.objective <= objective(fam, cand) + 1e-8


def test_fixed_support_mean_property_when_grid_contains_optimum(rng):
    # grid = image of the exact quantile average: the restricted optimum
    # is the unrestricted one, so its mean matches the family mean
    for _ in range(5):
        fam = random_family(rng, m=1)
        exact = barycenter_1d_exact(fam)
        res = barycenter_fixed_support(fam, exact.nu0.support)
        target = sum(a.p * mean(a.law) for a in fam.atoms)
        assert np.max(np.abs(mean(res.nu0) - target)) <= 1e-8


def test_fixed_support_translation_equivariance(rng):
    fam = random_family(rng, n_atoms=3, max_pts=4, m=2)
    sup = default_support(fam)
    res = barycenter_fixed_support(fam, sup)
    v = np.array([1.5, -2.0])
    shifted = family(
        [(a.label, a.p, a.law.translate(v)) for a in fam.atoms]
    )
    res_s = barycenter_fixed_support(shifted, sup + v)
    assert abs(res.objective - res_s.objective) <= 1e-8 * max(1.0, res.objective)
    assert np.allclose(res.nu0.weights, res_s.nu0.weights, atol=1e-7)


def test_fixed_support_dimension_check():
    fam = family([("a", 1.0, dirac([0.0]))])
    with pytest.raises(SupportDimensionMismatchError):
        barycenter_fixed_support(fam, np.array([[0.0, 1.0]]))


# --- entropic -----------------------------------------------------------------

def test_entropic_single_atom_near_zero():
    mu = make_measure([0.1, 0.5, 0.9], [1.0, 2.0, 1.0])
    fam = family([("a", 1.0, mu)])
    res = barycenter_entropic(fam, mu.support, epsilon=0.005, max_iter=5000,
                              tol=1e-12)
    assert res.objective <= 1e-6
    assert res.converged


def test_entropic_two_diracs_concentrates_on_midpoint():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    res = barycenter_entropic(fam, np.array([0.0, 1.0, 2.0]), epsilon=0.01,
                              max_iter=2000)
    assert res.nu0.weights[1] >= 0.99


def test_entropic_gap_to_exact_is_small(rng):
    for _ in range(4):
        fam = random_family(rng, n_atoms=3, max_pts=4, m=1, unit=True)
        sup = default_support(fam)
        ex = barycenter_fixed_support(fam, sup)
        en = barycenter_entropic(fam, sup, epsilon=0.01, max_iter=4000)
        gap = en.objective - ex.objective
        assert -1e-9 <= gap <= 0.05


# --- free support ---------------------------------------------------------------

def test_free_support_k1_is_global_mean(rng):
    fam = random_family(rng, n_atoms=3, max_pts=5, m=2)
    res = barycenter_free_support(fam, k=1, init_seed=4, max_iter=50)
    gm = sum(a.p * mean(a.law) for a in fam.atoms)
    assert np.allclose(res.nu0.support[0], gm, atol=1e-9)
    # W2^2 to a Dirac is the mean squared distance about it
    total_var = sum(
        a.p * (second_moment(a.law) - 2 * mean(a.law) @ gm + gm @ gm)
        for a in fam.atoms
    )
    assert abs(res.objective - total_var) <= 1e-9 * max(1.0, total_var)


def test_free_support_two_diracs_k1():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    res = barycenter_free_support(fam, k=1, init_seed=0, max_iter=20)
    assert np.allclose(res.nu0.support[0], [1.0], atol=1e-12)
    assert abs(res.objective - 1.0) <= 1e-12


def test_free_support_matches_quantile_closed_form(rng):
    # equal-size atoms with uniform weights and k = total support size:
    # the fixed point is the global optimum, equal to the 1-D closed form
    for _ in range(4):
        n = int(rng.integers(2, 5))
        n_atoms = int(rng.integers(2, 4))
        p = rng.random(n_atoms) + 0.2
        p /= p.sum()
        fam = family([
            (f"g{a}", p[a], make_measure(rng.normal(size=n), np.ones(n)))
            for a in range(n_atoms)
        ])
        k = n * n_atoms
        free = barycenter_free_support(fam, k=k, init_seed=7, max_iter=200,
                                       tol=1e-12)
        ref = barycenter_1d(fam, k)
        assert abs(free.objective - ref.objective) <= 1e-6


def test_free_support_monotone_history(rng):
    fam = random_family(rng, n_atoms=3, max_pts=4, m=2)
    res = barycenter_free_support(fam, k=3, init_seed=2, max_iter=40)
    hist = np.asarray(res.history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_free_support_seed_determinism(rng):
    fam = random_family(rng, n_atoms=2, max_pts=4, m=2)
    a = barycenter_free_support(fam, k=3, init_seed=11, max_iter=30)
    b = barycenter_free_support(fam, k=3, init_seed=11, max_iter=30)
    assert np.array_equal(a.nu0.support, b.nu0.support)
    assert a.objective == b.objective


def test_free_support_k_bounds(rng):
    fam = random_family(rng, n_atoms=2, max_pts=3, m=1)
    with pytest.raises(ValueError):
        barycenter_free_support(fam, k=0)
    with pytest.raises(ValueError):
        barycenter_free_support(fam, k=mixture(fam).n + 1)


# --- 1-D closed form -------------------------------------------------------------

def test_quantile_single_atom_grid_aligned():
    mu = make_measure([3.0, 1.0], [1.0, 1.0])
    fam = family([("a", 1.0, mu)])
    res = barycenter_1d(fam, resolution=2)
    assert res.nu0.support.ravel().tolist() == [1.0, 3.0]
    assert res.objective <= 1e-15


def test_quantile_two_diracs():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    res = barycenter_1d(fam, resolution=2)
    assert res.nu0.support.ravel().tolist() == [1.0]
    assert abs(res.objective - 1.0) <= 1e-15


def test_quantile_hand_instance_cross_checked_with_lp():
    # atoms (1/2, delta_0), (1/2, {0: 1/2, 2: 1/2}), R = 2
    fam = family([
        ("a", 0.5, dirac([0.0])),
        ("b", 0.5, make_measure([0.0, 2.0], [1.0, 1.0])),
    ])
    res = barycenter_1d(fam, resolution=2)
    assert res.nu0.support.ravel().tolist() == [0.0, 1.0]
    assert np.allclose(res.nu0.weights, [0.5, 0.5])
    assert abs(res.objective - 0.5) <= 1e-12
    lp = barycenter_fixed_support(fam, np.array([0.0, 1.0, 2.0]))
    assert abs(lp.objective - res.objective) <= 1e-10


def test_quantile_grid_agrees_with_lp_when_aligned(rng):
    # uniform weights over n points with R = n: grid-aligned, so the
    # quantile form is the unrestricted optimum; the LP on its image
    # support must agree
    for _ in range(5):
        n = int(rng.integers(2, 6))
        n_atoms = int(rng.integers(2, 4))
        p = rng.random(n_atoms) + 0.2
        p /= p.sum()
        fam = family([
            (f"g{a}", p[a], make_measure(rng.normal(size=n), np.ones(n)))
            for a in range(n_atoms)
        ])
        res = barycenter_1d(fam, resolution=n)
        lp = barycenter_fixed_support(fam, res.nu0.support)
        assert abs(res.objective - lp.objective) <= 1e-8 * max(1.0, lp.objective)


def test_quantile_exact_arbitrary_weights(rng):
    # the breakpoint construction needs no grid alignment: check it beats
    # the R-grid version and agrees with the LP on its own support
    for _ in range(5):
        fam = random_family(rng, n_atoms=3, max_pts=4, m=1)
        exact = barycenter_1d_exact(fam)
        lp = barycenter_fixed_support(fam, exact.nu0.support)
        assert exact.objective <= lp.objective + 1e-9
        grid = barycenter_1d(fam, resolution=64)
        assert exact.objective <= grid.objective + 1e-12


def test_quantile_requires_1d():
    fam = family([("a", 1.0, dirac([0.0, 0.0]))])
    with pytest.raises(DimensionNotOneError):
        barycenter_1d(fam, resolution=4)
    with pytest.raises(DimensionNotOneError):
        barycenter_1d_exact(fam)


# --- cross-method invariants ------------------------------------------------------

def test_per_atom_w2_matches_exact_solver(rng):
    fam = random_family(rng, n_atoms=3, max_pts=4, m=2)
    res = barycenter_fixed_support(fam, default_support(fam))
    for a in fam.atoms:
        direct = wasserstein_sq(a.law, res.nu0, method="exact")
        assert abs(res.per_atom_w2[a.label] - direct) <= 1e-8


def test_negligible_atoms_dropped_with_warning():
    import warnings

    fam = family([
        ("a", 0.5 - 5e-14, dirac([0.0])),
        ("b", 0.5 - 5e-14, dirac([2.0])),
        ("z", 1e-13, dirac([99.0])),
    ])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = barycenter_1d_exact(fam)
    assert any("negligible" in str(w.message) for w in caught)
    # the solver ignores the featherweight atom, the reported objective
    # still accounts for it honestly
    assert res.nu0.support.ravel().tolist() == [1.0]
    assert abs(res.objective - 1.0) <= 1e-8
    assert res.per_atom_w2["z"] == pytest.approx(98.0**2)


def test_restricted_global_optimality_on_union(rng):
    # candidates supported on the union grid can never beat the LP result
    for _ in range(3):
        fam = random_family(rng, n_atoms=3, max_pts=3, m=2)
        sup = default_support(fam)
        res = barycenter_fixed_support(fam, sup)
        for _ in range(40):
            cand = make_measure(sup, rng.dirichlet(np.ones(len(sup))) + 1e-12)
            assert res.objective <= objective(fam, cand) + 1e-8

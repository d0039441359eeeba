import numpy as np
import pytest

from otrepair.approx import lower_bound
from otrepair.barycenter import _assemble_joint_lp, default_support, solve_barycenter
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
from otrepair.ot import optimal_coupling, wasserstein_sq

from conftest import random_family, simplex_objective
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


# --- objective: the package's lower_bound and the test-local simplex route ------

OBJECTIVES = (lower_bound, simplex_objective)


def test_objective_zero_when_equal():
    mu = make_measure([0.0, 1.0], [1.0, 2.0])
    fam = family([("a", 0.5, mu), ("b", 0.5, mu)])
    for objective in OBJECTIVES:
        assert objective(fam, mu) <= 1e-12


def test_objective_two_diracs_vs_middle():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    for objective in OBJECTIVES:
        assert objective(fam, dirac([1.0])) == 1.0


def test_objective_two_diracs_vs_spread():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    nu = make_measure([0.0, 2.0], [1.0, 1.0])
    # each 1x2 transport is forced: half the mass moves distance 2
    for objective in OBJECTIVES:
        assert objective(fam, nu) == 2.0


def test_objective_dimension_check():
    fam = family([("a", 1.0, dirac([0.0]))])
    for objective in OBJECTIVES:
        with pytest.raises(DimensionMismatchError):
            objective(fam, dirac([0.0, 1.0]))


# --- fixed support exact -------------------------------------------------------

def test_joint_lp_layout_on_a_product_plan():
    # dyadic weights keep every product and sum exact, so the product
    # plan [vec(mu_a (x) w)..., w] must satisfy A x = b to the last bit
    mus = [make_measure([0.0, 1.0], [1.0, 3.0]),
           make_measure([[2.0], [-1.0], [0.5]], [2.0, 1.0, 1.0])]
    fam = family([("a", 0.25, mus[0]), ("b", 0.75, mus[1])])
    S = np.array([[0.0], [1.5], [-2.0]])
    w = np.array([0.5, 0.125, 0.375])
    c, A, b = _assemble_joint_lp(fam, S)
    K, n = len(S), sum(mu.n for mu in mus)
    assert A.shape == (n + len(mus) * K + 1, n * K + K)
    assert A.nnz == 2 * n * K + (len(mus) + 1) * K
    assert set(A.data.tolist()) <= {-1.0, 1.0}
    x = np.concatenate([np.outer(mu.weights, w).ravel() for mu in mus] + [w])
    assert np.array_equal(A @ x, b)
    assert np.array_equal(b, np.concatenate([mus[0].weights, mus[1].weights,
                                             np.zeros(2 * K), [1.0]]))
    # costs are p_a |x_i - S_j|^2, row-major per atom, and w is free
    expect = [a.p * (a.law.support[:, None, 0] - S[None, :, 0]) ** 2 for a in fam.atoms]
    assert np.array_equal(c, np.concatenate([e.ravel() for e in expect] + [np.zeros(K)]))


def test_fixed_support_single_atom_recovers_itself():
    mu = make_measure([0.0, 1.0, 3.0], [1.0, 2.0, 1.0])
    fam = family([("a", 1.0, mu)])
    highs = solve_barycenter(fam, "exact", support=mu.support).nu0
    bland, _ = bland_fixed_support(fam, mu.support)
    for nu0 in (highs, bland):
        assert simplex_objective(fam, nu0) <= 1e-10
        assert np.allclose(nu0.weights, mu.weights, atol=1e-9)


def test_fixed_support_two_diracs_midpoint_1d():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    grid = np.array([0.0, 1.0, 2.0])
    oracle = dirac_grid_oracle([0.5, 0.5], [0.0, 2.0], grid)
    assert abs(oracle - 1.0) <= 1e-9
    highs = solve_barycenter(fam, "exact", support=grid).nu0
    bland, _ = bland_fixed_support(fam, grid)
    for nu0 in (highs, bland):
        assert abs(simplex_objective(fam, nu0) - 1.0) <= 1e-10
        assert abs(nu0.weights[1] - 1.0) <= 1e-9


def test_fixed_support_two_diracs_midpoint_2d():
    fam = family([("a", 0.5, dirac([0.0, 0.0])), ("b", 0.5, dirac([2.0, 0.0]))])
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    oracle = dirac_grid_oracle([0.5, 0.5], [[0.0, 0.0], [2.0, 0.0]], grid)
    assert abs(oracle - 1.0) <= 1e-9
    res = solve_barycenter(fam, "exact", support=grid)
    assert abs(lower_bound(fam, res.nu0) - 1.0) <= 1e-10
    assert abs(res.nu0.weights[1] - 1.0) <= 1e-9


def test_fixed_support_engines_agree(rng):
    for _ in range(5):
        fam = random_family(rng, n_atoms=2, max_pts=3, m=1)
        sup = default_support(fam)
        a = solve_barycenter(fam, "exact", support=sup)
        obj = lower_bound(fam, a.nu0)
        b, b_lp = bland_fixed_support(fam, sup)
        assert abs(obj - simplex_objective(fam, b)) <= 1e-9 * max(1.0, obj)
        assert abs(a.lp_objective - b_lp) <= 1e-9 * max(1.0, obj)


def test_fixed_support_lp_value_matches_exact_evaluation(rng):
    for _ in range(5):
        fam = random_family(rng, n_atoms=3, max_pts=5, m=2)
        res = solve_barycenter(fam, "exact", support=default_support(fam))
        obj = lower_bound(fam, res.nu0)
        assert abs(res.lp_objective - obj) <= 1e-8 * max(1.0, obj)
        total = simplex_objective(fam, res.nu0)
        assert abs(obj - total) <= 1e-10 * max(1.0, total)


def test_fixed_support_beats_random_candidates(rng):
    for _ in range(3):
        fam = random_family(rng, n_atoms=2, max_pts=4, m=1)
        sup = default_support(fam)
        obj = lower_bound(fam, solve_barycenter(fam, "exact", support=sup).nu0)
        for _ in range(60):
            w = rng.dirichlet(np.ones(len(sup)))
            cand = make_measure(sup, w + 1e-12)
            assert obj <= simplex_objective(fam, cand) + 1e-8


def test_fixed_support_mean_property_when_grid_contains_optimum(rng):
    # grid = image of the exact quantile average: the restricted optimum
    # is the unrestricted one, so its mean matches the family mean
    for _ in range(5):
        fam = random_family(rng, m=1)
        exact = solve_barycenter(fam, "quantile1d")
        res = solve_barycenter(fam, "exact", support=exact.nu0.support)
        target = sum(a.p * mean(a.law) for a in fam.atoms)
        assert np.max(np.abs(mean(res.nu0) - target)) <= 1e-8


def test_fixed_support_translation_equivariance(rng):
    fam = random_family(rng, n_atoms=3, max_pts=4, m=2)
    sup = default_support(fam)
    res = solve_barycenter(fam, "exact", support=sup)
    v = np.array([1.5, -2.0])
    shifted = family(
        [(a.label, a.p, a.law.translate(v)) for a in fam.atoms]
    )
    res_s = solve_barycenter(shifted, "exact", support=sup + v)
    obj = lower_bound(fam, res.nu0)
    assert abs(obj - lower_bound(shifted, res_s.nu0)) <= 1e-8 * max(1.0, obj)
    assert np.allclose(res.nu0.weights, res_s.nu0.weights, atol=1e-7)


def test_fixed_support_dimension_check():
    fam = family([("a", 1.0, dirac([0.0]))])
    with pytest.raises(SupportDimensionMismatchError):
        solve_barycenter(fam, "exact", support=np.array([[0.0, 1.0]]))


# --- entropic -----------------------------------------------------------------

def test_entropic_single_atom_near_zero():
    mu = make_measure([0.1, 0.5, 0.9], [1.0, 2.0, 1.0])
    fam = family([("a", 1.0, mu)])
    res = solve_barycenter(fam, "entropic", support=mu.support, epsilon=0.005,
                           max_iter=5000, tol=1e-12)
    assert lower_bound(fam, res.nu0) <= 1e-6
    assert res.converged


def test_entropic_two_diracs_concentrates_on_midpoint():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    res = solve_barycenter(fam, "entropic", support=np.array([0.0, 1.0, 2.0]),
                           epsilon=0.01, max_iter=2000)
    assert res.nu0.weights[1] >= 0.99


def test_entropic_gap_to_exact_is_small(rng):
    for _ in range(4):
        fam = random_family(rng, n_atoms=3, max_pts=4, m=1, unit=True)
        sup = default_support(fam)
        ex = solve_barycenter(fam, "exact", support=sup)
        en = solve_barycenter(fam, "entropic", support=sup, epsilon=0.01,
                              max_iter=4000)
        gap = lower_bound(fam, en.nu0) - lower_bound(fam, ex.nu0)
        assert -1e-9 <= gap <= 0.05


# --- free support ---------------------------------------------------------------

def test_free_support_k1_is_global_mean(rng):
    fam = random_family(rng, n_atoms=3, max_pts=5, m=2)
    res = solve_barycenter(fam, "free", k=1, init_seed=4, max_iter=50)
    gm = sum(a.p * mean(a.law) for a in fam.atoms)
    assert np.allclose(res.nu0.support[0], gm, atol=1e-9)
    # W2^2 to a Dirac is the mean squared distance about it
    total_var = sum(
        a.p * (second_moment(a.law) - 2 * mean(a.law) @ gm + gm @ gm)
        for a in fam.atoms
    )
    assert abs(lower_bound(fam, res.nu0) - total_var) <= 1e-9 * max(1.0, total_var)


def test_free_support_two_diracs_k1():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    res = solve_barycenter(fam, "free", k=1, init_seed=0, max_iter=20)
    assert np.allclose(res.nu0.support[0], [1.0], atol=1e-12)
    assert abs(lower_bound(fam, res.nu0) - 1.0) <= 1e-12


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
        free = solve_barycenter(fam, "free", k=k, init_seed=7, max_iter=200,
                                tol=1e-12)
        ref = solve_barycenter(fam, "quantile1d", resolution=k)
        assert abs(lower_bound(fam, free.nu0) - lower_bound(fam, ref.nu0)) <= 1e-6


def test_free_support_monotone_history(rng):
    fam = random_family(rng, n_atoms=3, max_pts=4, m=2)
    res = solve_barycenter(fam, "free", k=3, init_seed=2, max_iter=40)
    hist = np.asarray(res.history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_free_support_seed_determinism(rng):
    fam = random_family(rng, n_atoms=2, max_pts=4, m=2)
    a = solve_barycenter(fam, "free", k=3, init_seed=11, max_iter=30)
    b = solve_barycenter(fam, "free", k=3, init_seed=11, max_iter=30)
    assert np.array_equal(a.nu0.support, b.nu0.support)
    assert lower_bound(fam, a.nu0) == lower_bound(fam, b.nu0)


def test_free_support_k_bounds(rng):
    fam = random_family(rng, n_atoms=2, max_pts=3, m=1)
    with pytest.raises(ValueError):
        solve_barycenter(fam, "free", k=0)
    with pytest.raises(ValueError):
        solve_barycenter(fam, "free", k=mixture(fam).n + 1)


# --- 1-D closed form -------------------------------------------------------------

def test_quantile_single_atom_grid_aligned():
    mu = make_measure([3.0, 1.0], [1.0, 1.0])
    fam = family([("a", 1.0, mu)])
    res = solve_barycenter(fam, "quantile1d", resolution=2)
    assert res.nu0.support.ravel().tolist() == [1.0, 3.0]
    assert lower_bound(fam, res.nu0) <= 1e-15


def test_quantile_two_diracs():
    fam = family([("a", 0.5, dirac([0.0])), ("b", 0.5, dirac([2.0]))])
    res = solve_barycenter(fam, "quantile1d", resolution=2)
    assert res.nu0.support.ravel().tolist() == [1.0]
    assert abs(lower_bound(fam, res.nu0) - 1.0) <= 1e-15


def test_quantile_hand_instance_cross_checked_with_lp():
    # atoms (1/2, delta_0), (1/2, {0: 1/2, 2: 1/2}), R = 2
    fam = family([
        ("a", 0.5, dirac([0.0])),
        ("b", 0.5, make_measure([0.0, 2.0], [1.0, 1.0])),
    ])
    res = solve_barycenter(fam, "quantile1d", resolution=2)
    assert res.nu0.support.ravel().tolist() == [0.0, 1.0]
    assert np.allclose(res.nu0.weights, [0.5, 0.5])
    assert abs(lower_bound(fam, res.nu0) - 0.5) <= 1e-12
    lp = solve_barycenter(fam, "exact", support=np.array([0.0, 1.0, 2.0]))
    assert abs(lower_bound(fam, lp.nu0) - lower_bound(fam, res.nu0)) <= 1e-10


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
        res = solve_barycenter(fam, "quantile1d", resolution=n)
        lp = solve_barycenter(fam, "exact", support=res.nu0.support)
        lp_obj = lower_bound(fam, lp.nu0)
        assert abs(lower_bound(fam, res.nu0) - lp_obj) <= 1e-8 * max(1.0, lp_obj)


def test_quantile_exact_arbitrary_weights(rng):
    # the breakpoint construction needs no grid alignment: check it beats
    # the R-grid version and agrees with the LP on its own support
    for _ in range(5):
        fam = random_family(rng, n_atoms=3, max_pts=4, m=1)
        exact = solve_barycenter(fam, "quantile1d")
        obj = lower_bound(fam, exact.nu0)
        lp = solve_barycenter(fam, "exact", support=exact.nu0.support)
        assert obj <= lower_bound(fam, lp.nu0) + 1e-9
        grid = solve_barycenter(fam, "quantile1d", resolution=64)
        assert obj <= lower_bound(fam, grid.nu0) + 1e-12


def test_quantile_requires_1d():
    fam = family([("a", 1.0, dirac([0.0, 0.0]))])
    with pytest.raises(DimensionNotOneError):
        solve_barycenter(fam, "quantile1d", resolution=4)
    with pytest.raises(DimensionNotOneError):
        solve_barycenter(fam, "quantile1d")


# --- cross-method invariants ------------------------------------------------------

def test_per_atom_w2_matches_exact_solver(rng):
    # the per-atom costs behind lower_bound (comonotone in 1-D) against
    # fresh network-simplex solves
    for m, method in ((1, "quantile1d"), (2, "exact")):
        fam = random_family(rng, n_atoms=3, max_pts=4, m=m)
        res = solve_barycenter(fam, method)
        for a in fam.atoms:
            direct = wasserstein_sq(a.law, res.nu0, method="exact")
            assert abs(optimal_coupling(a.law, res.nu0).cost - direct) <= 1e-8


def test_negligible_atoms_dropped_with_warning():
    import warnings

    fam = family([
        ("a", 0.5 - 5e-14, dirac([0.0])),
        ("b", 0.5 - 5e-14, dirac([2.0])),
        ("z", 1e-13, dirac([99.0])),
    ])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = solve_barycenter(fam, "quantile1d")
    assert any("negligible" in str(w.message) for w in caught)
    # the solver ignores the featherweight atom, the reported objective
    # still accounts for it honestly
    assert res.nu0.support.ravel().tolist() == [1.0]
    assert abs(lower_bound(fam, res.nu0) - 1.0) <= 1e-8
    assert optimal_coupling(fam.atoms[2].law, res.nu0).cost == pytest.approx(98.0**2)


def test_restricted_global_optimality_on_union(rng):
    # candidates supported on the union grid can never beat the LP result
    for _ in range(3):
        fam = random_family(rng, n_atoms=3, max_pts=3, m=2)
        sup = default_support(fam)
        obj = lower_bound(fam, solve_barycenter(fam, "exact", support=sup).nu0)
        for _ in range(40):
            cand = make_measure(sup, rng.dirichlet(np.ones(len(sup))) + 1e-12)
            assert obj <= simplex_objective(fam, cand) + 1e-8

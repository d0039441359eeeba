import numpy as np
import pytest
from scipy import sparse

import otrepair.barycenter
import otrepair.ot
from otrepair.approx import lower_bound
from otrepair.barycenter import (
    default_support,
    entropic_weights,
    fixed_support_weights,
    free_support_points,
    solve_barycenter,
)
from otrepair.errors import (
    DimensionMismatchError,
    DimensionNotOneError,
    SupportDimensionMismatchError,
)
from otrepair.measure import (
    ConditionalFamily,
    DiscreteMeasure,
    dirac,
    family,
    make_measure,
    mean,
    mixture,
)
from otrepair.ot import Coupling, _assemble_joint_lp, _logsumexp, cost_matrix, solve_exact

from conftest import optimal_coupling, random_family, simplex_objective
from densesimplex import solve_standard_form


def bland_fixed_support(fam, support):
    """The joint LP solved by the dense Bland simplex oracle: (nu0, LP value)."""
    S = np.asarray(support, dtype=float).reshape(len(support), -1)
    c, A, b = _assemble_joint_lp(fam, cost_matrix(fam.support, S))
    out = solve_standard_form(c, A.toarray(), b)
    w = np.maximum(out.x[-len(S):], 0.0)
    return DiscreteMeasure(S, w / w.sum()), out.fun


def block_diag_joint_lp(fam, costs):
    """The joint LP assembled atom by atom, from each atom's cost matrix
    and block-diagonal constraint blocks: the oracle of
    ``_assemble_joint_lp``, which reads the family's flat layout."""
    K = costs[0].shape[1]
    atoms = fam.atoms
    c = np.concatenate([(a.p * C).ravel() for a, C in zip(atoms, costs)] + [np.zeros(K)])
    row_sums, col_sums = [], []
    for a in atoms:
        n = a.law.n
        cells, ones = np.arange(n * K), np.ones(n * K)
        row_sums.append(sparse.coo_matrix((ones, (cells // K, cells)), shape=(n, n * K)))
        col_sums.append(sparse.coo_matrix((ones, (cells % K, cells)), shape=(K, n * K)))
    A = sparse.bmat([
        [sparse.block_diag(row_sums), None],
        [sparse.block_diag(col_sums), -sparse.vstack([sparse.eye(K)] * len(atoms))],
        [None, np.ones((1, K))],
    ], format="csr")
    b = np.concatenate([a.law.weights for a in atoms] + [np.zeros(len(atoms) * K), [1.0]])
    return c, A, b


def per_atom_entropic_weights(fam, S, epsilon, max_iter, tol):
    """The Bregman projections atom by atom, one kernel per atom: the
    oracle of ``entropic_weights``, which runs them on one flat kernel.
    Returns (measure, sweeps, converged)."""
    K = S.shape[0]
    probs = fam.probabilities
    logKs = [-cost_matrix(a.law.support, S) / epsilon for a in fam.atoms]
    with np.errstate(divide="ignore"):
        log_mus = [np.log(a.law.weights) for a in fam.atoms]
    gs = [np.zeros(K) for _ in fam.atoms]
    w = np.full(K, 1.0 / K)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        logw = np.zeros(K)
        Ss = []
        for a in range(len(fam)):
            f = log_mus[a] - _logsumexp(logKs[a] + gs[a][None, :], axis=1)
            Ss.append(_logsumexp(logKs[a] + f[:, None], axis=0))
            logw = logw + probs[a] * Ss[a]
        for a in range(len(fam)):
            gs[a] = logw - Ss[a]
        w_new = np.exp(logw - logw.max())
        w_new = w_new / w_new.sum()
        delta = float(np.abs(w_new - w).sum())
        w = w_new
        if delta < tol:
            converged = True
            break
    return DiscreteMeasure(S, w), it, converged


def per_atom_free_support(fam, k, init_seed, max_iter, tol):
    """The free-support rounds with one ``optimal_coupling`` per atom and
    the BLAS update ``g.T @ support``: the oracle of
    ``free_support_points``.  Returns (points, objective history)."""
    mix = mixture(fam)
    idx = np.random.default_rng(init_seed).choice(mix.n, size=k, replace=False,
                                                  p=mix.weights)
    Y, w = mix.support[np.sort(idx)].copy(), np.full(k, 1.0 / k)
    history = []
    for _ in range(max_iter):
        sols = [optimal_coupling(a.law, DiscreteMeasure(Y, w)) for a in fam.atoms]
        history.append(float(sum(a.p * s.cost for a, s in zip(fam.atoms, sols))))
        targets, col_mass = np.zeros_like(Y), np.zeros(k)
        for a, s in zip(fam.atoms, sols):
            g = s.coupling.weights
            targets += a.p * (g.T @ a.law.support)
            col_mass += a.p * g.sum(axis=0)
        Y_new = targets / col_mass[:, None]
        shift = float(np.max(np.abs(Y_new - Y)))
        Y = Y_new
        if shift < tol:
            break
    return Y, history


def lp_value(fam, res):
    """The joint LP's value: the p-weighted costs of its couplings."""
    return sum(p * c for p, c in zip(fam.probabilities.tolist(), res.couplings[-1].tolist()))


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
    sq = [(a.law.support[:, None, 0] - S[None, :, 0]) ** 2 for a in fam.atoms]
    c, A, b = _assemble_joint_lp(fam, np.concatenate(sq))
    K, n = len(S), sum(mu.n for mu in mus)
    assert A.shape == (n + len(mus) * K + 1, n * K + K)
    assert A.nnz == 2 * n * K + (len(mus) + 1) * K
    assert set(A.data.tolist()) <= {-1.0, 1.0}
    x = np.concatenate([np.outer(mu.weights, w).ravel() for mu in mus] + [w])
    assert np.array_equal(A @ x, b)
    assert np.array_equal(b, np.concatenate([mus[0].weights, mus[1].weights,
                                             np.zeros(2 * K), [1.0]]))
    # costs are p_a |x_i - S_j|^2, row-major per atom, and w is free
    expect = [a.p * C for a, C in zip(fam.atoms, sq)]
    assert np.array_equal(c, np.concatenate([e.ravel() for e in expect] + [np.zeros(K)]))


def test_joint_lp_is_the_per_atom_block_assembly():
    # c, the CSR arrays of A (with their dtypes) and b hold the bytes of the
    # per-atom assembly, and each atom's rows of the one cost matrix are its
    # own cost matrix, on 300 families over six decades of scale
    rng = np.random.default_rng(15)
    for trial in range(300):
        m, scale = trial % 3 + 1, 10.0 ** rng.uniform(-3.0, 3.0)
        p = rng.random(int(rng.integers(1, 7))) + 0.05
        sizes = rng.integers(1, 12, size=len(p))
        fam = family([(f"g{a}", p_a, make_measure(scale * rng.normal(size=(n, m)),
                                                  rng.random(n) + 0.05))
                      for a, (p_a, n) in enumerate(zip((p / p.sum()).tolist(), sizes))])
        S = scale * rng.normal(size=(int(rng.integers(1, 9)), m))
        C = cost_matrix(fam.support, S)
        costs = [cost_matrix(a.law.support, S) for a in fam.atoms]
        for a, lo, hi in zip(range(len(fam)), fam.starts, fam.starts[1:]):
            assert C[lo:hi].tobytes() == costs[a].tobytes()
        c, A, b = _assemble_joint_lp(fam, C)
        c0, A0, b0 = block_diag_joint_lp(fam, costs)
        assert A.shape == A0.shape
        for flat, blocks in ((c, c0), (A.indptr, A0.indptr), (A.indices, A0.indices),
                             (A.data, A0.data), (b, b0)):
            assert flat.dtype == blocks.dtype and flat.tobytes() == blocks.tobytes()


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
        assert abs(lp_value(fam, a) - b_lp) <= 1e-9 * max(1.0, obj)


def test_fixed_support_lp_value_matches_exact_evaluation(rng):
    for _ in range(5):
        fam = random_family(rng, n_atoms=3, max_pts=5, m=2)
        res = solve_barycenter(fam, "exact", support=default_support(fam))
        obj = lower_bound(fam, res.nu0)
        assert abs(lp_value(fam, res) - obj) <= 1e-8 * max(1.0, obj)
        total = simplex_objective(fam, res.nu0)
        assert abs(obj - total) <= 1e-10 * max(1.0, total)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_joint_lp_couplings_are_certified(rng, scale):
    # every coupling the joint LP hands out, laid out dense, passes the
    # checks of a Coupling of the atom's law with nu0, costs what its plan
    # does, and its row potentials close the duality gap through their
    # c-transform, the certificate verify uses
    for _ in range(10):
        fam = random_family(rng, n_atoms=3, max_pts=6, m=2)
        fam = family([(a.label, a.p, DiscreteMeasure(a.law.support * np.sqrt(scale),
                                                     a.law.weights))
                      for a in fam.atoms])
        res = solve_barycenter(fam, "exact", support=default_support(fam))
        rows, cols, flow, u, costs = res.couplings
        assert len(u) == fam.starts[-1] and len(costs) == len(fam)
        assert np.all(flow > 0.0)
        plan = np.zeros((fam.starts[-1], res.nu0.n))
        plan[rows, cols] = flow
        for a, lo, hi, cost in zip(fam.atoms, fam.starts, fam.starts[1:], costs.tolist()):
            Coupling(a.law, res.nu0, plan[lo:hi])
            C = cost_matrix(a.law.support, res.nu0.support)
            assert cost == float(np.einsum("ij,ij->", plan[lo:hi], C))
            u_c = (C - u[lo:hi, None]).min(axis=0)
            gap = cost - (a.law.weights @ u[lo:hi] + res.nu0.weights @ u_c)
            assert abs(gap) <= 1e-10 * cost


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
    with pytest.raises(SupportDimensionMismatchError, match="nonempty point list"):
        fixed_support_weights(fam, np.empty((0, 1)))


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


def test_entropic_is_bitwise_the_per_atom_projections():
    # one flat kernel with per-atom column log-sum-exps keeps every float
    # of the projections run atom by atom
    rng = np.random.default_rng(16)
    for trial in range(300):
        m, epsilon = trial % 3 + 1, (0.01, 0.05, 0.5)[trial // 3 % 3]
        p = rng.random(int(rng.integers(1, 7))) + 0.05
        fam = family([(f"g{a}", p_a, make_measure(rng.normal(size=(n, m)),
                                                  rng.random(n) + 0.05))
                      for a, (p_a, n) in enumerate(zip((p / p.sum()).tolist(),
                                                       rng.integers(1, 10, size=len(p))))])
        S = (default_support(fam) if trial % 2
             else rng.normal(size=(int(rng.integers(1, 9)), m)))
        nu0, it, converged = entropic_weights(fam, S, epsilon, 40, 1e-9)
        ref, it0, converged0 = per_atom_entropic_weights(fam, S, epsilon, 40, 1e-9)
        assert nu0.weights.tobytes() == ref.weights.tobytes()
        assert (it, converged) == (it0, converged0)


def test_entropic_forms_one_cost_matrix(rng, monkeypatch):
    calls = []
    real = otrepair.barycenter.cost_matrix

    def counted(x, y):
        calls.append(len(x))
        return real(x, y)

    monkeypatch.setattr(otrepair.barycenter, "cost_matrix", counted)
    fam = random_family(rng, n_atoms=40, max_pts=6, m=2)
    solve_barycenter(fam, "entropic", epsilon=0.5, max_iter=20)
    assert calls == [len(fam.support)]


# --- free support ---------------------------------------------------------------

def test_free_support_1d_solves_no_pairwise_coupling(monkeypatch):
    # every round couples the whole family in one batched staircase
    def forbidden(*args):
        raise AssertionError("one-pair comonotone coupling solved")

    monkeypatch.setattr(otrepair.ot, "solve_comonotone_1d", forbidden)
    rng = np.random.default_rng(3)
    fam = family([(f"g{a}", 1 / 40, make_measure(rng.normal(size=10) + a % 5, np.ones(10)))
                  for a in range(40)])
    res = solve_barycenter(fam, "free", k=20, max_iter=2)
    assert res.iterations == 2


def test_free_support_m2_matches_the_per_atom_rounds():
    rng = np.random.default_rng(17)
    for _ in range(10):
        fam = random_family(rng, n_atoms=4, max_pts=6, m=2)
        k = int(rng.integers(1, mixture(fam).n + 1))
        nu0, _, _, history = free_support_points(fam, k, 5, 15, 1e-9)
        Y, ref = per_atom_free_support(fam, k, 5, 15, 1e-9)
        scale = np.max(np.abs(Y))
        assert np.max(np.abs(nu0.support - Y)) <= 1e-12 * scale
        assert len(history) == len(ref)
        assert np.max(np.abs(np.array(history) - ref)) <= 1e-12 * ref[0]
        assert np.all(np.diff(history) <= 0.0)



def test_free_support_k1_is_global_mean(rng):
    fam = random_family(rng, n_atoms=3, max_pts=5, m=2)
    res = solve_barycenter(fam, "free", k=1, init_seed=4, max_iter=50)
    gm = sum(a.p * mean(a.law) for a in fam.atoms)
    assert np.allclose(res.nu0.support[0], gm, atol=1e-9)
    # W2^2 to a Dirac is the mean squared distance about it
    total_var = sum(
        a.p * float(a.law.weights @ np.sum((a.law.support - gm) ** 2, axis=1))
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


def test_quantile_couplings_where_cumulative_weights_pass_1_before_a_zero_weight():
    # atom a's cumulative weights reach 1.0000000000000002 at its fourth
    # point, before its zero-weight fifth: every one must stay at 1 for the
    # merge, or the staircase gives its last arc a negative flow
    fam = ConditionalFamily(("a", "b"), [0.5, 0.5], [0, 5, 7],
                            [[0], [1], [2], [3], [4], [0.5], [2.5]],
                            [0.2, 0.4, 0.3, 0.1, 0.0, 0.5, 0.5])
    assert np.cumsum(fam.weights[:4])[-1] > 1.0
    res = solve_barycenter(fam, "quantile1d")
    rows, cols, flow, u, costs = res.couplings
    for lo, hi in zip(fam.starts.tolist(), fam.starts[1:].tolist()):
        plan = np.zeros((hi - lo, res.nu0.n))
        mine = (rows >= lo) & (rows < hi)
        plan[rows[mine] - lo, cols[mine]] = flow[mine]
        Coupling(DiscreteMeasure(fam.support[lo:hi], fam.weights[lo:hi]), res.nu0, plan)
    assert otrepair.barycenter._total(fam.probabilities, costs) == lower_bound(fam, res.nu0)


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
            direct = solve_exact(a.law, res.nu0).cost
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

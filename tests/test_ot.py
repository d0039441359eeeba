from types import SimpleNamespace

import numpy as np
import pytest

import otrepair.ot
from otrepair.cli import main
from otrepair.errors import (
    EXIT_SCHEMA,
    DimensionMismatchError,
    DimensionNotOneError,
    NegativeWeightError,
    NonFiniteValueError,
    SolverFailureError,
    WeightSumError,
)
from otrepair.barycenter import (
    default_support,
    fixed_support_weights,
    quantile_exact_measure,
    solve_barycenter,
)
from otrepair.measure import DiscreteMeasure, coalesce, dirac, family, make_measure
from otrepair.ot import (
    Coupling,
    _check_marginals,
    _family_couplings,
    _staircases,
    comonotone_staircases,
    cost_matrix,
    solve_comonotone_1d,
    solve_entropic,
    solve_exact,
)

from conftest import optimal_coupling, random_measure
from northwest import comonotone_reference


# --- oracles (independent of the solvers under test) ------------------------

def sorted_nw_cost(mu, nu):
    """1-D optimal cost by merging sorted supports (comonotone oracle)."""
    xi = np.argsort(mu.support[:, 0], kind="stable")
    yi = np.argsort(nu.support[:, 0], kind="stable")
    xs, xw = mu.support[xi, 0], mu.weights[xi].copy()
    ys, yw = nu.support[yi, 0], nu.weights[yi].copy()
    i = j = 0
    cost = 0.0
    while i < len(xs) and j < len(ys):
        t = min(xw[i], yw[j])
        cost += t * (xs[i] - ys[j]) ** 2
        xw[i] -= t
        yw[j] -= t
        if xw[i] <= 0 and i < len(xs) - 1:
            i += 1
        elif yw[j] <= 0 and j < len(ys) - 1:
            j += 1
        elif xw[i] <= 0 and yw[j] <= 0:
            break
        elif xw[i] <= 0:
            i += 1
        else:
            j += 1
    return cost


def random_feasible_coupling(rng, a, b, iters=60):
    """IPF-scale a random positive matrix to the marginals, then round."""
    G = rng.random((len(a), len(b))) + 1e-3
    for _ in range(iters):
        G *= (a / G.sum(axis=1))[:, None]
        G *= (b / G.sum(axis=0))[None, :]
    # exact feasibility by rank-one correction
    G *= np.minimum(1.0, a / G.sum(axis=1))[:, None]
    G *= np.minimum(1.0, b / G.sum(axis=0))[None, :]
    ra = np.maximum(a - G.sum(axis=1), 0.0)
    rb = np.maximum(b - G.sum(axis=0), 0.0)
    if ra.sum() > 0:
        G = G + np.outer(ra, rb) / ra.sum()
    return G


def sq_costs(mu, nu):
    d = mu.support[:, None, :] - nu.support[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


# --- Coupling ----------------------------------------------------------------

def test_coupling_validation():
    mu = make_measure([0.0, 1.0], [1.0, 1.0])
    nu = make_measure([0.0, 1.0], [1.0, 3.0])
    good = np.array([[0.25, 0.25], [0.0, 0.5]])
    Coupling(mu, nu, good)
    with pytest.raises(WeightSumError, match="column sums"):
        Coupling(mu, nu, np.array([[0.5, 0.0], [0.0, 0.5]]))
    with pytest.raises(WeightSumError, match="row sums do not match the row measure"):
        Coupling(mu, nu, np.array([[0.25, 0.0], [0.0, 0.75]]))
    with pytest.raises(NegativeWeightError):
        Coupling(mu, nu, np.array([[0.6, -0.1], [0.0, 0.5]]))
    with pytest.raises(DimensionMismatchError):
        Coupling(mu, nu, np.ones((3, 2)) / 6)
    with pytest.raises(DimensionMismatchError):
        Coupling(mu, dirac([0.0, 0.0]), np.array([[0.5], [0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_coupling_rejects_non_finite_entries(bad):
    # a NaN compares False against every tolerance, so finiteness is
    # checked first, on dense plans and on arcs alike
    mu = make_measure([0.0, 1.0], [1.0, 1.0])
    nu = make_measure([0.0, 1.0], [1.0, 1.0])
    for plan in ([[bad, 0.0], [0.0, 0.5]], [[0.5, bad], [0.0, 0.5]], [[0.5, 0.0], [0.0, bad]]):
        with pytest.raises(NonFiniteValueError, match="coupling entries must be finite") as err:
            Coupling(mu, nu, np.array(plan))
        assert err.value.exit_code == EXIT_SCHEMA
    # two measures' plans as one batch of arcs, the second's flow bad
    rows, cols = np.array([0, 1, 2, 3]), np.array([0, 1, 0, 1])
    for flow in ([0.5, 0.5, bad, 0.5], [0.5, 0.5, 0.5, bad]):
        with pytest.raises(NonFiniteValueError, match="coupling entries must be finite"):
            _check_marginals(rows, cols, np.array(flow), np.array([0, 2, 4]),
                             np.full(4, 0.5), nu)
    _check_marginals(rows, cols, np.full(4, 0.5), np.array([0, 2, 4]), np.full(4, 0.5), nu)


# --- solve_exact -------------------------------------------------------------

def test_exact_self_coupling_zero(rng):
    for _ in range(5):
        mu = random_measure(rng, m=2)
        sol = solve_exact(mu, mu)
        assert sol.cost <= 1e-10
        assert sol.method == "exact" and sol.converged


def test_exact_forced_plan():
    mu = make_measure([0.0, 2.0], [1.0, 1.0])
    nu = dirac([1.0])
    sol = solve_exact(mu, nu)
    assert sol.cost == 1.0
    assert np.array_equal(sol.coupling.weights, [[0.5], [0.5]])


def test_exact_matches_nw_oracle_instance():
    mu = make_measure([0.0, 1.0], [1.0, 1.0])
    nu = make_measure([0.0, 1.0], [1.0, 3.0])
    sol = solve_exact(mu, nu)
    assert abs(sol.cost - 0.25) <= 1e-15
    assert np.allclose(sol.coupling.weights, [[0.25, 0.25], [0.0, 0.5]], atol=1e-12)
    assert abs(sorted_nw_cost(mu, nu) - 0.25) <= 1e-15


def test_exact_equals_comonotone_oracle_1d(rng):
    for _ in range(40):
        mu = random_measure(rng, n=int(rng.integers(1, 30)), m=1)
        nu = random_measure(rng, n=int(rng.integers(1, 30)), m=1)
        cost = solve_exact(mu, nu).cost
        assert abs(cost - sorted_nw_cost(mu, nu)) <= 1e-10 * max(1.0, cost)


def test_exact_beats_random_feasible_couplings(rng):
    for _ in range(3):
        n, k = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        if n * k > 9:
            continue
        mu = random_measure(rng, n=n, m=2)
        nu = random_measure(rng, n=k, m=2)
        sol = solve_exact(mu, nu)
        C = sq_costs(mu, nu)
        for _ in range(1000):
            G = random_feasible_coupling(rng, mu.weights, nu.weights)
            assert sol.cost <= float((G * C).sum()) + 1e-10


def test_exact_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_exact(dirac([0.0]), dirac([0.0, 1.0]))


def test_exact_deterministic(rng):
    mu = random_measure(rng, n=12, m=2)
    nu = random_measure(rng, n=9, m=2)
    a = solve_exact(mu, nu)
    b = solve_exact(mu, nu)
    assert np.array_equal(a.coupling.weights, b.coupling.weights)
    assert a.cost == b.cost and a.iterations == b.iterations


def test_exact_handles_zero_weights():
    mu = DiscreteMeasure(np.array([[0.0], [5.0]]), np.array([1.0, 0.0]))
    nu = DiscreteMeasure(np.array([[0.0], [9.0]]), np.array([0.0, 1.0]))
    sol = solve_exact(mu, nu)
    assert abs(sol.cost - 81.0) <= 1e-12


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6, 1e9])
def test_exact_certified_at_every_cost_scale(rng, scale):
    for _ in range(8):
        n, k = (int(t) for t in rng.integers(1, 31, 2))
        mu = random_measure(rng, n=n, m=2)
        mu = DiscreteMeasure(mu.support * np.sqrt(scale), mu.weights)
        w = rng.random(k) + 0.05
        w[rng.random(k) < 0.3] = 0.0
        if not w.any():
            w[0] = 1.0
        nu = DiscreteMeasure(rng.normal(size=(k, 2)) * np.sqrt(scale), w / w.sum())
        # solve_exact constructs a Coupling, which checks the marginals
        sol = solve_exact(mu, nu)
        # the c-transform of the row potential closes the duality gap
        u = sol.potentials[0]
        bound = mu.weights @ u + nu.weights @ np.min(
            cost_matrix(mu.support, nu.support) - u[:, None], axis=0)
        assert abs(sol.cost - bound) <= 1e-8 * sol.cost
        again = solve_exact(mu, nu)
        assert again.coupling.weights.tobytes() == sol.coupling.weights.tobytes()
        assert again.cost == sol.cost


def test_exact_solves_transport_lps_with_near_zero_target_weights():
    # a balanced transport LP is always feasible; HiGHS's presolve called
    # most of these 2-D pairs infeasible (status 2) when 30 % of the
    # target weights sit at 1e-9
    rng = np.random.default_rng(16)
    for _ in range(40):
        n, k = (int(t) for t in rng.integers(10, 61, 2))
        mu = make_measure(rng.normal(size=(n, 2)), rng.random(n) + 0.05)
        w = rng.random(k) + 0.05
        w[rng.choice(k, size=round(0.3 * k), replace=False)] = 1e-9
        nu = make_measure(rng.normal(size=(k, 2)), w)
        sol = solve_exact(mu, nu)
        u = sol.potentials[0]
        bound = mu.weights @ u + nu.weights @ np.min(
            cost_matrix(mu.support, nu.support) - u[:, None], axis=0)
        assert abs(sol.cost - bound) <= 1e-8 * sol.cost


def test_exact_reports_a_failed_lp(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        return SimpleNamespace(status=4, message="injected numerical difficulties")

    monkeypatch.setattr(otrepair.ot, "linprog", failing)
    with pytest.raises(SolverFailureError, match="injected"):
        solve_exact(make_measure([0.0, 1.0], [1.0, 1.0]), dirac([0.5]))
    inp = tmp_path / "m.csv"
    inp.write_text("measure,weight,x\nm1,1,0\nm1,1,1\nm2,1,0.5\n", encoding="utf-8")
    assert main(["ot", "--input", str(inp), "--method", "exact",
                 "--report", str(tmp_path / "r.json")]) == 4
    assert capsys.readouterr().err.startswith("error: transport LP failed")
    # the joint barycenter LP goes through the same HiGHS call
    assert main(["barycenter", "--input", str(inp), "--method", "exact",
                 "--report", str(tmp_path / "b.json")]) == 4
    assert capsys.readouterr().err.startswith("error: joint LP failed")


# --- solve_comonotone_1d -----------------------------------------------------

def test_comonotone_identity():
    mu = make_measure([3.0, 1.0, 2.0], [1.0, 1.0, 2.0])
    sol = solve_comonotone_1d(mu, mu)
    assert sol.cost == 0.0
    assert sol.method == "comonotone_1d"


def test_comonotone_diracs():
    sol = solve_comonotone_1d(dirac([0.0]), dirac([2.5]))
    assert sol.cost == 2.5**2


def test_comonotone_oracle_instance():
    mu = make_measure([0.0, 1.0], [1.0, 1.0])
    nu = make_measure([0.0, 1.0], [1.0, 3.0])
    sol = solve_comonotone_1d(mu, nu)
    assert abs(sol.cost - 0.25) <= 1e-15
    assert np.allclose(sol.coupling.weights, [[0.25, 0.25], [0.0, 0.5]], atol=1e-15)


def test_comonotone_requires_1d():
    with pytest.raises(DimensionNotOneError):
        solve_comonotone_1d(dirac([0.0, 0.0]), dirac([1.0, 1.0]))


def test_comonotone_duplicate_ties_deterministic():
    # same law written with duplicates in different orders: zero cost,
    # and the stable (value, original index) sort pins the plan down
    mu = make_measure([1.0, 1.0, 0.0], [1.0, 1.0, 2.0])
    nu = make_measure([1.0, 0.0, 1.0], [1.0, 2.0, 1.0])
    a = solve_comonotone_1d(mu, nu)
    b = solve_comonotone_1d(mu, nu)
    assert np.array_equal(a.coupling.weights, b.coupling.weights)
    assert a.cost <= 1e-15
    expected = np.array([[0.25, 0.0, 0.0], [0.0, 0.0, 0.25], [0.0, 0.5, 0.0]])
    assert np.array_equal(a.coupling.weights, expected)


def _dyadic_weights(rng, n):
    """n weights, zeros allowed, that are multiples of 1/64 summing to 1, so
    cumulative sums of two such measures tie exactly."""
    cuts = np.sort(rng.integers(0, 65, n - 1))
    return np.diff(np.concatenate(([0], cuts, [64]))) / 64.0


def _staircase_case(rng, kind):
    """A random 1-D pair of one kind: generic, tied and duplicate points,
    zero weights, a single-point measure, or dyadic weights on distinct
    integer points."""
    n, k = (int(t) for t in rng.integers(1, 31, 2))
    if kind == "single":
        n, k = (1, k) if rng.random() < 0.5 else (n, 1)

    def points(size):
        if kind == "ties":
            return rng.integers(0, 4, size).astype(float)
        if kind == "dyadic":
            return rng.permutation(200)[:size].astype(float)
        return rng.normal(size=size)

    def weights(size):
        if kind == "dyadic":
            return _dyadic_weights(rng, size)
        w = rng.random(size) + 0.05
        if kind == "zeros":
            w[rng.random(size) < 0.3] = 0.0
            if not w.any():
                w[0] = 1.0
        return w / w.sum()

    return (DiscreteMeasure(points(n), weights(n)),
            DiscreteMeasure(points(k), weights(k)))


@pytest.mark.parametrize("kind", ["generic", "ties", "zeros", "single", "dyadic"])
def test_comonotone_matches_loop_oracle(rng, kind):
    for _ in range(80):
        mu, nu = _staircase_case(rng, kind)
        sol = solve_comonotone_1d(mu, nu)
        plan, _, _, cost = comonotone_reference(mu, nu)
        assert np.max(np.abs(sol.coupling.weights - plan)) <= 1e-14
        assert abs(sol.cost - cost) <= 1e-14 * cost


def test_comonotone_arcs_match_loop_oracle_on_dyadic_weights(rng):
    # dyadic weights and integer points make every step exact, so the plan
    # and the potentials agree bit for bit; the arcs are then the pairs
    # where u + v meets the cost (distinct points leave no other such pair)
    for _ in range(80):
        mu, nu = _staircase_case(rng, "dyadic")
        sol = solve_comonotone_1d(mu, nu)
        plan, arcs, (u, v), _ = comonotone_reference(mu, nu)
        assert np.array_equal(sol.coupling.weights, plan)
        su, sv = sol.potentials
        assert np.array_equal(su, u) and np.array_equal(sv, v)
        C = cost_matrix(mu.support, nu.support)
        tight = set(zip(*(idx.tolist() for idx in np.nonzero(su[:, None] + sv == C))))
        assert tight == set(arcs)


@pytest.mark.parametrize("kind", ["generic", "ties", "zeros", "single", "dyadic"])
def test_comonotone_column_potentials_are_the_c_transform(rng, kind):
    for _ in range(40):
        mu, nu = _staircase_case(rng, kind)
        u, v = solve_comonotone_1d(mu, nu).potentials
        C = cost_matrix(mu.support, nu.support)
        assert np.array_equal(v, np.min(C - u[:, None], axis=0))


def test_staircase_core_checks_every_arc_before_keeping_the_moving_ones():
    # cumulative weights that pass the top one before it give the last arc
    # a negative flow; the core's check sees it, though it keeps no such
    # arc (the core yields its blocks lazily, so the test consumes it)
    nu = make_measure([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(NegativeWeightError):
        list(_staircases(np.arange(2), np.array([0.0, 1.0]), np.array([1.2, 1.0]),
                    np.array([0, 2]), np.arange(2), np.array([0.5, 1.0]),
                    np.array([0.5, 0.5]), nu))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6, 1e9])
def test_comonotone_certified_at_every_cost_scale(rng, scale):
    for offset in (0.0, 1e4, -1e8, 1e8):
        for _ in range(8):
            n, k = (int(t) for t in rng.integers(1, 31, 2))
            w = rng.random(n) + 0.05
            mu = DiscreteMeasure(offset + rng.normal(size=n) * np.sqrt(scale), w / w.sum())
            w = rng.random(k) + 0.05
            w[rng.random(k) < 0.3] = 0.0
            if not w.any():
                w[0] = 1.0
            nu = DiscreteMeasure(offset + rng.normal(size=k) * np.sqrt(scale), w / w.sum())
            # solve_comonotone_1d constructs a Coupling, which checks the marginals
            sol = solve_comonotone_1d(mu, nu)
            u = sol.potentials[0]
            bound = mu.weights @ u + nu.weights @ np.min(
                cost_matrix(mu.support, nu.support) - u[:, None], axis=0)
            assert abs(sol.cost - bound) <= 1e-8 * sol.cost
            again = solve_comonotone_1d(mu, nu)
            assert again.coupling.weights.tobytes() == sol.coupling.weights.tobytes()
            assert again.cost == sol.cost


def test_comonotone_rejects_overflowing_cross_pairs(tmp_path):
    # every staircase arc joins neighbours, whose squared distances are at
    # most 1e308, but the pair (1.9e154, 0) overflows
    mu = make_measure([0.0, 1e154, 1.9e154], [1.0, 1.0, 1.0])
    with pytest.raises(NonFiniteValueError, match="overflows"):
        solve_comonotone_1d(mu, mu)
    inp = tmp_path / "m.csv"
    inp.write_text("measure,weight,x\nm1,1,0\nm1,1,1e200\nm2,1,0\nm2,1,1e200\n",
                   encoding="utf-8")
    assert main(["ot", "--input", str(inp), "--method", "comonotone1d",
                 "--report", str(tmp_path / "r.json")]) == 3
    assert not (tmp_path / "r.json").exists()


# --- arc records ---------------------------------------------------------------

def _record_case(rng, m):
    """A family of three m-dimensional atoms, the first a point mass, and
    a target measure, on few integer points (so with ties) and with zero
    weights."""
    def measure(n):
        w = rng.random(n) * (rng.random(n) > 0.3)
        if not w.any():
            w[0] = 1.0
        return DiscreteMeasure(rng.integers(0, 4, (n, m)).astype(float), w / w.sum())

    laws = [measure(1), *(measure(int(n)) for n in rng.integers(1, 7, 2))]
    p = rng.random(3) + 0.1
    return (family([(f"a{a}", pa, law) for a, (pa, law) in enumerate(zip(p / p.sum(), laws))]),
            measure(int(rng.integers(1, 7))))


def _batches(fam, nu):
    return list(_family_couplings(fam.support, fam.weights, fam.starts, nu))


RECORDS = {  # producer: (dimension, its arc records for a family and a target)
    "comonotone_staircases": (1, lambda fam, nu: [
        comonotone_staircases(fam.support, fam.weights, fam.starts, nu)]),
    "family_couplings_1d": (1, _batches),
    "family_couplings_2d": (2, _batches),
    "quantile_exact_measure": (1, lambda fam, nu: [quantile_exact_measure(fam)[1]]),
    "fixed_support_weights": (2, lambda fam, nu: [
        fixed_support_weights(fam, default_support(fam))[2]]),
    "solve_barycenter_1d": (1, lambda fam, nu: [solve_barycenter(fam).couplings]),
    "solve_barycenter_2d": (2, lambda fam, nu: [solve_barycenter(fam).couplings]),
}


@pytest.mark.parametrize("producer", sorted(RECORDS))
def test_every_arc_record_holds_only_arcs_that_move_mass(rng, producer):
    m, records = RECORDS[producer]
    formed = 0
    for _ in range(30):
        for record in records(*_record_case(rng, m)):
            if record is not None:  # None: the closed form of point masses
                rows, cols, flow, u, costs = record
                assert len(rows) == len(cols) == len(flow)
                assert np.all(flow > 0.0)
                formed += 1
    assert formed


# --- solve_entropic ----------------------------------------------------------

def test_entropic_trivial_dirac():
    sol = solve_entropic(dirac([0.0]), dirac([0.0]), epsilon=0.1)
    assert sol.cost == 0.0 and sol.converged
    assert sol.iterations == 1


def test_entropic_oracle_instance():
    mu = make_measure([0.0, 1.0], [1.0, 1.0])
    nu = make_measure([0.0, 1.0], [1.0, 3.0])
    exact = solve_exact(mu, nu).cost
    sol = solve_entropic(mu, nu, epsilon=0.01, max_iter=20000, tol=1e-10)
    assert abs(exact - 0.25) <= 1e-15
    assert abs(sol.cost - 0.25) <= 5e-3


def test_entropic_forced_plan():
    mu = make_measure([0.0, 2.0], [1.0, 1.0])
    nu = dirac([1.0])
    for eps in (1.0, 0.01):
        sol = solve_entropic(mu, nu, epsilon=eps)
        assert abs(sol.cost - 1.0) <= 1e-12


def test_entropic_close_to_exact_at_small_epsilon(rng):
    for _ in range(8):
        mu = random_measure(rng, n=int(rng.integers(2, 8)), m=1, unit=True)
        nu = random_measure(rng, n=int(rng.integers(2, 8)), m=1, unit=True)
        exact = solve_exact(mu, nu).cost
        ent = solve_entropic(mu, nu, epsilon=0.01, max_iter=20000, tol=1e-10)
        assert abs(ent.cost - exact) <= 5e-3


def test_entropic_cost_decreases_with_epsilon(rng):
    for _ in range(5):
        mu = random_measure(rng, n=5, m=2, unit=True)
        nu = random_measure(rng, n=6, m=2, unit=True)
        exact = solve_exact(mu, nu).cost
        costs = [
            solve_entropic(mu, nu, epsilon=e, max_iter=30000, tol=1e-12).cost
            for e in (1.0, 0.1, 0.01)
        ]
        assert costs[0] >= costs[1] - 1e-7
        assert costs[1] >= costs[2] - 1e-7
        assert costs[2] >= exact - 1e-9


def test_entropic_marginals_exact_even_unconverged(rng):
    mu = random_measure(rng, n=7, m=1)
    nu = random_measure(rng, n=5, m=1)
    sol = solve_entropic(mu, nu, epsilon=0.05, max_iter=3, tol=1e-14)
    assert not sol.converged
    # Coupling construction enforces the marginal invariants already;
    # recheck explicitly at a tighter tolerance
    g = sol.coupling.weights
    assert np.max(np.abs(g.sum(axis=1) - mu.weights)) <= 1e-12
    assert np.max(np.abs(g.sum(axis=0) - nu.weights)) <= 1e-12


def test_entropic_converged_only_at_the_target_epsilon():
    # a budget that ends before the target epsilon's stage leaves the plan
    # unconverged, however small the violation of an earlier stage was; the
    # plan is then the one of the stage whose potentials were solved, not
    # the independent coupling that rounding the target's underflowed
    # kernel gives
    rng = np.random.default_rng(0)
    mu = make_measure(rng.normal(size=(6, 2)), np.ones(6))
    nu = make_measure(rng.normal(size=(5, 2)) + 1.0, np.ones(5))
    C = cost_matrix(mu.support, nu.support)
    independent = mu.weights @ C @ nu.weights
    for max_iter in (1, 2, 3, 5, 30, 31):
        sol = solve_entropic(mu, nu, epsilon=1e-3, max_iter=max_iter, tol=1e-3)
        assert not sol.converged and sol.iterations == max_iter
        assert sol.cost < independent
    sol = solve_entropic(mu, nu, epsilon=1e-3, max_iter=5000, tol=1e-3)
    assert sol.converged and sol.iterations == 262
    assert abs(sol.cost - solve_exact(mu, nu).cost) <= 1e-3


def test_entropic_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        solve_entropic(dirac([0.0]), dirac([1.0]), epsilon=0.0)


# --- squared W2 distance properties (solve_exact) -------------------------

def test_wasserstein_dispatch_and_symmetry(rng):
    for _ in range(10):
        mu = random_measure(rng, m=2)
        nu = random_measure(rng, m=2)
        ab = solve_exact(mu, nu).cost
        ba = solve_exact(nu, mu).cost
        assert abs(ab - ba) <= 1e-10 * max(1.0, ab)
        assert optimal_coupling(mu, nu).method == "exact"
    assert solve_exact(dirac([1.0]), dirac([3.0])).cost == 4.0
    assert optimal_coupling(dirac([1.0]), dirac([3.0])).method == "comonotone_1d"


def test_wasserstein_triangle_inequality(rng):
    for _ in range(15):
        mu = random_measure(rng, n=4, m=2)
        nu = random_measure(rng, n=3, m=2)
        rho = random_measure(rng, n=5, m=2)
        w = lambda a, b: np.sqrt(solve_exact(a, b).cost)
        assert w(mu, rho) <= w(mu, nu) + w(nu, rho) + 1e-9


def test_zero_distance_implies_same_law(rng):
    pts = rng.normal(size=(4, 2))
    w = np.full(8, 0.125)
    idx = rng.integers(0, 4, size=8)
    mu = DiscreteMeasure(pts[idx], w)
    perm = rng.permutation(8)
    nu = DiscreteMeasure(pts[idx][perm], w[perm])
    assert solve_exact(mu, nu).cost == 0.0
    assert coalesce(mu).equals(coalesce(nu))


def test_marginal_conservation_random(rng):
    for _ in range(10):
        n, k = rng.integers(1, 21, 2)
        mu = random_measure(rng, n=int(n), m=2)
        nu = random_measure(rng, n=int(k), m=2)
        for sol in (solve_exact(mu, nu),
                    solve_entropic(mu, nu, epsilon=0.1, max_iter=500)):
            g = sol.coupling.weights
            assert np.max(np.abs(g.sum(axis=1) - mu.weights)) <= 1e-8
            assert np.max(np.abs(g.sum(axis=0) - nu.weights)) <= 1e-8


@pytest.mark.parametrize("m", [1, 2])
def test_solution_cost_is_coupling_cost(rng, m):
    # every solver stores the cost of the plan it returns
    for _ in range(20):
        mu, nu = random_measure(rng, m=m), random_measure(rng, m=m)
        sols = [solve_exact(mu, nu), solve_entropic(mu, nu, epsilon=0.05)]
        if m == 1:
            sols.append(solve_comonotone_1d(mu, nu))
        for sol in sols:
            ref = float(np.einsum("ij,ij->", sol.coupling.weights,
                                  cost_matrix(mu.support, nu.support)))
            assert abs(sol.cost - ref) <= 1e-10 * max(1.0, abs(ref))

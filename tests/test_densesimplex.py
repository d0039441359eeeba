import numpy as np
import pytest
from scipy.optimize import linprog

from densesimplex import LpInfeasibleError, solve_standard_form


def test_known_optimum():
    # min -x - y  s.t.  x + y + s = 1  ->  optimum -1 on the segment
    c = np.array([-1.0, -1.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([1.0])
    res = solve_standard_form(c, A, b)
    assert abs(res.fun + 1.0) <= 1e-12
    assert abs(res.x[:2].sum() - 1.0) <= 1e-12


def test_degenerate_beale_instance_terminates():
    # the classic cycling example; Bland's rule must terminate
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    A = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    res = solve_standard_form(c, A, b)
    assert abs(res.fun + 0.05) <= 1e-9


def test_infeasible_detected():
    # x1 + x2 = -1 with x >= 0 has no solution
    c = np.zeros(2)
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(LpInfeasibleError):
        solve_standard_form(c, A, b)


def test_redundant_rows_handled():
    # duplicated constraint row: rank-deficient but feasible
    c = np.array([1.0, 2.0])
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0])
    res = solve_standard_form(c, A, b)
    assert abs(res.fun - 1.0) <= 1e-12
    assert np.allclose(res.x, [1.0, 0.0])


def test_matches_highs_on_random_instances(rng):
    checked = 0
    for _ in range(60):
        m, n = int(rng.integers(2, 6)), int(rng.integers(6, 12))
        A = rng.normal(size=(m, n))
        b = A @ rng.random(n)
        c = rng.normal(size=n)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if ref.status != 0:
            continue  # unbounded draws are skipped
        res = solve_standard_form(c, A, b)
        assert abs(res.fun - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
        assert np.max(np.abs(A @ res.x - b)) <= 1e-8
        assert np.min(res.x) >= -1e-12
        checked += 1
    assert checked >= 20

import numpy as np
import pytest

from otrepair.errors import (
    HalfNotAllowedError,
    NegativeComponentError,
    NotHalfError,
    TooManyAtomsError,
    WeightSumError,
)
from otrepair.special_binary import (
    BinaryInstance,
    brute_force,
    is_half,
    solve_half,
    solve_nonhalf,
)

from conftest import compare_unconstrained


def random_instance(rng, n=None, p_a=0.5):
    if n is None:
        n = int(rng.integers(2, 8))
    p = rng.random(n) + 0.05
    p = p / p.sum()
    return BinaryInstance(
        tuple(f"b{i}" for i in range(n)), p,
        rng.random(n) * 4.0, rng.random(n) * 4.0, p_a,
    )


def alpha_beta_grid_oracle(inst, resolution=4000):
    """Dense sweep over (alpha, beta) for the unbalanced case."""
    pa = float(inst.p_a)
    hi = float(max(inst.f.max(), inst.g.max()))
    best = np.inf
    alphas = np.linspace(0.0, hi, resolution + 1)
    # distance splits: pA E[(f - alpha)^2] + (1 - pA) E[(g - beta)^2]
    ef = inst.probs @ (inst.f[None, :] - alphas[:, None]).T ** 2
    eg = inst.probs @ (inst.g[None, :] - alphas[:, None]).T ** 2
    return float(pa * ef.min() + (1 - pa) * eg.min())


# --- instance validation --------------------------------------------------------

def test_instance_validation():
    with pytest.raises(NegativeComponentError):
        BinaryInstance(("a",), [1.0], [-1.0], [0.0], 0.5)
    with pytest.raises(WeightSumError):
        BinaryInstance(("a", "b"), [0.7, 0.7], [1.0, 1.0], [0.0, 0.0], 0.5)
    with pytest.raises(WeightSumError):
        BinaryInstance(("a",), [1.0], [1.0], [0.0], 1.0)


def test_is_half_detection():
    from fractions import Fraction
    assert is_half(0.5) and is_half(Fraction(1, 2))
    assert is_half(0.5 + 1e-13)
    assert not is_half(0.25) and not is_half(Fraction(1, 3))


# --- solve_half -------------------------------------------------------------------

def test_half_requires_half():
    inst = random_instance(np.random.default_rng(0), p_a=0.25)
    with pytest.raises(NotHalfError):
        solve_half(inst)


def test_half_collapses_to_variance_when_f_equals_g(rng):
    p = rng.random(5) + 0.1
    p /= p.sum()
    f = rng.random(5) * 3
    inst = BinaryInstance(tuple(range(5)), p, f, f, 0.5)
    sol = solve_half(inst)
    var_f = float(p @ f**2 - (p @ f) ** 2)
    assert abs(sol.distance_sq - var_f) <= 1e-12
    assert sol.set_b == frozenset(range(5))  # weak inequality: ties join B


def test_half_spec_instance():
    inst = BinaryInstance(("a", "b"), [0.5, 0.5], [4.0, 0.0], [2.0, 2.0], 0.5)
    sol = solve_half(inst)
    assert (sol.alpha, sol.beta) == (3.0, 1.0)
    assert sol.distance_sq == 1.0
    assert sol.set_b == frozenset({"a"})
    bf = brute_force(inst)
    assert bf.distance_sq == sol.distance_sq and bf.set_b == sol.set_b


def test_half_constant_components_zero_distance():
    inst = BinaryInstance(("a", "b"), [0.3, 0.7], [5.0, 5.0], [2.0, 2.0], 0.5)
    sol = solve_half(inst)
    assert sol.distance_sq <= 1e-12
    assert (sol.y_on_event, sol.y_off_event) == (5.0, 2.0)


# --- solve_nonhalf ------------------------------------------------------------------

def test_nonhalf_requires_nonhalf():
    inst = random_instance(np.random.default_rng(0), p_a=0.5)
    with pytest.raises(HalfNotAllowedError):
        solve_nonhalf(inst)


def test_nonhalf_constants():
    inst = BinaryInstance(("a",), [1.0], [3.0], [1.0], 0.3)
    sol = solve_nonhalf(inst)
    assert (sol.alpha, sol.beta, sol.distance_sq) == (3.0, 1.0, 0.0)


def test_nonhalf_spec_instance_with_grid_oracle():
    inst = BinaryInstance(("a", "b"), [0.5, 0.5], [4.0, 0.0], [2.0, 2.0], 0.25)
    sol = solve_nonhalf(inst)
    assert (sol.alpha, sol.beta, sol.distance_sq) == (2.0, 2.0, 1.0)
    assert abs(alpha_beta_grid_oracle(inst) - 1.0) <= 1e-6


def test_nonhalf_swap_symmetry(rng):
    for _ in range(10):
        inst = random_instance(rng, p_a=0.3)
        swapped = BinaryInstance(inst.labels, inst.probs, inst.g, inst.f, 0.7)
        a, b = solve_nonhalf(inst), solve_nonhalf(swapped)
        assert abs(a.alpha - b.beta) <= 1e-15
        assert abs(a.beta - b.alpha) <= 1e-15
        assert abs(a.distance_sq - b.distance_sq) <= 1e-12


# --- brute force --------------------------------------------------------------------

def test_brute_force_matches_half_on_random_instances(rng):
    for _ in range(60):
        inst = random_instance(rng, n=int(rng.integers(2, 6)), p_a=0.5)
        a, b = solve_half(inst), brute_force(inst)
        assert abs(a.distance_sq - b.distance_sq) <= 1e-12
        # B can differ only on tied atoms (f == g)
        diff = a.set_b ^ b.set_b
        for lab in diff:
            i = inst.labels.index(lab)
            assert inst.f[i] == inst.g[i]


def test_brute_force_matches_nonhalf(rng):
    for _ in range(40):
        inst = random_instance(rng, p_a=float(rng.choice([0.2, 0.35, 0.7])))
        a, b = solve_nonhalf(inst), brute_force(inst)
        assert abs(a.distance_sq - b.distance_sq) <= 1e-9


def test_brute_force_confirms_b_maximizes_expectation_term(rng):
    # E[f1_B + g1_Bc]^2 + E[f1_Bc + g1_B]^2 is maximal at B = {f >= g}
    for _ in range(20):
        inst = random_instance(rng, n=5, p_a=0.5)
        p, f, g = inst.probs, inst.f, inst.g
        star = sum(
            (float(p @ np.where(mask, f, g)) ** 2
             + float(p @ np.where(mask, g, f)) ** 2)
            for mask in [f >= g]
        )
        for m_int in range(1 << 5):
            mask = np.array([(m_int >> i) & 1 for i in range(5)], dtype=bool)
            val = (float(p @ np.where(mask, f, g)) ** 2
                   + float(p @ np.where(mask, g, f)) ** 2)
            assert val <= star + 1e-10


def test_brute_force_atom_cap():
    n = 21
    p = np.ones(n) / n
    inst = BinaryInstance(tuple(range(n)), p, np.ones(n), np.zeros(n), 0.5)
    with pytest.raises(TooManyAtomsError):
        brute_force(inst)


def test_mean_matching_both_regimes(rng):
    for p_a in (0.5, 0.35):
        for _ in range(20):
            inst = random_instance(rng, p_a=p_a)
            sol = solve_half(inst) if p_a == 0.5 else solve_nonhalf(inst)
            lhs = p_a * sol.alpha + (1 - p_a) * sol.beta
            assert abs(lhs - inst.mean_x()) <= 1e-12


# --- compare_unconstrained ------------------------------------------------------------

def test_compare_f_equals_g_gives_equality(rng):
    p = rng.random(4) + 0.1
    p /= p.sum()
    f = rng.random(4) * 2
    inst = BinaryInstance(tuple(range(4)), p, f, f, 0.5)
    con, unc = compare_unconstrained(inst)
    var_f = float(p @ f**2 - (p @ f) ** 2)
    assert abs(con - var_f) <= 1e-12
    assert abs(unc - var_f) <= 1e-10


def test_compare_spec_instance():
    inst = BinaryInstance(("a", "b"), [0.5, 0.5], [4.0, 0.0], [2.0, 2.0], 0.5)
    con, unc = compare_unconstrained(inst)
    assert con == 1.0
    assert unc <= con + 1e-10
    assert abs(unc - 1.0) <= 1e-10  # quantile optimum computed by hand


def test_compare_constants_give_zero():
    inst = BinaryInstance(("a", "b"), [0.4, 0.6], [3.0, 3.0], [1.0, 1.0], 0.5)
    con, unc = compare_unconstrained(inst)
    assert con <= 1e-12 and unc <= 1e-12


def test_compare_unconstrained_never_worse(rng):
    for p_a in (0.5, 0.25, 0.125, 0.375):
        for _ in range(8):
            inst = random_instance(rng, p_a=p_a)
            con, unc = compare_unconstrained(inst)
            assert unc <= con + 1e-10

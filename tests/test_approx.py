import importlib
import pkgutil
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import otrepair
import otrepair.ot
from otrepair.approx import (
    Disintegration,
    _coupled_arcs,
    build,
    estimate_conditionals,
    lower_bound,
    sample_y,
    transform,
    transform_grid,
)
from otrepair.barycenter import _total, solve_barycenter
from otrepair.cli import main
from otrepair.diagnostics import verify
from otrepair.errors import (
    ConfigConflictError,
    DatasetMismatchError,
    IndexOutOfRangeError,
    MissingUError,
    UnknownGroupError,
    UnseenValueError,
    UOutOfRangeError,
)
from otrepair.measure import (
    ConditionalFamily,
    Dataset,
    coalesce,
    dataset_from_rows,
    dirac,
    family,
    make_measure,
    mean,
    mixture,
)
from otrepair.ot import _family_couplings, cost_matrix

from conftest import (
    decomposed_distance_sq,
    decomposition,
    random_dataset,
    random_family,
    reference_conditionals,
    with_conditional,
)


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
    assert fam.atoms[0].label == "g1" and fam.atoms[0].law.equals(dirac([0.0]))


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


@pytest.mark.parametrize("m", [1, 3])
def test_estimate_is_bitwise_the_per_group_estimate(m):
    # group sizes cross numpy's pairwise-summation blocks of 8 and 128,
    # labels are interleaved and weights span 24 orders of magnitude
    rng = np.random.default_rng(m)
    edges = [1, 2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 300]
    for trial in range(6):
        sizes = [*edges, *rng.integers(1, 301, size=8)] if trial == 0 \
            else rng.integers(1, 301, size=int(rng.integers(1, 10)))
        labels = np.repeat([f"g{a}" for a in range(len(sizes))], sizes)
        rng.shuffle(labels)
        n = len(labels)
        d = Dataset(tuple(labels.tolist()), rng.normal(size=(n, m)),
                    10.0 ** rng.uniform(-12.0, 12.0, size=n))
        fam, ref = estimate_conditionals(d), reference_conditionals(d)
        assert fam.labels == tuple(label for label, _, _ in ref) == d.labels
        for a, (_, p, law) in zip(fam.atoms, ref):
            assert a.p == p
            assert a.law.support.shape == law.support.shape == (len(d.group_rows(a.label)), m)
            assert np.array_equal(a.law.support, law.support)
            assert np.array_equal(a.law.weights, law.weights)
            assert not a.law.support.flags.writeable and not a.law.weights.flags.writeable


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
                recon = a.law.weights @ ap.conditional(a.label)
                assert np.max(np.abs(recon - ap.nu0.weights)) <= 1e-8


def test_build_exact_lp_recentring_identity(rng):
    # for the LP route the achieved value must equal the LP optimum minus
    # the squared recentring shift
    for _ in range(4):
        d = random_dataset(rng, m=2)
        ap = build(d)
        fam = ap.family
        from otrepair.barycenter import default_support, fixed_support_weights
        raw, _, (*_, costs) = fixed_support_weights(fam, default_support(fam))
        lp = sum(p * c for p, c in zip(fam.probabilities.tolist(), costs.tolist()))
        shift = ap.mean_x - mean(raw)
        assert np.array_equal(ap.nu0.support, raw.support + shift)
        assert abs(lp - ap.achieved_distance_sq - float(shift @ shift)) <= 1e-9


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


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("method, kw", [
    ("auto", {}),
    ("entropic", {"epsilon": 0.05, "max_iter": 300}),
    ("free", {"k": 3}),
], ids=["auto", "entropic", "free"])
def test_build_achieved_distance_is_the_lower_bound(rng, m, method, kw):
    # both are the p-weighted sum, in atom order, of the couplings' own costs;
    # the default build takes its couplings from the barycenter (the joint
    # LP, or in 1-D the quantile merge) and recentres them, while
    # lower_bound couples afresh: two optimal plans, equal to rounding
    for _ in range(30):
        d = random_dataset(rng, max_rows=5, m=m)
        ap = build(d, method=method, **kw)
        lb = lower_bound(ap.family, ap.nu0)
        if method == "auto":
            assert abs(ap.achieved_distance_sq - lb) <= 1e-12 * lb
            assert verify(ap, d).passed
        else:
            assert ap.achieved_distance_sq == lb


def test_cost_matrix_calls_per_atom(rng, monkeypatch):
    # a 1-D build forms no cost matrix, verify forms one per block of rows
    # for its certificate (one block here), and a 2-D build one for the
    # whole family in the joint barycenter LP; the recentred coupling's
    # cost follows from the LP's without another
    calls = Counter()
    real = otrepair.ot.cost_matrix
    wrapped = set()
    for info in pkgutil.iter_modules(otrepair.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"otrepair.{info.name}")
        if getattr(module, "cost_matrix", None) is real:
            def counted(x, y, name=info.name):
                calls[name] += 1
                return real(x, y)
            monkeypatch.setattr(module, "cost_matrix", counted)
            wrapped.add(info.name)
    assert wrapped == {"ot", "barycenter", "diagnostics"}
    d = random_dataset(rng, n_atoms=3, max_rows=6, m=1)
    ap = build(d)
    assert calls == Counter()
    assert verify(ap, d).passed
    assert calls == Counter(diagnostics=1)
    calls.clear()
    d2 = dataset_from_rows([(g, rng.normal(size=2), 1.0) for g in "aabbbcc"])
    build(d2)
    assert calls == Counter(barycenter=1)


def _spy_solve_exact(monkeypatch):
    """Count the calls of ``ot.solve_exact``, which every exact coupling
    outside the joint LP goes through."""
    calls = []
    real = otrepair.ot.solve_exact

    def counted(mu, nu):
        calls.append(mu.n)
        return real(mu, nu)

    monkeypatch.setattr(otrepair.ot, "solve_exact", counted)
    return calls


@pytest.mark.parametrize("route", ["build", "decompose", "negligible_group"])
def test_joint_lp_couplings_are_the_m2_build(rng, monkeypatch, route):
    # the couplings come from the joint LP's solution: no transport LP is
    # solved for an atom the LP kept, and each coupling costs what a fresh
    # transport solve does
    for _ in range(10):
        d = random_dataset(rng, n_atoms=3, max_rows=5, m=2)
        dropped = 0
        if route == "negligible_group":
            w = d.weights.copy()
            w[np.array(d.groups) == "g0"] *= 1e-14
            d = Dataset(d.groups, d.x, w)
            dropped = 1
        calls = _spy_solve_exact(monkeypatch)
        if route == "decompose":
            # the centered data on the shifted grid: a support off the data
            d, support, _ = decomposition(d)
            ap = build(d, support=support)
        elif dropped:
            with pytest.warns(UserWarning, match="dropping 1 negligible atom"):
                ap = build(d)
        else:
            ap = build(d)
        # a dropped atom is coupled afresh, everything else comes from the LP
        assert len(calls) == dropped
        monkeypatch.undo()
        assert verify(ap, d).passed
        for atom in ap.family.atoms:
            plan = atom.law.weights[:, None] * ap.conditional(atom.label)
            cost = float(np.sum(plan * cost_matrix(atom.law.support, ap.nu0.support)))
            fresh = otrepair.ot.solve_exact(atom.law, ap.nu0).cost
            assert abs(cost - fresh) <= 1e-12 * fresh



def test_no_stage_reads_the_per_atom_view(rng, monkeypatch, tmp_path):
    # every stage reads the family's flat layout: build, verify and
    # transform by every method, with and without a dropped group, and the
    # barycenter command run with ConditionalFamily.atoms unreadable
    def forbidden(self):
        raise AssertionError("ConditionalFamily.atoms read")

    monkeypatch.setattr(ConditionalFamily, "atoms", property(forbidden))
    methods = [("auto", {}), ("exact", {}), ("entropic", {"epsilon": 0.05, "max_iter": 100}),
               ("free", {"k": 3}), ("quantile1d", {})]
    for m in (1, 2):
        d = random_dataset(rng, n_atoms=3, max_rows=5, m=m)
        light = Dataset(d.groups, d.x, np.where(np.array(d.groups) == "g0", 1e-14, d.weights))
        for method, kw in methods[:4 if m == 2 else 5]:
            ap = build(d, method=method, **kw)
            assert verify(ap, d).passed
            assert transform(ap, d, seed=0).n_rows == d.n_rows
            with pytest.warns(UserWarning, match="dropping 1 negligible atom"):
                ap = build(light, method=method, **kw)
            assert verify(ap, light).passed
        cols = [f"x{i}" for i in range(m)]
        lines = ["measure,weight," + ",".join(cols)] + [
            f"{g},{w!r}," + ",".join(map(repr, x.tolist()))
            for g, w, x in zip(d.groups, d.weights.tolist(), d.x)]
        inp = tmp_path / f"b{m}.csv"
        inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for method, _ in methods[:4 if m == 2 else 5]:
            assert main(["barycenter", "--input", str(inp), "--value-cols", ",".join(cols),
                         "--method", method, "--k", "3",
                         "--report", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 1e6])
def test_joint_lp_route_survives_light_points_at_every_scale(rng, scale):
    # a point of weight ~1e-9 sits below HiGHS's default feasibility
    # tolerance; the joint LP must still give exact-marginal couplings and
    # a nu0 every group can be transported to
    for _ in range(10):
        rows = []
        for a in range(4):
            k = int(rng.integers(2, 9))
            w = rng.random(k) + 0.05
            w[0] *= 1e-9
            x = 1e3 + scale * rng.normal(size=(k, 2))
            rows += [(f"g{a}", xi, float(wi)) for xi, wi in zip(x, w)]
        d = dataset_from_rows(rows)
        assert verify(build(d), d).passed

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
    dis = Disintegration.from_arcs(np.array([0, 0]), np.array([0, 1]),
                                   np.array([0.25, 0.75]), np.array([0.0]), nu0)
    ap = IndependentApproximation(
        family=make_family([("g", 1.0, law)]),
        nu0=nu0,
        disintegration=dis,
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
        conditional = ap.conditional(label)
        for i in range(len(conditional)):
            emp = np.zeros(ap.nu0.n)
            cum = np.cumsum(conditional[i][order])
            pos = np.minimum(np.searchsorted(cum, grid, side="left"), len(cum) - 1)
            np.add.at(emp, order[pos], 1.0 / R)
            tv = 0.5 * np.abs(
                emp - conditional[i][np.argsort(np.arange(ap.nu0.n))]
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
    # conditional checks the label as sample_y does
    with pytest.raises(UnknownGroupError):
        ap.conditional("nope")


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


@pytest.mark.parametrize("seed", [-5, 1.5, "abc"])
def test_a_seed_numpy_rejects_is_a_config_conflict(seed):
    d = dataset_from_rows([("a", 0.0, 1.0), ("a", 1.0, 1.0), ("b", 2.0, 1.0)])
    ap = build(d)
    with pytest.raises(ConfigConflictError, match=re.escape(f"invalid seed {seed!r}")):
        transform(ap, d, seed=seed)
    with pytest.raises(ConfigConflictError, match=re.escape(f"invalid seed {seed!r}")):
        build(d, method="free", k=2, init_seed=seed)


def test_transform_errors():
    ap = _toy_approx()
    with pytest.raises(UnknownGroupError):
        transform(ap, dataset_from_rows([("zz", 0.0, 1.0)]), seed=0)
    with pytest.raises(UnseenValueError):
        transform(ap, dataset_from_rows(
            [("g1", 5.0, 1.0), ("g1", 2.0, 1.0),
             ("g2", 1.0, 1.0), ("g2", 3.0, 1.0)]
        ), seed=0)
    with pytest.raises(DatasetMismatchError,
                       match="dataset groups differ from the approximation's"):
        transform(ap, dataset_from_rows([("g1", 0.0, 1.0), ("g1", 2.0, 1.0)]), seed=0)
    d = dataset_from_rows(
        [("g1", 0.0, 1.0), ("g1", 2.0, 1.0), ("g2", 1.0, 1.0), ("g2", 3.0, 1.0)]
    )
    with pytest.raises(MissingUError):
        transform(ap, d)
    with pytest.raises(ConfigConflictError, match="resolution must be at least 1"):
        transform_grid(ap, d, 0)
    with pytest.raises(ConfigConflictError, match="unknown method 'nope'"):
        build(d, method="nope")


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


def test_group_probabilities_must_match_the_build():
    rows = [("a", [-1.0], 1.0), ("a", [1.0], 1.0), ("b", [-2.0], 1.0), ("b", [2.0], 1.0)]
    ap = build(dataset_from_rows(rows))
    # every group keeps its conditional law; only group b's probability moves
    reweighted = dataset_from_rows([(g, x, 5.0 * w if g == "b" else w) for g, x, w in rows])
    assert build(reweighted).achieved_distance_sq != pytest.approx(ap.achieved_distance_sq)
    for call in (lambda d: transform(ap, d, seed=0), lambda d: verify(ap, d)):
        with pytest.raises(DatasetMismatchError, match="weights") as err:
            call(reweighted)
        assert err.value.exit_code == 3


@pytest.mark.parametrize("m", [1, 2])
def test_transform_pairs_rows_whatever_order_the_groups_first_appear_in(rng, m):
    # the same rows shuffled with each group's rows kept in their order:
    # the groups first appear in another order, and every row keeps its y
    rows = [(f"g{a}", rng.normal(size=m), float(rng.random() + 0.05), float(rng.random()))
            for a in range(4) for _ in range(int(rng.integers(2, 6)))]
    d = moved = dataset_from_rows(rows)
    ap = build(d)
    while moved.labels == d.labels:
        slots = [rows[i][0] for i in rng.permutation(len(rows))]
        queues = {g: iter([i for i, r in enumerate(rows) if r[0] == g]) for g in d.labels}
        order = [next(queues[g]) for g in slots]
        moved = dataset_from_rows([rows[i] for i in order])
    assert np.array_equal(transform(ap, moved).y, transform(ap, d).y[order])
    assert verify(ap, moved).passed


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
    conditional = rng.dirichlet(np.ones(ap.nu0.n), size=len(d.group_rows(label)))
    changed = with_conditional(ap, label, conditional)
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


# --- orthogonal decomposition ------------------------------------------------------

def test_decompose_measurable_case():
    d = dataset_from_rows([("a", 0.0, 1.0), ("b", 2.0, 1.0)])
    centered, support, between = decomposition(d)
    assert abs(build(centered, support=support).achieved_distance_sq) <= 1e-15
    assert abs(between - 1.0) <= 1e-12
    ap = build(d)
    assert np.allclose(ap.nu0.support[0], [1.0])
    assert abs(ap.achieved_distance_sq - 1.0) <= 1e-12


def test_decompose_independent_case_reduces_to_build():
    rows = [("a", 0.0, 1.0), ("a", 2.0, 1.0), ("b", 0.0, 2.0), ("b", 2.0, 2.0)]
    d = dataset_from_rows(rows)
    assert decomposition(d)[2] <= 1e-15
    assert abs(build(d).achieved_distance_sq - decomposed_distance_sq(d)) <= 1e-12


def test_decompose_matches_build(rng):
    for m in (1, 2):
        for _ in range(5):
            d = random_dataset(rng, m=m)
            assert abs(build(d).achieved_distance_sq - decomposed_distance_sq(d)) <= 1e-8


def test_1d_build_verify_transform_stay_sparse_at_10x1000(rng):
    # 10 groups of 1,000 rows give nu0 about 10,000 points; the dense
    # couplings of old needed about 1 GiB here
    G, n = 10, 1000
    groups = tuple(f"g{a}" for a in range(G) for _ in range(n))
    x = rng.normal(size=(G * n, 1)) + 0.7 * np.repeat(np.arange(G), n)[:, None]
    d = Dataset(groups, x, rng.random(G * n) + 0.05)
    tracemalloc.start()
    try:
        ap = build(d)
        report = verify(ap, d)
        out = transform(ap, d, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert len(ap.disintegration.mass) <= G * (n + ap.nu0.n - 1)
    assert peak < 150 * 2**20
    assert out.y.shape == (G * n, 1)


def test_build_1d_path_runs_no_simplex_solve(rng, monkeypatch):
    # nor a staircase: the quantile merge hands the build its couplings
    import otrepair.ot
    from otrepair.diagnostics import verify

    d2 = random_dataset(rng, m=2)
    built = [(d2, build(d2))]

    def forbidden(*args, **kwargs):
        raise AssertionError("transport LP solved or staircase formed")

    monkeypatch.setattr(otrepair.ot, "solve_exact", forbidden)
    monkeypatch.setattr(otrepair.ot, "linprog", forbidden)
    monkeypatch.setattr(otrepair.ot, "comonotone_staircases", forbidden)
    d = random_dataset(rng, m=1)
    built.append((d, build(d)))
    assert all(ap.achieved_distance_sq >= 0.0 for _, ap in built)
    # verify certifies from the build's potentials in every dimension
    for data, ap in built:
        assert verify(ap, data).passed


@pytest.mark.parametrize("light", [False, True], ids=["all_kept", "negligible_group"])
def test_default_1d_build_sorts_once_and_couples_through_one_staircase_core(
        rng, monkeypatch, light):
    # nu0 and every kept group's coupling come from one sort, handed to the
    # staircase core once; only a group dropped as negligible is coupled
    # alone, by a staircase that sorts it and calls the core again
    calls = Counter()
    for name in ("_sorted_1d", "comonotone_staircases", "_staircases"):
        real = getattr(otrepair.ot, name)
        for module in (otrepair.ot, otrepair.barycenter, otrepair.approx):
            if getattr(module, name, None) is real:
                def counted(*args, name=name, real=real):
                    calls[name] += 1
                    return real(*args)
                monkeypatch.setattr(module, name, counted)
    d = random_dataset(rng, n_atoms=4, max_rows=30, m=1)
    if light:
        w = d.weights.copy()
        w[np.array(d.groups) == d.groups[0]] *= 1e-14
        d = Dataset(d.groups, d.x, w)
        with pytest.warns(UserWarning, match="dropping 1 negligible atom"):
            ap = build(d)
    else:
        ap = build(d)
    assert calls == Counter(_sorted_1d=1 + light, comonotone_staircases=light,
                            _staircases=1 + light)
    assert verify(ap, d).passed


def _shifted_groups(rng, m, G, n, light=None):
    """G groups of n rows, x = N(0, 1) + 0.7 g on every coordinate, weights
    U(0, 1) + 0.05; group ``light``'s weights scaled by 1e-16."""
    groups = tuple(f"g{a}" for a in range(G) for _ in range(n))
    x = rng.normal(size=(G * n, m)) + 0.7 * np.repeat(np.arange(G), n)[:, None]
    w = rng.random(G * n) + 0.05
    if light is not None:
        w[light * n:(light + 1) * n] *= 1e-16
    return Dataset(groups, x, w)


def concatenate(parts):
    """One store of the rows of the stores ``parts`` in turn."""
    arcs = np.cumsum([0] + [p.indptr[-1] for p in parts])
    return Disintegration(
        np.concatenate([[0]] + [p.indptr[1:] + a for p, a in zip(parts, arcs)]),
        np.concatenate([p.cols for p in parts]),
        np.concatenate([p.mass for p in parts]),
        np.concatenate([p.potential for p in parts]),
    )


@pytest.mark.filterwarnings("ignore:dropping 1 negligible atom")
@pytest.mark.parametrize("m, G, n", [(1, 6, 600), (2, 3, 5)],
                         ids=["1d-over-2^14-arcs", "2d-joint-lp"])
def test_one_store_is_the_per_group_stores(rng, m, G, n):
    # build stores every coupling by one from_arcs over one record, in
    # which the negligible middle group's fresh arcs follow the others';
    # a store per group, concatenated, holds the same bytes
    d = _shifted_groups(rng, m, G, n, light=G // 2)
    ap = build(d)
    fam, nu0 = ap.family, ap.nu0
    bary = solve_barycenter(fam)
    assert bary.couplings is not None
    rows, cols, flow, u, costs = _coupled_arcs(fam, bary, nu0, d.mean_x() - mean(bary.nu0))
    assert m > 1 or len(rows) > 2**14
    parts = []
    for a, (s, e) in enumerate(zip(fam.starts[:-1].tolist(), fam.starts[1:].tolist())):
        arc = (rows >= s) & (rows < e)
        if a == G // 2:
            # the dropped group, coupled alone
            (r, c, f, v, cost), = _family_couplings(fam.support[s:e], fam.weights[s:e],
                                                   np.array([0, e - s]), nu0)
            for got, ref in zip((rows[arc] - s, cols[arc], flow[arc], u[s:e], costs[a:a + 1]),
                                (r, c, f, v, cost)):
                assert np.array_equal(got, ref)
        parts.append(Disintegration.from_arcs(rows[arc] - s, cols[arc], flow[arc], u[s:e], nu0))
    ref = concatenate(parts)
    for name in ("indptr", "cols", "mass", "potential"):
        assert getattr(ap.disintegration, name).tobytes() == getattr(ref, name).tobytes()
    assert ap.achieved_distance_sq == _total(fam.probabilities, costs)
    assert verify(ap, d).passed


def test_conditional_lays_out_its_group_only(rng):
    # 6 groups of 600 rows and 3,595 nu0 points: one group's dense
    # conditionals take 16.5 MiB, all six 99 MiB
    ap = build(_shifted_groups(rng, 1, 6, 600))
    K = ap.nu0.n
    assert K == 3595
    full = ap.disintegration.dense(K)
    for label, s, e in zip(ap.family.labels, ap.family.starts, ap.family.starts[1:]):
        tracemalloc.start()
        try:
            got = ap.conditional(label)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, full[s:e])
        assert peak < 2 * got.nbytes


def _per_row_lookup(ap, label, i, u):
    """Reference sampler: a scan of one ladder row for the first position
    that adds mass and whose cumulative weight reaches each u, else the
    last position that adds mass."""
    order = _lex_order(ap)
    cum = np.cumsum(ap.conditional(label)[i][order])
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
                cum = np.cumsum(ap.conditional(label)[i][order])
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
            conditional = ap.conditional(label)
            for i, r in enumerate(d.group_rows(label)):
                for y in (out.y[r], sample_y(ap, label, i, u_value)):
                    (j,) = np.flatnonzero((ap.nu0.support == y).all(axis=1))
                    assert conditional[i, j] > 0.0

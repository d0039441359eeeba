import json
from dataclasses import replace

import numpy as np
import pytest

from densesimplex import solve_standard_form
from otrepair.approx import Disintegration, build, estimate_conditionals
from otrepair.barycenter import default_support
from otrepair.measure import (
    Dataset,
    DiscreteMeasure,
    dataset_from_rows,
    family,
    make_measure,
    mean,
)
from otrepair.ot import cost_matrix, solve_comonotone_1d, solve_exact
from otrepair.special_binary import is_half, solve_half, solve_nonhalf


def optimal_coupling(mu, nu):
    """An optimal coupling: the 1-D closed form when m = 1, the transport LP otherwise."""
    return solve_comonotone_1d(mu, nu) if mu.dim == 1 else solve_exact(mu, nu)


def reference_conditionals(data):
    """The group-by estimate one group at a time as (label, p, law)
    triples, each law through the checking :class:`DiscreteMeasure`
    constructor and none through a family: the oracle of
    ``otrepair.approx.estimate_conditionals``."""
    triples = []
    for label in data.labels:
        rows = data.group_rows(label)
        w = data.weights[rows]
        p = float(w.sum())
        triples.append((label, p, DiscreteMeasure(data.x[rows], w / p)))
    return triples


def reference_emit_json(value) -> str:
    """Compact JSON by one ``json.dumps`` per string and key and floats
    as 17 significant digits: the oracle of ``otrepair.cli._emit_json``."""
    if value is None or isinstance(value, (bool, str)):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, np.ndarray):
        return reference_emit_json(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(reference_emit_json(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = [
            json.dumps(str(k), ensure_ascii=False) + ":" + reference_emit_json(v)
            for k, v in value.items()
        ]
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def simplex_objective(fam, nu):
    """The p-weighted sum of squared W2 distances to nu by fresh
    transport-LP solves (``solve_exact``, HiGHS dual simplex): a route
    independent of the comonotone couplings that
    ``otrepair.approx.lower_bound`` uses in 1-D."""
    return float(sum(a.p * solve_exact(a.law, nu).cost for a in fam.atoms))


def dense_simplex_objective(fam, nu):
    """The same objective with every transport LP solved by the dense
    Bland simplex of ``densesimplex.py``, an engine apart from HiGHS.
    At desk sizes (a few points per atom, a dozen in nu) it skips
    SciPy's per-call overhead; it slows down quickly beyond."""
    total = 0.0
    for a in fam.atoms:
        C = cost_matrix(a.law.support, nu.support)
        n, k = C.shape
        # row sums, then column sums, of the plan stored row-major
        A = np.vstack([np.kron(np.eye(n), np.ones(k)), np.tile(np.eye(k), n)])
        b = np.concatenate([a.law.weights, nu.weights])
        total += a.p * solve_standard_form(C.ravel(), A, b).fun
    return total


def with_conditional(ap, label, conditional):
    """``ap`` with one atom's conditionals replaced by the rows of a dense
    matrix over nu0's index order; the potentials are kept."""
    dis = ap.disintegration
    dense = dis.dense(ap.nu0.n)
    a = ap.family.labels.index(label)
    starts = ap.family.starts
    dense[starts[a]:starts[a + 1]] = conditional
    rows, cols = np.nonzero(dense)
    return replace(ap, disintegration=Disintegration.from_arcs(
        rows, cols, dense[rows, cols], dis.potential, ap.nu0))


def decomposition(d):
    """The orthogonal split x = (x - E[x | group]) + E[x | group] of a dataset.

    Returns the group-centered dataset, the support to solve it on and
    the p-weighted variance of the group means.  For m > 1 the support
    is the direct problem's default grid shifted by -E[x], which makes
    the two grid-restricted problems equivalent; in 1-D it is None.  So
    ``build(centered, support=support).achieved_distance_sq`` plus that
    variance is the direct ``build`` optimum, to rounding.
    """
    fam = estimate_conditionals(d)
    mean_x = d.mean_x()
    means = {a.label: mean(a.law) for a in fam.atoms}
    centered = Dataset(d.groups, d.x - np.stack([means[g] for g in d.groups]), d.weights)
    support = None if d.dim == 1 else default_support(fam) - mean_x
    between = float(sum(a.p * np.sum((means[a.label] - mean_x) ** 2) for a in fam.atoms))
    return centered, support, between


def decomposed_distance_sq(d):
    """The optimum of ``d`` through :func:`decomposition`."""
    centered, support, between = decomposition(d)
    return build(centered, support=support).achieved_distance_sq + between


def compare_unconstrained(inst):
    """(constrained, unconstrained) optimal squared distances of a binary
    instance: its two-valued closed form, and ``build`` on its dataset,
    where each atom has a row x = f of mass p * pA and a row x = g of mass
    p * (1 - pA).  The exact 1-D barycenter attains the true optimum, which
    may use an auxiliary uniform, so it never exceeds the constrained one."""
    pa = float(inst.p_a)
    rows = [row for lab, p, f, g in zip(inst.labels, inst.probs, inst.f, inst.g)
            for row in ((lab, float(f), float(p) * pa), (lab, float(g), float(p) * (1 - pa)))]
    sol = solve_half(inst) if is_half(inst.p_a) else solve_nonhalf(inst)
    return sol.distance_sq, build(dataset_from_rows(rows)).achieved_distance_sq


def random_measure(rng, n=None, m=1, unit=False):
    """Random discrete measure; unit=True keeps support in [0, 1]^m."""
    if n is None:
        n = int(rng.integers(1, 9))
    pts = rng.random((n, m)) if unit else rng.normal(size=(n, m))
    return make_measure(pts, rng.random(n) + 0.05)


def random_family(rng, n_atoms=None, max_pts=8, m=1, unit=False, uniform_weights=False):
    if n_atoms is None:
        n_atoms = int(rng.integers(2, 5))
    p = rng.random(n_atoms) + 0.1
    p = p / p.sum()
    atoms = []
    for a in range(n_atoms):
        n = int(rng.integers(1, max_pts + 1))
        pts = rng.random((n, m)) if unit else rng.normal(size=(n, m))
        w = np.ones(n) if uniform_weights else rng.random(n) + 0.05
        atoms.append((f"g{a}", p[a], make_measure(pts, w)))
    return family(atoms)


def random_dataset(rng, n_atoms=None, max_rows=8, m=1, with_u=False, unit=False):
    if n_atoms is None:
        n_atoms = int(rng.integers(2, 5))
    rows = []
    for a in range(n_atoms):
        n = int(rng.integers(1, max_rows + 1))
        for _ in range(n):
            x = rng.random(m) if unit else rng.normal(size=m)
            row = [f"g{a}", x, float(rng.random() + 0.05)]
            if with_u:
                row.append(float(rng.random()))
            rows.append(tuple(row))
    return dataset_from_rows(rows)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

import numpy as np
import pytest

from otrepair.measure import dataset_from_rows, family, make_measure
from otrepair.ot import wasserstein_sq


def simplex_objective(fam, nu):
    """The p-weighted sum of squared W2 distances to nu by fresh
    transport-LP solves (``solve_exact``, HiGHS dual simplex): a route
    independent of the comonotone couplings that
    ``otrepair.approx.lower_bound`` uses in 1-D."""
    return float(
        sum(a.p * wasserstein_sq(a.law, nu, method="exact") for a in fam.atoms)
    )


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

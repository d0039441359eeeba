"""The independence-repair pipeline.

Given a dataset of (group, x) samples, this module estimates the
conditional law of x within each group, computes a barycenter nu0 of
those laws, couples every group law optimally to nu0, disintegrates the
couplings over the source points and realizes the repaired variable y
through an inverse-CDF lookup driven by a uniform draw u.  The result
is, at sample level, the closest-in-L2 variable that is independent of
the grouping:

- y's conditional law given any group equals nu0 by construction, and
- the achieved squared distance equals the weighted sum of squared
  Wasserstein distances from the group laws to nu0, which lower-bounds
  every independent candidate with law nu0.

In 1-D the default nu0 is the exact barycenter, so the result is the
global optimum; for m >= 2 the default nu0 is optimal only among
measures on the union of the group supports.

``decompose_solve`` runs the same construction through the orthogonal
split of x into its per-group mean and the centered remainder; its
optimum coincides with the direct one, which makes it a strong
self-consistency check.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .barycenter import (
    BarycenterResult,
    _check_support,
    _resolve_method,
    default_support,
    solve_barycenter,
)
from .errors import (
    ConfigConflictError,
    DatasetMismatchError,
    IndexOutOfRangeError,
    MissingUError,
    UnknownGroupError,
    UnseenValueError,
    UOutOfRangeError,
)
from .measure import (
    ConditionalAtom,
    ConditionalFamily,
    Dataset,
    DiscreteMeasure,
    dirac,
    mean,
)
from .ot import cost_matrix, optimal_coupling

__all__ = [
    "Disintegration",
    "IndependentApproximation",
    "SampledOutput",
    "estimate_conditionals",
    "lower_bound",
    "build",
    "sample_y",
    "transform",
    "transform_grid",
    "decompose_solve",
    "match_rows",
]


def estimate_conditionals(data: Dataset) -> ConditionalFamily:
    """Group-by estimate of the conditional laws of x.

    Atom probabilities are the groups' total weights; each conditional
    law keeps its rows in dataset order (duplicates included), so the
    i-th row of a group is the i-th support point of its atom.
    """
    atoms = []
    for label in data.labels:
        rows = data.group_rows(label)
        w = data.weights[rows]
        p = float(w.sum())
        atoms.append(ConditionalAtom(label, p, DiscreteMeasure(data.x[rows], w / p)))
    return ConditionalFamily(tuple(atoms))


def lower_bound(family: ConditionalFamily, nu: DiscreteMeasure) -> float:
    """Weighted sum of exact squared Wasserstein distances to nu.

    No variable with law nu that is independent of the grouping can be
    closer to x in squared L2 than this value; the pipeline's construction
    attains it.  Each distance is the cost of :func:`otrepair.ot.optimal_coupling`,
    the same couplings :func:`build` uses.
    """
    return float(sum(a.p * optimal_coupling(a.law, nu).cost for a in family.atoms))


@dataclass(frozen=True, eq=False)
class Disintegration:
    """Row-wise conditional laws of one atom's optimal coupling.

    ``conditional[i]`` is the probability vector (over nu0's support in
    its natural index order) of the target given source point i; it is
    the only stored form of the coupling, and the samplers derive their
    cumulative ladders from it.  Reconstructing the column marginal,
    sum_i mu_a(i) * conditional[i], gives back nu0's weights.
    ``potential[i]`` is the coupling's dual potential at source point i;
    with its c-transform over nu0's support it certifies the coupling's
    cost as the squared Wasserstein distance (see
    :func:`otrepair.diagnostics.verify`).
    """

    law: DiscreteMeasure
    conditional: np.ndarray
    potential: np.ndarray


@dataclass(frozen=True, eq=False)
class IndependentApproximation:
    """Everything needed to sample the repaired variable.

    ``achieved_distance_sq`` is accumulated through the disintegrations
    and agrees with ``lower_bound(family, nu0)`` (the weighted sum of the
    per-atom optimal coupling costs to nu0) up to float noise; ``mean_y``
    equals ``mean_x`` by construction of nu0.
    """

    family: ConditionalFamily
    nu0: DiscreteMeasure
    disintegrations: dict
    achieved_distance_sq: float
    mean_x: np.ndarray
    mean_y: np.ndarray
    method: str
    barycenter_iterations: int = 0
    barycenter_converged: bool = True
    lp_objective: float | None = None
    decomposition: dict | None = None


@dataclass(frozen=True, eq=False)
class SampledOutput:
    """Per-row repaired samples, aligned with the input dataset."""

    groups: tuple
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.groups)


def _achieved_from_disintegrations(
    family: ConditionalFamily, nu0: DiscreteMeasure, disintegrations: dict
) -> float:
    total = 0.0
    for atom in family.atoms:
        dis = disintegrations[atom.label]
        C = cost_matrix(atom.law.support, nu0.support)
        total += atom.p * float(
            np.einsum("i,ij,ij->", atom.law.weights, dis.conditional, C)
        )
    return total


def _assemble(
    family: ConditionalFamily, bary: BarycenterResult, mean_x: np.ndarray
) -> IndependentApproximation:
    nu0 = bary.nu0
    disintegrations = {}
    # one atom at a time, so only one dense coupling is alive at once
    for atom in family.atoms:
        sol = optimal_coupling(atom.law, nu0)
        g = sol.coupling.weights
        row_mass = g.sum(axis=1)
        alpha = np.empty_like(g)
        ok = row_mass > 0.0
        alpha[ok] = g[ok] / row_mass[ok, None]
        # zero-mass rows are unconstrained; give them nu0 itself
        alpha[~ok] = nu0.weights
        disintegrations[atom.label] = Disintegration(atom.law, alpha, sol.potentials[0])
    return IndependentApproximation(
        family=family,
        nu0=nu0,
        disintegrations=disintegrations,
        achieved_distance_sq=_achieved_from_disintegrations(family, nu0, disintegrations),
        mean_x=np.asarray(mean_x, dtype=float),
        mean_y=mean(nu0),
        method=bary.method,
        barycenter_iterations=bary.iterations,
        barycenter_converged=bary.converged,
        lp_objective=bary.lp_objective,
    )


def build(data: Dataset, *, method: str = "auto", **options) -> IndependentApproximation:
    """Construct the best independent approximation of a dataset.

    ``method`` and the further keyword ``options`` pick and tune the
    barycenter backend as in :func:`otrepair.barycenter.solve_barycenter`:
    ``auto`` uses the exact 1-D quantile closed form when m = 1 and the
    exact fixed-support LP on the coalesced union of atom supports
    otherwise.  Whatever the backend returns is translated so its mean
    equals the dataset mean; the translation never increases the
    objective and makes the mean identity exact.  Per-atom couplings to
    the final nu0 are always exact (the comonotone closed form when
    m = 1, the network simplex otherwise), and :func:`lower_bound` of
    nu0 is the weighted sum of their costs.  Each disintegration keeps its
    coupling's row potential, from which
    :func:`otrepair.diagnostics.verify` certifies optimality.
    """
    family = estimate_conditionals(data)
    mean_x = data.mean_x()
    if (_resolve_method(method, data.dim) in ("exact", "quantile1d")
            and all(a.law.n == 1 for a in family.atoms)):
        # every conditional law is a point mass: the optimum is the mean
        point = sum(a.p * a.law.support[0] for a in family.atoms)
        bary = BarycenterResult(dirac(point), "dirac_closed_form", 0, True)
        return _assemble(family, bary, mean_x)
    bary = solve_barycenter(family, method, **options)
    # recentring: W2^2 to every atom drops by |shift|^2 jointly, and
    # the mean of nu0 becomes the mean of x exactly
    nu0 = bary.nu0.translate(mean_x - mean(bary.nu0))
    return _assemble(family, replace(bary, nu0=nu0), mean_x)


def match_rows(approx: IndependentApproximation, data: Dataset) -> dict:
    """Each group's row positions, checked to be the rows the approximation
    was built from (rows pair with atom support points by index).

    A group's x values must equal its atom's support exactly, and its row
    weights, scaled to the group's total as :func:`estimate_conditionals`
    does, must equal the atom's weights to 1e-12 relative, which absorbs
    only the rounding of that scaling.  Raises
    :class:`DatasetMismatchError`, or its subclasses
    :class:`UnknownGroupError` and :class:`UnseenValueError`.
    """
    rows_of = {}
    for label in data.labels:
        dis = approx.disintegrations.get(label)
        if dis is None:
            raise UnknownGroupError(label)
        rows = data.group_rows(label)
        if len(rows) != dis.law.n or not np.array_equal(data.x[rows], dis.law.support):
            raise UnseenValueError(
                f"group {label!r} does not match the support the "
                "approximation was built from"
            )
        w = data.weights[rows]
        if (np.abs(w - w.sum() * dis.law.weights) > 1e-12 * w).any():
            raise DatasetMismatchError(
                f"group {label!r} does not match the row weights the "
                "approximation was built from"
            )
        rows_of[label] = rows
    if len(rows_of) != len(approx.disintegrations):
        raise DatasetMismatchError("dataset groups differ from the approximation's")
    return rows_of


# the least positive float: a u = 0 draw skips leading zero-mass positions
_LEAST_POSITIVE = np.nextafter(0.0, 1.0)


def _support_order(nu0: DiscreteMeasure) -> np.ndarray:
    """nu0's support indices in lexicographic order, the samplers' fixed order."""
    return np.lexsort(nu0.support.T[::-1])


def _lookup(
    approx: IndependentApproximation,
    order: np.ndarray,
    label,
    source: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """nu0 points drawn at ``u[i]`` from the conditional row ``source[i]`` of ``label``.

    Each row's ladder is its cumulative conditional in the support
    ``order`` (see :func:`_support_order`).  A row whose sum rounds
    below 1 ends in a run of equal values, which starts at the last
    position that adds mass; raising that run to 1 makes u = 1 stop
    there.  A draw is the first ladder position with positive mass whose
    cumulative weight reaches u: u = 0 is raised to the least positive
    float, which skips leading zero-mass positions.  Complex numbers
    sort lexicographically, so one exact ``searchsorted`` over the
    sorted keys ``row + 1j * cum`` finds it for every query
    ``source + 1j * u``.
    """
    ladder = np.cumsum(approx.disintegrations[label].conditional[:, order], axis=1)
    np.maximum(ladder, 1.0, out=ladder, where=ladder >= ladder[:, -1:])
    n, K = ladder.shape
    keys = np.empty((n, K), dtype=complex)
    keys.real = np.arange(n)[:, None]
    keys.imag = ladder
    query = source + 1j * np.maximum(u, _LEAST_POSITIVE)
    pos = np.searchsorted(keys.ravel(), query, side="left") - source * K
    return approx.nu0.support[order[pos]]


def sample_y(
    approx: IndependentApproximation,
    group,
    source_index: int,
    u: float,
) -> np.ndarray:
    """Deterministic inverse-CDF sample of y for one source point.

    Returns the nu0 support point at the least position (in the fixed
    lexicographic support order) whose cumulative conditional weight
    reaches u.
    """
    dis = approx.disintegrations.get(group)
    if dis is None:
        raise UnknownGroupError(group)
    if not 0 <= source_index < dis.law.n:
        raise IndexOutOfRangeError(
            f"source index {source_index} outside atom of size {dis.law.n}"
        )
    if not 0.0 <= u <= 1.0:
        raise UOutOfRangeError(f"u={u!r} outside [0, 1]")
    return _lookup(approx, _support_order(approx.nu0), group,
                   np.array([source_index]), np.array([u], dtype=float))[0]


def transform(
    approx: IndependentApproximation,
    data: Dataset,
    seed: int | None = None,
) -> SampledOutput:
    """Apply the approximation to a dataset, row by row.

    Rows are matched to atom support points by their index within the
    group (see :func:`match_rows`), so this expects the dataset the
    approximation was built from (or a byte-identical one).  Uniform
    draws come from the dataset's u column, else from a seeded generator;
    with neither, sampling is refused rather than silently
    nondeterministic.
    """
    rows_of = match_rows(approx, data)
    if data.u is not None:
        u = np.asarray(data.u, dtype=float)
    elif seed is not None:
        u = np.random.default_rng(seed).random(data.n_rows)
    else:
        raise MissingUError("dataset has no u column and no seed was given")

    order = _support_order(approx.nu0)
    y = np.empty((data.n_rows, approx.nu0.dim))
    for label, rows in rows_of.items():
        y[rows] = _lookup(approx, order, label, np.arange(len(rows)), u[rows])
    return SampledOutput(
        groups=data.groups, x=data.x, u=u, y=y, weights=data.weights
    )


def transform_grid(
    approx: IndependentApproximation,
    data: Dataset,
    resolution: int,
) -> SampledOutput:
    """Evaluate the sampler on the uniform midpoint grid for every row.

    Each dataset row is fanned out across u = (i - 1/2)/R with weight
    w/R, which approximates the row's conditional law of y to within
    1/R per cumulative breakpoint.  Output rows are grouped by input
    row, grid index fastest.
    """
    if resolution < 1:
        raise ConfigConflictError("resolution must be at least 1")
    rows_of = match_rows(approx, data)
    grid = (np.arange(resolution) + 0.5) / resolution
    order = _support_order(approx.nu0)
    y = np.empty((data.n_rows * resolution, approx.nu0.dim))
    for label, rows in rows_of.items():
        out_rows = (rows[:, None] * resolution + np.arange(resolution)).ravel()
        source = np.repeat(np.arange(len(rows)), resolution)
        y[out_rows] = _lookup(approx, order, label, source, np.tile(grid, len(rows)))
    return SampledOutput(
        groups=tuple(g for g in data.groups for _ in range(resolution)),
        x=np.repeat(data.x, resolution, axis=0),
        u=np.tile(grid, data.n_rows),
        y=y,
        weights=np.repeat(data.weights / resolution, resolution),
    )


def decompose_solve(
    data: Dataset,
    *,
    method: str = "auto",
    support=None,
    **options,
) -> IndependentApproximation:
    """Solve through the orthogonal decomposition of x.

    Further keyword ``options`` are those of :func:`build`.

    Subtracts each group's conditional mean, builds the approximation of
    the centered data, and translates the result back by the global
    mean.  The achieved distance splits into the centered distance plus
    the variance of the conditional means, and coincides with the direct
    :func:`build` optimum.

    For the fixed-support methods the centered problem is solved on the
    direct problem's grid shifted by the global mean, which makes the
    two restricted problems exactly equivalent.
    """
    family = estimate_conditionals(data)
    mean_x = data.mean_x()

    atom_mean = {a.label: mean(a.law) for a in family.atoms}
    shift = np.stack([atom_mean[g] for g in data.groups])
    centered = Dataset(data.groups, data.x - shift, data.weights, data.u)

    if _resolve_method(method, data.dim) in ("exact", "entropic"):
        S = default_support(family) if support is None else support
        support = _check_support(family, S) - mean_x[None, :]

    inner = build(centered, method=method, support=support, **options)

    between_var = float(
        sum(a.p * np.sum((atom_mean[a.label] - mean_x) ** 2) for a in family.atoms)
    )
    nu0 = inner.nu0.translate(mean_x)
    disintegrations = {}
    for atom in family.atoms:
        dis = inner.disintegrations[atom.label]
        # the cost to nu0 is the centered cost plus 2 x~.delta + |delta|^2
        # minus a column-only term, which the c-transform absorbs
        delta = atom_mean[atom.label] - mean_x
        potential = dis.potential + 2.0 * (dis.law.support @ delta) + delta @ delta
        disintegrations[atom.label] = replace(dis, law=atom.law, potential=potential)
    # barycenter iterations, convergence and LP value carry over from inner
    return replace(
        inner,
        family=family,
        nu0=nu0,
        disintegrations=disintegrations,
        achieved_distance_sq=_achieved_from_disintegrations(family, nu0, disintegrations),
        mean_x=mean_x,
        mean_y=mean(nu0),
        method=f"decomposed[{inner.method}]",
        decomposition={
            "between_variance": between_var,
            "centered_achieved": inner.achieved_distance_sq,
        },
    )

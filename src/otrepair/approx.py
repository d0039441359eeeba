"""The independence-repair pipeline.

Given a dataset of (group, x) samples, this module estimates the
conditional law of x within each group, computes a barycenter nu0 of
those laws, couples every group law optimally to nu0 (both exact
barycenters, the fixed-support LP and the 1-D quantile merge, already
hold these couplings, so those routes solve no further transport
problem; otherwise one batched staircase couples every group at once
in 1-D), stores the couplings' disintegrations over the source
points in one sparse structure and realizes the repaired variable y
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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barycenter import BarycenterResult, _negligible, _total, solve_barycenter
from .errors import (
    ConfigConflictError,
    DatasetMismatchError,
    IndexOutOfRangeError,
    MissingUError,
    UnknownGroupError,
    UnseenValueError,
    UOutOfRangeError,
)
from .measure import ConditionalFamily, Dataset, DiscreteMeasure, mean
from .ot import (
    _family_couplings,
    _search_segments,
    _segment_cumsum,
    _segment_sum,
)

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
    "match_rows",
]


def estimate_conditionals(data: Dataset) -> ConditionalFamily:
    """Group-by estimate of the conditional laws of x, in one pass over
    the rows grouped by label.

    Atom probabilities are the groups' total weights; each conditional
    law keeps its rows in dataset order (duplicates included), so the
    i-th row of a group is the i-th support point of its atom.  The flat
    arrays become the family's layout as they are, each law holding the
    same floats as ``DiscreteMeasure(data.x[rows], w / p)`` of its
    group's rows, since the segmented sums equal each group's ``sum()``.
    """
    rows, indptr = data.grouped_rows()
    sizes = np.diff(indptr)
    x = data.x[rows]
    w = data.weights[rows]
    p = _segment_sum(w, indptr)
    w /= np.repeat(p, sizes)
    totals = _segment_sum(w, indptr)
    return ConditionalFamily(data.labels, p, indptr, x, w / np.repeat(totals, sizes))


def lower_bound(family: ConditionalFamily, nu: DiscreteMeasure) -> float:
    """Weighted sum of exact squared Wasserstein distances to nu.

    No variable with law nu that is independent of the grouping can be
    closer to x in squared L2 than this value; the pipeline's construction
    attains it.  Its costs are :func:`otrepair.ot._family_couplings`',
    as in :func:`build` unless that keeps the barycenter's own plans,
    which are optimal too but may be others.
    """
    batches = _family_couplings(family.support, family.weights, family.starts, nu)
    return _total(family.probabilities, np.concatenate([costs for *_, costs in batches]))


def _support_order(nu0: DiscreteMeasure) -> np.ndarray:
    """nu0's support indices in lexicographic order, the samplers' fixed order."""
    return np.lexsort(nu0.support.T[::-1])


@dataclass(frozen=True, eq=False)
class Disintegration:
    """Every atom's optimal coupling to nu0 as row-wise conditional laws,
    stored sparse in one CSR structure.

    Rows are the atoms' source points in the family's flat layout: atom
    a holds rows ``family.starts[a]:family.starts[a + 1]``, in its law's
    order (see :class:`otrepair.measure.ConditionalFamily`).
    Row r's arcs are ``indptr[r]:indptr[r + 1]``, sorted in the samplers'
    support order (see :func:`_support_order`): ``cols`` holds their nu0
    indices and ``mass`` the positive probabilities of the target given
    source point r.  A coupling's zeros are not stored, so a 1-D
    staircase keeps at most n_a + K - 1 arcs per atom.  Reconstructing
    the column marginal, sum_i mu_a(i) * mass over each atom's arcs,
    gives back nu0's weights.  ``potential[r]`` is the coupling's dual
    potential at source point r; with its c-transform over nu0's support
    it certifies the coupling's cost as the squared Wasserstein distance
    (see :func:`otrepair.diagnostics.verify`).
    """

    indptr: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    potential: np.ndarray

    @classmethod
    def from_arcs(cls, rows, cols, flow, potential, nu0: DiscreteMeasure):
        """The store of couplings given as arcs (row, nu0 index, flow),
        with one row per entry of ``potential``.

        Each row's positive flows are divided by their sum.  A row
        without mass is unconstrained and gets nu0 itself.
        """
        keep = flow > 0.0
        rows, cols, flow = rows[keep], cols[keep], flow[keep]
        charged = np.zeros(len(potential), dtype=bool)
        charged[rows] = True
        empty = np.flatnonzero(~charged)
        order = _support_order(nu0)
        fill = order[nu0.weights[order] > 0.0]
        rows = np.concatenate([rows, np.repeat(empty, len(fill))])
        cols = np.concatenate([cols, np.tile(fill, len(empty))])
        flow = np.concatenate([flow, np.tile(nu0.weights[fill], len(empty))])
        rank = np.empty(nu0.n, dtype=np.intp)
        rank[order] = np.arange(nu0.n)
        arcs = np.lexsort((rank[cols], rows))
        rows, cols, flow = rows[arcs], cols[arcs], flow[arcs]
        counts = np.bincount(rows, minlength=len(potential))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        row_mass = _segment_sum(flow, indptr)
        row_mass[empty] = 1.0
        return cls(indptr, cols, flow / np.repeat(row_mass, counts),
                   np.asarray(potential, dtype=float))

    def dense(self, k: int) -> np.ndarray:
        """The conditionals as a dense (rows, k) matrix over nu0's index
        order, for inspection and tests; the samplers read the arcs."""
        out = np.zeros((len(self.indptr) - 1, k))
        out[np.repeat(np.arange(len(out)), np.diff(self.indptr)), self.cols] = self.mass
        return out


@dataclass(frozen=True, eq=False)
class IndependentApproximation:
    """Everything needed to sample the repaired variable.

    ``achieved_distance_sq`` is the p-weighted sum of the costs of the
    per-atom optimal couplings to nu0, summed in atom order.  It equals
    ``lower_bound(family, nu0)`` exactly unless the build kept the
    barycenter's couplings (the default in every dimension: the quantile
    merge's in 1-D, the joint LP's otherwise); then it agrees to
    rounding, as ``lower_bound`` couples afresh and may land on another
    optimal plan (within 1e-12 relative in the tests), and ``verify``
    certifies it.  ``mean_y`` equals ``mean_x`` by construction of nu0.
    """

    family: ConditionalFamily
    nu0: DiscreteMeasure
    disintegration: Disintegration
    achieved_distance_sq: float
    mean_x: np.ndarray
    mean_y: np.ndarray
    method: str
    barycenter_iterations: int = 0
    barycenter_converged: bool = True

    def conditional(self, label) -> np.ndarray:
        """One atom's conditionals as a dense matrix: row i is the law of
        y given the atom's i-th source point, over nu0's index order."""
        a = self.family.labels.index(label)
        s, e = self.family.starts[a:a + 2]
        dis = self.disintegration
        lo, hi = dis.indptr[s], dis.indptr[e]
        return Disintegration(dis.indptr[s:e + 1] - lo, dis.cols[lo:hi], dis.mass[lo:hi],
                              dis.potential[s:e]).dense(self.nu0.n)


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


def _coupled_arcs(family: ConditionalFamily, bary: BarycenterResult,
                  nu0: DiscreteMeasure, shift: np.ndarray) -> tuple:
    """Every atom's exact coupling to nu0, the barycenter's measure
    translated by ``shift``, as one arc record (rows, cols, flow, u,
    costs) over the family's flat rows, shaped like a batch of
    :func:`otrepair.ot._family_couplings`.

    The couplings of both exact routes are recentred in one pass:
    translating nu0 by t changes C_ij by -2 (x_i - s_j).t + |t|^2, so a
    plan stays optimal, its row potential becomes u - 2 x.t (the
    c-transform absorbs the column terms) and its cost follows from the
    barycenter's and the plan's arcs.  The atoms without one (all on the
    other routes, the negligible ones on the exact routes) are coupled by
    one :func:`otrepair.ot._family_couplings`, their arcs appended.
    """
    x, sizes = family.support, np.diff(family.starts)
    u, costs = np.empty(len(x)), np.empty(len(family))
    alone, record = np.ones(len(family), dtype=bool), []
    if bary.couplings is not None:
        rows, cols, flow, kept_u, kept_costs = bary.couplings
        alone, n = _negligible(family), len(kept_costs)
        points = np.flatnonzero(np.repeat(~alone, sizes))
        owner = np.repeat(np.arange(n), sizes[~alone])[rows]
        rows = points[rows]
        drift = np.bincount(owner, flow * ((x[rows] - bary.nu0.support[cols]) @ shift), n)
        costs[~alone] = np.bincount(owner, flow, n) * (shift @ shift) - 2.0 * drift + kept_costs
        u[points] = kept_u - 2.0 * (x[points] @ shift)
        record.append((rows, cols, flow))
    if alone.any():
        points = np.flatnonzero(np.repeat(alone, sizes))
        batches = _family_couplings(x[points], family.weights[points],
                                    np.concatenate([[0], np.cumsum(sizes[alone])]), nu0)
        rows, cols, flow, u[points], costs[alone] = map(np.concatenate, zip(*batches))
        record.append((points[rows], cols, flow))
    rows, cols, flow = map(np.concatenate, zip(*record))
    return rows, cols, flow, u, costs


def build(data: Dataset, *, method: str = "auto", **options) -> IndependentApproximation:
    """Construct the best independent approximation of a dataset.

    ``method`` and the further keyword ``options`` pick and tune the
    barycenter backend as in :func:`otrepair.barycenter.solve_barycenter`:
    ``auto`` uses the exact 1-D quantile closed form when m = 1 and the
    exact fixed-support LP on the coalesced union of atom supports
    otherwise.  Whatever the backend returns is translated so its mean
    equals the dataset mean; the translation never increases the
    objective and makes the mean identity exact.  The couplings to the
    final nu0 are exact (see :func:`_coupled_arcs`), and
    :func:`lower_bound` of nu0 is the weighted sum of their costs, to
    rounding.  The disintegration keeps each coupling's row potential,
    from which :func:`otrepair.diagnostics.verify` certifies optimality.
    """
    family = estimate_conditionals(data)
    mean_x = data.mean_x()
    bary = solve_barycenter(family, method, **options)
    # recentring: W2^2 to every atom drops by |shift|^2 jointly, and
    # the mean of nu0 becomes the mean of x exactly
    shift = mean_x - mean(bary.nu0)
    nu0 = bary.nu0.translate(shift)
    rows, cols, flow, u, costs = _coupled_arcs(family, bary, nu0, shift)
    return IndependentApproximation(
        family=family,
        nu0=nu0,
        disintegration=Disintegration.from_arcs(rows, cols, flow, u, nu0),
        achieved_distance_sq=_total(family.probabilities, costs),
        mean_x=np.asarray(mean_x, dtype=float),
        mean_y=mean(nu0),
        method=bary.method,
        barycenter_iterations=bary.iterations,
        barycenter_converged=bary.converged,
    )


def match_rows(approx: IndependentApproximation, data: Dataset) -> np.ndarray:
    """The dataset row of every source point, in the family's flat order
    (which the disintegration's rows follow), checked to be the rows the
    approximation was built from (rows pair with atom support points by
    index).  One gather puts :meth:`Dataset.grouped_rows` in the family's
    label order, whatever order the groups first appear in.

    A group's x values must equal its atom's support exactly, and each
    row's share of the dataset's total weight must equal its atom's
    probability times the row's conditional weight, to 1e-12 relative,
    which absorbs only the rounding of :func:`estimate_conditionals`.
    So both the weights within a group and the group's probability must
    match.  All groups are checked by one comparison per quantity.
    Raises :class:`DatasetMismatchError`, or its subclasses
    :class:`UnknownGroupError` and :class:`UnseenValueError`.
    """
    fam, starts = approx.family, approx.family.starts
    known = set(fam.labels)
    for label in data._index:
        if label not in known:
            raise UnknownGroupError(label)
    if len(data._index) != len(fam):
        raise DatasetMismatchError("dataset groups differ from the approximation's")

    def mismatch(row, what):
        label = fam.labels[int(np.searchsorted(starts, row, side="right")) - 1]
        return f"group {label!r} does not match the {what} the approximation was built from"

    rows, indptr = data.grouped_rows()
    group = np.array(list(map(data._index.get, fam.labels)))
    sizes = np.diff(indptr)[group]
    wrong = np.flatnonzero(sizes - np.diff(starts))
    if len(wrong):
        raise UnseenValueError(mismatch(starts[wrong[0]], "support"))
    rows = rows[np.repeat(indptr[group] - starts[:-1], sizes) + np.arange(starts[-1])]
    bad = (data.x[rows] != fam.support).any(axis=1)
    if bad.any():
        raise UnseenValueError(mismatch(np.argmax(bad), "support"))
    w = data.weights[rows]
    share = np.repeat(data.weights.sum() * fam.probabilities, sizes)
    bad = np.abs(w - share * fam.weights) > 1e-12 * w
    if bad.any():
        raise DatasetMismatchError(mismatch(np.argmax(bad), "weights"))
    return rows


# the least positive float: a u = 0 draw skips leading zero-mass positions
_LEAST_POSITIVE = np.nextafter(0.0, 1.0)


def _lookup(approx: IndependentApproximation, source: np.ndarray, u: np.ndarray) -> np.ndarray:
    """nu0 points drawn at ``u[q]`` from the conditional law of the
    disintegration's row ``source[q]``, for all queries at once.

    Each row's ladder is the running sum of its stored masses in the
    support order (see :func:`_support_order`): the dense row's cumsum
    without the exact zeros between arcs, so the same floats.  A row
    whose sum rounds below 1 ends in a run of equal values, which starts
    at the last arc; raising that run to 1 makes u = 1 stop there.  A
    draw is the first arc whose cumulative weight reaches u: u = 0 is
    raised to the least positive float, which skips no arc, since every
    stored mass is positive.  One bisection over every query's row finds
    it.
    """
    dis = approx.disintegration
    ladder = _segment_cumsum(dis.mass, dis.indptr)
    top = np.repeat(ladder[dis.indptr[1:] - 1], np.diff(dis.indptr))
    np.maximum(ladder, 1.0, out=ladder, where=ladder >= top)
    u = np.maximum(u, _LEAST_POSITIVE)
    pos = _search_segments(ladder, dis.indptr[source], dis.indptr[source + 1], u)
    return approx.nu0.support[dis.cols[pos]]


def _source_rows(approx: IndependentApproximation, data: Dataset) -> np.ndarray:
    """The disintegration's row of every dataset row (see :func:`match_rows`)."""
    rows = match_rows(approx, data)
    source = np.empty(data.n_rows, dtype=np.intp)
    source[rows] = np.arange(data.n_rows)
    return source


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
    if group not in approx.family.labels:
        raise UnknownGroupError(group)
    a = approx.family.labels.index(group)
    start, stop = approx.family.starts[a:a + 2]
    if not 0 <= source_index < stop - start:
        raise IndexOutOfRangeError(
            f"source index {source_index} outside atom of size {stop - start}"
        )
    if not 0.0 <= u <= 1.0:
        raise UOutOfRangeError(f"u={u!r} outside [0, 1]")
    return _lookup(approx, np.array([start + source_index]), np.array([u], dtype=float))[0]


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
    source = _source_rows(approx, data)
    if data.u is not None:
        u = np.asarray(data.u, dtype=float)
    elif seed is not None:
        u = np.random.default_rng(seed).random(data.n_rows)
    else:
        raise MissingUError("dataset has no u column and no seed was given")
    return SampledOutput(
        groups=data.groups, x=data.x, u=u, y=_lookup(approx, source, u),
        weights=data.weights,
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
    source = _source_rows(approx, data)
    grid = (np.arange(resolution) + 0.5) / resolution
    y = _lookup(approx, np.repeat(source, resolution), np.tile(grid, data.n_rows))
    return SampledOutput(
        groups=tuple(g for g in data.groups for _ in range(resolution)),
        x=np.repeat(data.x, resolution, axis=0),
        u=np.tile(grid, data.n_rows),
        y=y,
        weights=np.repeat(data.weights / resolution, resolution),
    )

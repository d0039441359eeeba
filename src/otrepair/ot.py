"""Discrete optimal transport with quadratic ground cost.

Implements three routes to a coupling between two discrete measures:

- ``solve_exact``: the transportation linear program, solved by SciPy's
  HiGHS dual simplex, which is deterministic, so the same inputs always
  produce the same optimal coupling.
- ``solve_entropic``: log-domain Sinkhorn iterations on the Gibbs kernel
  with an epsilon-scaling schedule (start at the largest cost entry,
  halve down to the target).  The returned plan is rounded onto the
  transport polytope so its marginals are exact; the reported cost is
  the unregularized evaluation of that plan.
- ``comonotone_staircases``: the closed-form north-west-corner plans of
  many 1-D measures to one, optimal in one dimension, as one arc batch
  (rows, cols, flow, u, costs).  It merges cumulative-weight vectors and
  forms only the costs of each plan's n + k - 1 arcs, never a cost
  matrix.  ``solve_comonotone_1d`` is its one-pair case, with the plan
  laid out dense and the column potentials read off the arcs.

``optimal_coupling`` picks the cheapest exact one for the dimension, and
``_family_couplings`` for every measure of a flat layout.  The two exact
solvers also return dual potentials, which certify their plans without a
second solve.  This LP and the joint barycenter LP are both solved by
``_solve_lp``.  ``_check_marginals`` checks every plan, dense or as arcs,
and ``_row_potentials`` gives every 1-D plan's row potentials, here and
in the quantile merge of :mod:`otrepair.barycenter`.

Solvers are pure functions of immutable inputs and may run concurrently;
a single solve is single-threaded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import (
    ConfigConflictError,
    DimensionMismatchError,
    DimensionNotOneError,
    NegativeWeightError,
    NonFiniteValueError,
    NumericalUnderflowError,
    SolverFailureError,
    WeightSumError,
)
from .measure import DiscreteMeasure

__all__ = [
    "Coupling",
    "OtSolution",
    "cost_matrix",
    "solve_exact",
    "solve_entropic",
    "solve_comonotone_1d",
    "comonotone_staircases",
    "optimal_coupling",
]

# Per-entry marginal tolerance a Coupling must satisfy.
MARGINAL_ATOL = 1e-8

_OVERFLOW = "a squared distance between support points overflows; rescale the values"


def cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense matrix of squared Euclidean distances |x_i - y_j|^2.

    Raises :class:`NonFiniteValueError` when a squared distance overflows,
    since no solver can rank infinite costs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = x[:, None, :] - y[None, :, :]
        C = np.einsum("ijk,ijk->ij", d, d)
    if not np.isfinite(C).all():
        raise NonFiniteValueError(_OVERFLOW)
    return C


@dataclass(frozen=True, eq=False)
class Coupling:
    """A joint weight matrix with prescribed marginals.

    ``weights[i, j]`` is the mass moved from ``row_measure``'s i-th
    point to ``col_measure``'s j-th point.  Entries must be finite and
    nonnegative, and row and column sums must reproduce the marginal
    weights within ``MARGINAL_ATOL`` per entry: :func:`_check_marginals`
    on the nonzero entries.
    """

    row_measure: DiscreteMeasure
    col_measure: DiscreteMeasure
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        n, k = self.row_measure.n, self.col_measure.n
        if w.shape != (n, k):
            raise DimensionMismatchError(f"coupling shape {w.shape}, expected {(n, k)}")
        if self.row_measure.dim != self.col_measure.dim:
            raise DimensionMismatchError(
                f"marginals have dimensions {self.row_measure.dim} and "
                f"{self.col_measure.dim}"
            )
        rows, cols = np.nonzero(w)
        _check_marginals(rows, cols, w[rows, cols], np.array([0, len(rows)]),
                         self.row_measure.weights, self.col_measure)
        wf = np.ascontiguousarray(w)
        wf.flags.writeable = False
        object.__setattr__(self, "weights", wf)

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape


@dataclass(frozen=True, eq=False)
class OtSolution:
    """A coupling plus the cost and solver metadata.

    ``cost`` is the squared-distance transport cost of the coupling,
    i.e. the squared Wasserstein distance when the plan is optimal.

    ``potentials`` is the dual pair (u, v) of the exact solvers, indexed
    like the two supports: u[i] + v[j] <= C[i, j] up to the solver's
    tolerance, with equality wherever the plan moves mass, so
    mu.weights @ u + nu.weights @ v equals ``cost``.  Any u certifies a
    lower bound on the squared distance through its c-transform (see
    :func:`otrepair.diagnostics.verify`).  ``None`` for the entropic
    solver.
    """

    coupling: Coupling
    cost: float
    method: str
    iterations: int
    converged: bool
    potentials: tuple[np.ndarray, np.ndarray] | None = None


# ---------------------------------------------------------------------------
# linear programs: the one HiGHS call, and the transportation LP
# ---------------------------------------------------------------------------

# HiGHS's tolerances are absolute, so every LP is solved on its costs
# scaled below 1 by a power of two, which rounds no cost (unscaled costs
# near 1e18 end in a failed status), and to feasibility tolerances tight
# enough that its plans meet MARGINAL_ATOL.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}


def _marginal_blocks(sizes: np.ndarray, k: int):
    """Row-sum and column-sum constraint blocks (COO) of one n x k plan
    per entry n of ``sizes``, stored row-major one after another: a row
    per plan row, then k column rows per plan."""
    n = int(sizes.sum())
    cells, ones = np.arange(n * k), np.ones(n * k)
    owner = np.repeat(np.arange(len(sizes)), sizes * k)
    return (sparse.coo_matrix((ones, (cells // k, cells)), shape=(n, n * k)),
            sparse.coo_matrix((ones, (owner * k + cells % k, cells)),
                              shape=(len(sizes) * k, n * k)))


def _solve_lp(c: np.ndarray, A, b: np.ndarray, method: str, name: str, presolve=True):
    """(x, equality duals, iterations) of min c.x s.t. A x = b, x >= 0, by
    HiGHS ``method``; a :class:`SolverFailureError` names the ``name`` LP."""
    scale = 2.0 ** int(np.frexp(c.max(initial=0.0))[1])
    res = linprog(c / scale, A_eq=A, b_eq=b, bounds=(0, None), method=method,
                  options={**_HIGHS_OPTIONS, "presolve": presolve})
    if res.status != 0:
        raise SolverFailureError(f"{name} LP failed with status {res.status}: {res.message}")
    return res.x, scale * res.eqlin.marginals, int(res.nit)


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """Exact optimal coupling between two discrete measures.

    Solves the transportation LP with SciPy's HiGHS dual simplex: the
    plan is the LP solution clipped at 0, its cost is the squared
    Wasserstein-2 distance, the potentials are the LP's equality duals
    and ``iterations`` counts HiGHS iterations.  HiGHS is deterministic,
    so the same inputs always select the same optimal plan.  Presolve is
    off: it calls this always feasible LP infeasible when a marginal holds
    weights near 1e-9.  Raises :class:`SolverFailureError` when HiGHS
    reports no optimum.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"measures have dimensions {mu.dim} and {nu.dim}")
    C = cost_matrix(mu.support, nu.support)
    n, k = C.shape
    b = np.concatenate([mu.weights, nu.weights])
    x, duals, nit = _solve_lp(C.ravel(), sparse.vstack(_marginal_blocks(np.array([n]), k)), b,
                              "highs-ds", "transport", presolve=False)
    plan = np.maximum(x.reshape(n, k), 0.0)
    return OtSolution(Coupling(mu, nu, plan), float(np.einsum("ij,ij->", plan, C)), "exact",
                      nit, True, (duals[:n], duals[n:]))


# ---------------------------------------------------------------------------
# flat segments: many measures in one array, measure by measure
# ---------------------------------------------------------------------------

def _length_groups(indptr: np.ndarray):
    """The segments ``indptr[s]:indptr[s + 1]`` of a flat array, grouped by
    length: yields the numbers of the segments of one length and the
    (segments, length) matrix of their positions.  A row-wise numpy call
    on such a matrix adds in the same order as on each segment alone."""
    lengths = np.diff(indptr)
    counts = np.bincount(lengths)
    ends = np.cumsum(counts)
    by_length = np.argsort(lengths, kind="stable")
    for n in np.flatnonzero(counts):
        seg = by_length[ends[n] - counts[n]:ends[n]]
        yield seg, indptr[seg][:, None] + np.arange(n)


def _segment_cumsum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of every segment, each the same floats as alone."""
    out = np.empty(len(values))
    for _, idx in _length_groups(indptr):
        out[idx] = np.cumsum(values[idx], axis=1)
    return out


def _segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The sum of every segment, each the same float as its ``sum()``."""
    out = np.empty(len(indptr) - 1)
    for seg, idx in _length_groups(indptr):
        out[seg] = values[idx].sum(axis=1)
    return out


def _search_segments(values: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     q: np.ndarray) -> np.ndarray:
    """For every query, lo plus the count of ``values[lo:hi]`` below q: the
    first position that reaches q in an ascending segment, found by one
    bisection over all queries at once.

    The answer lies in [pos, pos + n]; each round tests the last of the
    first n // 2 candidates and keeps the half that holds the answer.
    """
    pos, n = lo, hi - lo
    while int(np.max(n, initial=0)) > 1:
        half = n // 2
        pos = np.where(values[pos + half - 1] < q, pos + half, pos)
        n = n - half
    return pos + (values[np.minimum(pos, len(values) - 1)] < q) * n


def _sorted_1d(x: np.ndarray, w: np.ndarray, starts: np.ndarray) -> tuple:
    """1-D points x sorted ascending (ties in index order) within each
    measure ``starts[a]:starts[a + 1]``: (order, sorted values, cumulative
    weights w), where ``order`` maps each sorted slot to its point."""
    order = np.lexsort((x, np.repeat(np.arange(len(starts) - 1), np.diff(starts))))
    return order, x[order], _segment_cumsum(w[order], starts)


# ---------------------------------------------------------------------------
# comonotone 1-D closed form
# ---------------------------------------------------------------------------

def comonotone_staircases(support: np.ndarray, weights: np.ndarray, starts: np.ndarray,
                          nu: DiscreteMeasure) -> tuple:
    """North-west-corner plans of many 1-D measures to ``nu``, all at once;
    each is optimal for m = 1.

    Measure a is ``support[starts[a]:starts[a + 1]]``, (n_a, 1) points,
    with the weights there: flat, as in :class:`otrepair.measure.ConditionalFamily`.
    nu is sorted once and every measure on its own.  A plan is the
    staircase that merges the measure's cumulative weights with nu's, so
    no cost matrix is formed.  Each row and each column but the last
    ends at its cumulative weight, and the n + K - 2 ends, sorted stably
    with rows first, are the staircase's steps: a row end moves to the
    next row, a column end to the next column.  A row end's place in the
    merge is its own rank plus the count of column ends below it, so one
    ``searchsorted`` against nu's ends merges every measure.  Arc t
    carries the mass between the t-th and the (t+1)-th end.  Ties among
    equal support values keep their index order, which pins every plan
    down uniquely.  Every float is the one the same merge computes for
    that measure alone.  :func:`_check_marginals` checks all plans
    together.

    Returns the arc batch (rows, cols, flow, u, costs): arcs
    ``starts[a] + a (K - 1)`` up to the next measure's are mu_a's
    n_a + K - 1 arcs in staircase order, ``rows`` numbering their source
    points, ``cols`` their points of nu and ``flow`` their mass; zero-flow
    arcs are kept, so each plan's arcs form a spanning tree.  ``u`` holds
    every source point's potential (:func:`_row_potentials`) and
    ``costs[a]`` is mu_a's transport cost.  Raises
    :class:`NonFiniteValueError` when a squared distance overflows.
    """
    if nu.dim != 1 or support.shape[1] != 1:
        raise DimensionNotOneError("comonotone coupling requires 1-D measures")
    order_r, xs, ca = _sorted_1d(support[:, 0], weights, starts)
    order_c = np.argsort(nu.support[:, 0], kind="stable")
    ys = nu.support[order_c, 0]
    _check_reach(xs, starts, ys)
    A, K = len(starts) - 1, nu.n
    cb = np.cumsum(nu.weights[order_c])
    arc_starts = starts + np.arange(A + 1) * (K - 1)
    is_row, flow, end_col = _merged_flows(starts, ca, cb, arc_starts)
    rows, cols, cost = _staircase_arcs(is_row, arc_starts, order_r, xs, order_c, ys)
    _check_marginals(rows, cols, flow, arc_starts, weights, nu)
    return (rows, cols, flow, _row_potentials(xs, ys[end_col], starts, order_r),
            _segment_sum(flow * cost, arc_starts))


def _check_reach(xs, starts, ys) -> None:
    """Raise :class:`NonFiniteValueError` unless every squared distance
    between a point of a measure (sorted ``xs`` in segments ``starts``)
    and one of the sorted ``ys`` is finite: the farthest pairs are at the
    ends."""
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.maximum(xs[starts[1:] - 1] - ys[0], ys[-1] - xs[starts[:-1]])
        if not np.isfinite(reach * reach).all():
            raise NonFiniteValueError(_OVERFLOW)


def _merged_flows(starts, ca, cb, arc_starts):
    """Every measure's ends merged with nu's, and the arcs' flows.

    Returns ``is_row``, which marks the merged ends that are row ends
    (measure a's n_a + K - 2 ends come after those of the measures
    before it), each arc's flow, the mass between the ends on either
    side of it: a measure's first arc starts at 0 and its last one ends
    at the larger of the two totals, which no earlier end exceeds, so no
    flow is negative; and the sorted column where each row ends.
    """
    A = len(starts) - 1
    end_starts = arc_starts - np.arange(A + 1)
    # a row end's place in the merge is its rank plus the count of column
    # ends below it
    row_end = _row_ends(starts)
    owner = np.repeat(np.arange(A), np.diff(starts))[row_end]
    end_col = np.searchsorted(cb[:-1], ca[row_end])
    place = end_starts[owner] + np.arange(len(ca))[row_end] - starts[owner] + end_col
    is_row = np.zeros(int(end_starts[-1]), dtype=bool)
    is_row[place] = True
    ends = np.empty(len(is_row))
    ends[is_row] = ca[row_end]
    ends[~is_row] = np.tile(cb[:-1], A)
    n_arcs = int(arc_starts[-1])
    first = np.zeros(n_arcs, dtype=bool)
    first[arc_starts[:-1]] = True
    last = np.zeros(n_arcs, dtype=bool)
    last[arc_starts[1:] - 1] = True
    flow = np.empty(n_arcs)
    flow[~last] = ends
    flow[last] = np.maximum(ca[starts[1:] - 1], cb[-1])
    below = np.zeros(n_arcs)
    below[~first] = ends
    flow -= below
    return is_row, flow, end_col


def _staircase_arcs(is_row, arc_starts, order_r, xs, order_c, ys):
    """(rows, cols, cost) of every arc.  Arc g of measure a follows g - a
    merged ends: its sorted row is a's first plus the row ends among them,
    its sorted column the column ends among them."""
    A = len(arc_starts) - 1
    K = len(ys)
    owner = np.repeat(np.arange(A), np.diff(arc_starts))
    g = np.arange(len(owner))
    slot = np.concatenate(([0], np.cumsum(is_row)))[g - owner] + owner
    j = g - slot - owner * (K - 1)
    return order_r[slot], order_c[j], (xs[slot] - ys[j]) ** 2


def _row_ends(starts: np.ndarray) -> np.ndarray:
    """Marks the sorted rows of staircases that end inside them: every
    row but each measure's top one."""
    row_end = np.ones(int(starts[-1]), dtype=bool)
    row_end[starts[1:] - 1] = False
    return row_end


def _row_potentials(xs: np.ndarray, y_end: np.ndarray, starts: np.ndarray,
                    order: np.ndarray) -> np.ndarray:
    """Row potentials of staircases on sorted points ``xs`` (in segments
    ``starts``), put back in the points' order by ``order`` (as
    :func:`_sorted_1d` gives them).  ``y_end`` is the point of nu where
    each sorted row but a measure's top one ends.  The potential is 0 at
    each measure's lowest point, and each next one's is the previous one's
    plus the change in cost through that row end, so that u[i] + v[j] is
    the cost on every arc."""
    i = np.flatnonzero(_row_ends(starts))
    u_sorted = np.zeros(len(xs))
    u_sorted[i + 1] = _segment_cumsum((xs[i + 1] - y_end) ** 2 - (xs[i] - y_end) ** 2,
                                      starts - np.arange(len(starts)))
    u = np.empty(len(xs))
    u[order] = u_sorted
    return u


def _check_marginals(rows, cols, flow, arc_starts, w, nu) -> None:
    """The one check of every coupling, on the plans of many measures to
    ``nu`` at once, given as arcs: measure a's arcs are
    ``arc_starts[a]:arc_starts[a + 1]``, and ``rows`` numbers their source
    points in the flat weights ``w`` of all the measures.  Flows must be
    finite and nonnegative, and every plan's row sums, column sums and
    total mass must match its marginals."""
    A, K = len(arc_starts) - 1, nu.n
    if not np.isfinite(flow).all():
        raise NonFiniteValueError("coupling entries must be finite")
    if np.any(flow < 0.0):
        raise NegativeWeightError("coupling entries must be nonnegative")
    if np.max(np.abs(np.bincount(rows, flow, len(w)) - w)) > MARGINAL_ATOL:
        raise WeightSumError("row sums do not match the row measure")
    cells = np.repeat(np.arange(A) * K, np.diff(arc_starts)) + cols
    col_sums = np.bincount(cells, flow, A * K).reshape(A, K)
    if np.max(np.abs(col_sums - nu.weights)) > MARGINAL_ATOL:
        raise WeightSumError("column sums do not match the column measure")
    if np.max(np.abs(col_sums.sum(axis=1) - 1.0)) > 1e-9:
        raise WeightSumError("coupling total mass is not 1")


def solve_comonotone_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """North-west-corner plan on ascending supports; optimal for m = 1.

    The one-pair case of :func:`comonotone_staircases` (a batch of one),
    with the plan laid out as a dense matrix.  Every column has an arc,
    and its potential is read off the first one: cost minus the row's
    potential.  Raises :class:`NonFiniteValueError` when any squared
    distance overflows.
    """
    rows, cols, flow, u, costs = comonotone_staircases(mu.support, mu.weights,
                                                       np.array([0, mu.n]), nu)
    plan = np.zeros((mu.n, nu.n))
    plan[rows, cols] = flow
    first = rows[np.unique(cols, return_index=True)[1]]
    v = (mu.support[first, 0] - nu.support[:, 0]) ** 2 - u[first]
    return OtSolution(Coupling(mu, nu, plan), float(costs[0]), "comonotone_1d", 0,
                      True, (u, v))


# ---------------------------------------------------------------------------
# entropic regularization
# ---------------------------------------------------------------------------

def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    mx = np.max(m, axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(m - mx), axis=axis)) + np.squeeze(mx, axis=axis)
    return out


def _round_to_marginals(G: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project an almost-feasible plan onto the transport polytope.

    Scales rows then columns down to their targets and distributes the
    leftover mass as a rank-one correction, so the result has exact
    marginals and stays close to the input plan.
    """
    rs = G.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(rs > 0, np.minimum(1.0, a / rs), 1.0)
    G = G * x[:, None]
    cs = G.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(cs > 0, np.minimum(1.0, b / cs), 1.0)
    G = G * y[None, :]
    ra = np.maximum(a - G.sum(axis=1), 0.0)
    rb = np.maximum(b - G.sum(axis=0), 0.0)
    s = ra.sum()
    if s > 0:
        G = G + np.outer(ra, rb) / s
    return G


def solve_entropic(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    epsilon: float,
    max_iter: int = 5000,
    tol: float = 1e-9,
) -> OtSolution:
    """Entropically regularized coupling via log-domain Sinkhorn.

    Parameters
    ----------
    epsilon : float
        Regularization strength (> 0).  The solver anneals from the
        largest cost entry down to this target, halving each stage.
    max_iter : int
        Total budget of Sinkhorn sweeps across all stages.
    tol : float
        L1 marginal violation below which the plan counts as converged.
        The ``converged`` flag reflects the violation *before* the final
        rounding step; the returned coupling always has exact marginals.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"measures have dimensions {mu.dim} and {nu.dim}")
    if not epsilon > 0.0:
        raise ConfigConflictError("epsilon must be positive")
    a, b = mu.weights, nu.weights
    C = cost_matrix(mu.support, nu.support)

    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)

    eps0 = max(float(C.max(initial=0.0)), epsilon)
    schedule = [eps0]
    while schedule[-1] / 2.0 > epsilon:
        schedule.append(schedule[-1] / 2.0)
    if schedule[-1] != epsilon:
        schedule.append(epsilon)

    f = np.zeros(mu.n)
    g = np.zeros(nu.n)
    iterations = 0
    violation = np.inf

    def plan_for(eps: float) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp((f[:, None] + g[None, :] - C) / eps)

    for stage, eps in enumerate(schedule):
        last = stage == len(schedule) - 1
        budget = max(max_iter - iterations, 1) if last else min(30, max_iter)
        for _ in range(budget):
            f = eps * (log_a - _logsumexp((g[None, :] - C) / eps, axis=1))
            f = np.where(np.isneginf(log_a), -np.inf, f)
            g = eps * (log_b - _logsumexp((f[:, None] - C) / eps, axis=0))
            g = np.where(np.isneginf(log_b), -np.inf, g)
            iterations += 1
            G = plan_for(eps)
            violation = float(
                np.abs(G.sum(axis=1) - a).sum() + np.abs(G.sum(axis=0) - b).sum()
            )
            if violation < tol:
                break
            if iterations >= max_iter:
                break
        if iterations >= max_iter and not last:
            # out of budget before reaching the target epsilon
            eps = epsilon
            break

    # -inf potentials are legitimate (zero-weight points); NaN and +inf are not
    if (np.any(np.isnan(f)) or np.any(np.isnan(g))
            or np.any(np.isposinf(f)) or np.any(np.isposinf(g))):
        raise NumericalUnderflowError(
            "sinkhorn potentials became non-finite; epsilon is too small "
            "for the cost scale"
        )

    G = _round_to_marginals(plan_for(schedule[-1]), a, b)
    coupling = Coupling(mu, nu, G)
    cost = float(np.einsum("ij,ij->", G, C))
    return OtSolution(coupling, cost, "entropic", iterations, bool(violation < tol))


def optimal_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """An optimal coupling: the 1-D closed form when m = 1, the transport LP otherwise."""
    return solve_comonotone_1d(mu, nu) if mu.dim == 1 else solve_exact(mu, nu)


# 1-D couplings are formed in batches of about this many staircase arcs
_BATCH_ARCS = 1 << 14


def _family_couplings(support: np.ndarray, weights: np.ndarray, starts: np.ndarray,
                      nu: DiscreteMeasure):
    """:func:`optimal_coupling` of every measure of a flat layout (as in
    :class:`otrepair.measure.ConditionalFamily`) to ``nu``, the same floats,
    in batches of consecutive measures (rows, cols, flow, u, costs):
    ``rows`` numbers the arcs' source points in the layout, ``cols`` their
    points of nu, ``u`` is the row potentials of the batch's points and
    ``costs`` each of its measures' cost.  In 1-D a batch is one
    :func:`comonotone_staircases` over about ``_BATCH_ARCS`` arcs, zero
    flows kept; otherwise one :func:`solve_exact` plan's positive arcs.
    Batching bounds the arcs held at once.
    """
    if support.shape[1] == 1:
        arcs = starts + np.arange(len(starts)) * (nu.n - 1)
        cuts = np.flatnonzero(np.diff(arcs[:-1] // _BATCH_ARCS)) + 1
        for lo, hi in zip([0, *cuts], [*cuts, len(starts) - 1]):
            s, e = starts[lo], starts[hi]
            rows, *batch = comonotone_staircases(support[s:e], weights[s:e],
                                                 starts[lo:hi + 1] - s, nu)
            yield rows + s, *batch
        return
    for s, e in zip(starts[:-1].tolist(), starts[1:].tolist()):
        sol = solve_exact(DiscreteMeasure._of_checked(support[s:e], weights[s:e]), nu)
        plan = sol.coupling.weights
        rows, cols = np.nonzero(plan)
        yield rows + s, cols, plan[rows, cols], sol.potentials[0], np.array([sol.cost])

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
  many 1-D measures to one, optimal in one dimension, as flat arcs.  It
  merges cumulative-weight vectors and forms only the costs of each
  plan's n + k - 1 arcs, never a cost matrix.  ``solve_comonotone_1d``
  is its one-pair case, with the plan laid out dense.

``optimal_coupling`` picks the cheapest exact one for the dimension, and
``_family_couplings`` for every measure of a flat layout.  The two exact
solvers also return dual potentials, which certify their plans without a
second solve.  This LP and the joint barycenter LP are both solved by
``_solve_lp``, and ``_lp_solution`` reads their couplings.

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
    "Staircase",
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
    point to ``col_measure``'s j-th point.  Row and column sums must
    reproduce the marginal weights within ``MARGINAL_ATOL`` per entry.
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
        if np.any(w < 0.0):
            raise NegativeWeightError("coupling entries must be nonnegative")
        if np.max(np.abs(w.sum(axis=1) - self.row_measure.weights)) > MARGINAL_ATOL:
            raise WeightSumError("row sums do not match the row measure")
        if np.max(np.abs(w.sum(axis=0) - self.col_measure.weights)) > MARGINAL_ATOL:
            raise WeightSumError("column sums do not match the column measure")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise WeightSumError("coupling total mass is not 1")
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


def _lp_solution(mu, nu, C, x, potentials, nit: int) -> OtSolution:
    """The coupling of mu and nu held by an LP's solution: the plan x clipped
    at 0, checked by :class:`Coupling` and costed on C, with its dual pair."""
    plan = np.maximum(x.reshape(C.shape), 0.0)
    cost = float(np.einsum("ij,ij->", plan, C))
    return OtSolution(Coupling(mu, nu, plan), cost, "exact", nit, True, potentials)


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
    return _lp_solution(mu, nu, C, x, (duals[:n], duals[n:]), nit)


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


def _segment_dot(a: np.ndarray, b: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """``a[s] @ b[s]`` for every segment s, each the same float as alone
    (a stacked matmul of vectors makes one dot product per segment)."""
    out = np.empty(len(indptr) - 1)
    for seg, idx in _length_groups(indptr):
        out[seg] = np.matmul(a[idx][:, None, :], b[idx][:, :, None])[:, 0, 0]
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

@dataclass(frozen=True, eq=False)
class Staircase:
    """The comonotone couplings of 1-D measures mu_1..mu_A with one nu.

    The measures' points are numbered as in the flat arrays they were
    given in, mu_a holding ``starts[a]:starts[a + 1]``.  Arcs
    ``arc_starts[a]:arc_starts[a + 1]`` are mu_a's n_a + K - 1 staircase
    arcs in staircase order: ``rows`` numbers their source points,
    ``cols`` their points of nu and ``flow`` their mass.  Zero-flow arcs
    are kept, so each coupling's arcs form a spanning tree.  ``costs[a]``
    is mu_a's transport cost, ``u`` holds the row potential of every
    source point and ``v[a]`` mu_a's column potentials over nu.
    """

    arc_starts: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    flow: np.ndarray
    costs: np.ndarray
    u: np.ndarray
    v: np.ndarray


def comonotone_staircases(support: np.ndarray, weights: np.ndarray, starts: np.ndarray,
                          nu: DiscreteMeasure) -> Staircase:
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
    carries the mass between the t-th and the (t+1)-th end.  The
    potentials solve u[i] + v[j] = cost on every arc with u = 0 at each
    measure's lowest point: at a step the new potential is its side's
    previous one plus the change in arc cost.  Ties among equal support
    values keep their index order, which pins every plan down uniquely.
    Every float is the one the same merge computes for that measure
    alone.  The marginals are checked like a :class:`Coupling`'s, for all
    plans together.  Raises :class:`NonFiniteValueError` when a squared
    distance overflows.
    """
    if nu.dim != 1 or support.shape[1] != 1:
        raise DimensionNotOneError("comonotone coupling requires 1-D measures")
    order_r, xs, ca = _sorted_1d(support[:, 0], weights, starts)
    order_c = np.argsort(nu.support[:, 0], kind="stable")
    ys = nu.support[order_c, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.maximum(xs[starts[1:] - 1] - ys[0], ys[-1] - xs[starts[:-1]])
        if not np.isfinite(reach * reach).all():
            raise NonFiniteValueError(_OVERFLOW)
    A, K = len(starts) - 1, nu.n
    cb = np.cumsum(nu.weights[order_c])
    arc_starts = starts + np.arange(A + 1) * (K - 1)
    is_row, flow = _merged_flows(starts, ca, cb, arc_starts)
    rows, cols, cost = _staircase_arcs(is_row, arc_starts, order_r, xs, order_c, ys)
    u, v = _tree_potentials(cost, is_row, starts, arc_starts, order_r, order_c)
    _check_marginals(rows, cols, flow, arc_starts, weights, nu)
    return Staircase(arc_starts, rows, cols, flow,
                     _segment_dot(flow, cost, arc_starts), u, v)


def _merged_flows(starts, ca, cb, arc_starts):
    """Every measure's ends merged with nu's, and the arcs' flows.

    Returns ``is_row``, which marks the merged ends that are row ends
    (measure a's n_a + K - 2 ends come after those of the measures
    before it), and each arc's flow, the mass between the ends on either
    side of it: a measure's first arc starts at 0 and its last one ends
    at the larger of the two totals, which no earlier end exceeds, so no
    flow is negative.
    """
    A = len(starts) - 1
    end_starts = arc_starts - np.arange(A + 1)
    # a row end is every sorted slot but each measure's last; its place in
    # the merge is its rank plus the count of column ends below it
    row_end = np.ones(len(ca), dtype=bool)
    row_end[starts[1:] - 1] = False
    owner = np.repeat(np.arange(A), np.diff(starts))[row_end]
    place = (end_starts[owner] + np.arange(len(ca))[row_end] - starts[owner]
             + np.searchsorted(cb[:-1], ca[row_end]))
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
    return is_row, flow


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


def _tree_potentials(cost, is_row, starts, arc_starts, order_r, order_c):
    """(u, v) with u[i] + v[j] = cost on every arc and u = 0 at each
    measure's lowest point; ``v[a]`` is measure a's over nu.  At each end
    the new potential is its side's previous one plus the change in arc
    cost there, so each side's potentials are running sums of those
    changes."""
    A, K = len(starts) - 1, len(order_c)
    # an end follows every arc but each measure's last
    followed = np.ones(len(cost), dtype=bool)
    followed[arc_starts[1:] - 1] = False
    step = np.diff(cost)[followed[:-1]]
    u_sorted = np.zeros(int(starts[-1]))
    lowest = np.zeros(len(u_sorted), dtype=bool)
    lowest[starts[:-1]] = True
    u_sorted[~lowest] = _segment_cumsum(step[is_row], starts - np.arange(A + 1))
    u = np.empty(len(u_sorted))
    u[order_r] = u_sorted
    first_cost = cost[arc_starts[:-1], None]
    v = np.empty((A, K))
    v[:, order_c[0]] = first_cost[:, 0]
    v[:, order_c[1:]] = first_cost + np.cumsum(step[~is_row].reshape(A, K - 1), axis=1)
    return u, v


def _check_marginals(rows, cols, flow, arc_starts, w, nu) -> None:
    """The checks of :class:`Coupling` on the plans of many measures to
    ``nu`` at once, given as arcs: measure a's arcs are
    ``arc_starts[a]:arc_starts[a + 1]``, and ``rows`` numbers their source
    points in the flat weights ``w`` of all the measures."""
    A, K = len(arc_starts) - 1, nu.n
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
    with the plan laid out as a dense matrix.  Raises
    :class:`NonFiniteValueError` when any squared distance overflows.
    """
    st = comonotone_staircases(mu.support, mu.weights, np.array([0, mu.n]), nu)
    plan = np.zeros((mu.n, nu.n))
    plan[st.rows, st.cols] = st.flow
    return OtSolution(Coupling(mu, nu, plan), float(st.costs[0]), "comonotone_1d", 0,
                      True, (st.u, st.v[0]))


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
    in batches of consecutive measures (first, rows, cols, flow, u, costs):
    ``rows`` numbers the arcs' source points from flat row ``first``,
    ``cols`` their points of nu, ``u`` is the batch's row potentials and
    ``costs`` each measure's cost.  In 1-D a batch is one
    :func:`comonotone_staircases` over about ``_BATCH_ARCS`` arcs, zero
    flows kept; otherwise one :func:`solve_exact` plan's positive arcs.
    """
    if support.shape[1] == 1:
        arcs = starts + np.arange(len(starts)) * (nu.n - 1)
        cuts = np.flatnonzero(np.diff(arcs[:-1] // _BATCH_ARCS)) + 1
        for lo, hi in zip([0, *cuts], [*cuts, len(starts) - 1]):
            s, e = starts[lo], starts[hi]
            st = comonotone_staircases(support[s:e], weights[s:e], starts[lo:hi + 1] - s, nu)
            yield s, st.rows, st.cols, st.flow, st.u, st.costs
        return
    for s, e in zip(starts[:-1].tolist(), starts[1:].tolist()):
        sol = solve_exact(DiscreteMeasure._of_checked(support[s:e], weights[s:e]), nu)
        plan = sol.coupling.weights
        rows, cols = np.nonzero(plan)
        yield s, rows, cols, plan[rows, cols], sol.potentials[0], np.array([sol.cost])

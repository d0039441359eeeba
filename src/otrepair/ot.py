"""Discrete optimal transport with quadratic ground cost.

Implements three routes to a coupling between two discrete measures:

- ``solve_exact``: the transportation linear program, solved by HiGHS,
  which is deterministic: the same inputs give the same optimal coupling.
- ``solve_entropic``: log-domain Sinkhorn iterations on the Gibbs kernel
  with an epsilon-scaling schedule (start at the largest cost entry,
  halve down to the target).  The returned plan is rounded onto the
  transport polytope so its marginals are exact; the reported cost is
  the unregularized evaluation of that plan.
- ``comonotone_staircases``: the closed-form north-west-corner plans of
  many 1-D measures to one, optimal in one dimension, as one arc record
  (rows, cols, flow, u, costs).  ``_staircases`` is the one core of every
  1-D coupling: it cuts sorted measures into blocks of about
  ``_BATCH_ARCS`` arcs and, per block, merges cumulative-weight vectors
  and forms only the costs of each plan's n + k - 1 arcs, never a cost
  matrix.  The exact 1-D barycenter of :mod:`otrepair.barycenter` hands
  the core the sort it already made.  ``solve_comonotone_1d`` is the
  one-pair case, with the plan laid out dense and the column potentials
  the c-transform of the row ones.

``_family_couplings`` gives an optimal coupling of every measure of a flat
layout to one measure, in blocks that ``_joined`` joins: the 1-D closed
form when m = 1, the transport LP otherwise.  The two exact solvers also
return dual potentials, which certify their plans without a second solve.
Every LP, the joint barycenter LP too, is set up, solved by ``_solve_lp``
with HiGHS as ``_LPS`` sets it, and read here.  ``_check_marginals`` checks every plan,
dense or as arcs; every arc of an arc record moves mass.

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
from .measure import ConditionalFamily, DiscreteMeasure

__all__ = [
    "Coupling",
    "OtSolution",
    "cost_matrix",
    "solve_exact",
    "solve_entropic",
    "solve_comonotone_1d",
    "comonotone_staircases",
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
    :func:`otrepair.diagnostics.verify`), which is the v of
    :func:`solve_comonotone_1d`.  ``None`` for the entropic solver.
    """

    coupling: Coupling
    cost: float
    method: str
    iterations: int
    converged: bool
    potentials: tuple[np.ndarray, np.ndarray] | None = None


# ---------------------------------------------------------------------------
# linear programs: their settings, the one HiGHS call, and the two LPs
# ---------------------------------------------------------------------------

# HiGHS's tolerances are absolute, so every LP is solved on its costs
# scaled below 1 by a power of two, which rounds no cost (unscaled costs
# near 1e18 end in a failed status), and to feasibility tolerances tight
# enough that its plans meet MARGINAL_ATOL.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}

_LPS = {  # every LP by name: (HiGHS method, presolve)
    # dual simplex without presolve, which calls this always feasible LP
    # infeasible when a marginal holds weights near 1e-9
    "transport": ("highs-ds", False),
    "joint": ("highs-ipm", True),  # interior point, crossover to a vertex
}


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


def _assemble_joint_lp(family: ConditionalFamily, C: np.ndarray):
    """Joint LP on the cost matrix ``C`` of the family's flat support to
    the grid: variables [gamma row-major, w], one plan over all the rows,
    atom a's being rows ``starts[a]:starts[a + 1]`` at cost p_a C, and the
    grid weights.  Constraints: row sums fixed to the family's weights,
    each atom's column sums tied to w, and sum(w) = 1.  Returns (c, A as
    CSR, b).
    """
    (N, K), A = C.shape, len(family)
    sizes = np.diff(family.starts)
    c = np.concatenate([(np.repeat(family.probabilities, sizes)[:, None] * C).ravel(),
                        np.zeros(K)])
    row_sums, col_sums = _marginal_blocks(sizes, K)
    lp = sparse.bmat([
        [row_sums, None],
        [col_sums, -sparse.vstack([sparse.eye(K)] * A)],
        [None, np.ones((1, K))],
    ], format="csr")
    return c, lp, np.concatenate([family.weights, np.zeros(A * K), [1.0]])


def _solve_lp(c: np.ndarray, A, b: np.ndarray, name: str):
    """(x, equality duals, iterations) of min c.x s.t. A x = b, x >= 0, by
    HiGHS as ``_LPS[name]`` sets it; a :class:`SolverFailureError` names it."""
    method, presolve = _LPS[name]
    scale = 2.0 ** int(np.frexp(c.max(initial=0.0))[1])
    res = linprog(c / scale, A_eq=A, b_eq=b, bounds=(0, None), method=method,
                  options={**_HIGHS_OPTIONS, "presolve": presolve})
    if res.status != 0:
        raise SolverFailureError(f"{name} LP failed with status {res.status}: {res.message}")
    return res.x, scale * res.eqlin.marginals, int(res.nit)


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """Exact optimal coupling between two discrete measures.

    Solves the transportation LP with HiGHS, which is deterministic: the
    plan is the LP solution clipped at 0, its cost is the squared
    Wasserstein-2 distance, the potentials are the LP's equality duals
    and ``iterations`` counts HiGHS iterations.  Raises
    :class:`SolverFailureError` when HiGHS reports no optimum.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"measures have dimensions {mu.dim} and {nu.dim}")
    C = cost_matrix(mu.support, nu.support)
    n, k = C.shape
    b = np.concatenate([mu.weights, nu.weights])
    x, duals, nit = _solve_lp(C.ravel(), sparse.vstack(_marginal_blocks(np.array([n]), k)), b,
                              "transport")
    plan = np.maximum(x.reshape(n, k), 0.0)
    return OtSolution(Coupling(mu, nu, plan), float(np.einsum("ij,ij->", plan, C)), "exact",
                      nit, True, (duals[:n], duals[n:]))


def _solve_joint_lp(family: ConditionalFamily, S: np.ndarray, C: np.ndarray) -> tuple:
    """The joint LP of :func:`_assemble_joint_lp` on the grid ``S``, solved
    and read: for every atom a, its solution holds an optimal coupling of
    a's law with the grid weights w (Anderson, Borgwardt & Miller,
    "Discrete Wasserstein barycenters", MMOR 2016).  The plan is a's rows
    of x, clipped at 0; its row potentials are a's row-sum duals over p_a,
    so that with the column-sum duals divided alike u_i + v_j <=
    |x_i - s_j|^2, with equality on the plan's arcs.  All plans are checked
    like a :class:`Coupling` at once, each costed on a's rows of ``C``.
    Returns (measure on S, SciPy's LP iteration count, the plans' positive
    entries as :attr:`otrepair.barycenter.BarycenterResult.couplings`)."""
    x, duals, nit = _solve_lp(*_assemble_joint_lp(family, C), "joint")
    N, K = C.shape
    w = np.maximum(x[-K:], 0.0)
    nu0 = DiscreteMeasure(S, w / w.sum())
    # x holds the plan's rows, then w; the duals the row sums, then the column sums
    plan = np.maximum(x[:N * K].reshape(N, K), 0.0)
    rows, cols = np.nonzero(plan)
    flow = plan[rows, cols]
    _check_marginals(rows, cols, flow, np.searchsorted(rows, family.starts), family.weights, nu0)
    b = family.starts.tolist()
    costs = np.array([np.einsum("ij,ij->", plan[lo:hi], C[lo:hi]) for lo, hi in zip(b, b[1:])])
    u = duals[:N] / np.repeat(family.probabilities, np.diff(family.starts))
    return nu0, nit, (rows, cols, flow, u, costs)


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
    Returns :func:`_family_couplings`' blocks joined into one arc record
    (rows, cols, flow, u, costs) of the arcs that move mass: ``rows``
    numbers their source points, ``cols`` their points of nu and ``flow``
    their positive mass; mu_a's arcs are those whose rows lie in
    ``starts[a]:starts[a + 1]``, in staircase order.  ``u`` holds every
    source point's potential (:func:`_row_potentials`) and ``costs[a]`` is
    mu_a's transport cost.  Raises :class:`NonFiniteValueError` when a
    squared distance overflows.
    """
    if nu.dim != 1 or support.shape[1] != 1:
        raise DimensionNotOneError("comonotone coupling requires 1-D measures")
    return _joined(_family_couplings(support, weights, starts, nu))


def _joined(blocks) -> tuple:
    """One arc record (rows, cols, flow, u, costs) of consecutive blocks of
    measures, each such a record: a single block as it is, without a copy."""
    blocks = list(blocks)
    return blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))


# the staircase core forms the arcs of about this many at a time, or of one measure
_BATCH_ARCS = 1 << 14


def _staircases(order_r, xs, ca, starts, order_c, cb, weights, nu):
    """The one core of every 1-D coupling: the staircases of measures
    sorted as :func:`_sorted_1d` sorts them (``order_r``, ``xs`` and
    cumulative weights ``ca`` in segments ``starts``) to nu sorted by
    ``order_c``, its points ending at the cumulative weights ``cb``, in
    blocks of consecutive measures whose n + K - 1 arcs start in one run
    of ``_BATCH_ARCS`` (a larger measure alone), so that few arcs are
    formed at once.  Yields each block's arc record (rows, cols, flow, u,
    costs), with the potentials and costs of its points and measures.

    A plan merges the measure's cumulative weights with nu's, so no cost
    matrix is formed.  Each row and each column but the last ends at its
    cumulative weight; the n + K - 2 ends, sorted stably with rows first,
    are the staircase's steps, and arc t carries the mass between the t-th
    and the (t+1)-th.  A row end's place in the merge is its rank plus the
    count of column ends below it, so one ``searchsorted`` merges a block,
    each measure in the floats of its merge alone.  Ties keep their sorted
    order, which pins every plan down.  :func:`_check_marginals` checks a
    block's plans against ``weights`` and nu; only the arcs with positive
    flow are then kept, and costed.
    """
    ys = nu.support[order_c, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        # no squared distance may overflow: the farthest pairs are at the ends
        reach = np.maximum(xs[starts[1:] - 1] - ys[0], ys[-1] - xs[starts[:-1]])
        if not np.isfinite(reach * reach).all():
            raise NonFiniteValueError(_OVERFLOW)
    arcs = starts + np.arange(len(starts)) * (nu.n - 1)
    cuts = np.flatnonzero(np.diff(arcs[:-1] // _BATCH_ARCS)) + 1
    for lo, hi in zip([0, *cuts], [*cuts, len(starts) - 1]):
        s, e = starts[lo], starts[hi]
        # the block's rows number its own points, shifted back when yielded
        seg, arc_starts = starts[lo:hi + 1] - s, arcs[lo:hi + 1] - arcs[lo]
        order = order_r[s:e] - s if s else order_r[:e]
        after_row, flow, end_col = _merged_flows(seg, ca[s:e], cb, arc_starts)
        rows, cols, cost = _staircase_arcs(after_row, arc_starts, order, xs[s:e], order_c, ys)
        _check_marginals(rows, cols, flow, arc_starts, weights[s:e], nu)
        moved = np.flatnonzero(flow > 0.0)
        flow, rows = flow[moved], rows[moved]
        yield (rows + s if s else rows, cols[moved], flow,
               _row_potentials(xs[s:e], ys[end_col], seg, order),
               _segment_sum(flow * cost[moved], np.searchsorted(moved, arc_starts)))


def _merged_flows(starts, ca, cb, arc_starts):
    """Every measure's ends merged with nu's, and the arcs' flows.

    Arc t of measure a ends at the merge's (t - a)-th end (measure a's
    n_a + K - 2 ends come after those of the measures before it), its last
    arc at the larger of the two totals, which no earlier end exceeds, so
    no flow is negative.  An arc's flow is the mass between its end and
    the previous arc's, or 0 for a measure's first.  Returns the arcs that
    follow a row end, each arc's flow and the sorted column where each row
    ends.
    """
    A = len(starts) - 1
    # a row end's place in the merge is its rank plus the count of column
    # ends below it
    row_end = _row_ends(starts)
    owner = np.repeat(np.arange(A), np.diff(starts))[row_end]
    end_col = np.searchsorted(cb[:-1], ca[row_end])
    at_row = arc_starts[owner] + np.arange(len(ca))[row_end] - starts[owner] + end_col
    last = arc_starts[1:] - 1
    upper = np.empty(int(arc_starts[-1]))
    at_col = np.ones(len(upper), dtype=bool)
    at_col[at_row] = False
    at_col[last] = False
    upper[at_row] = ca[row_end]
    upper[at_col] = np.tile(cb[:-1], A)
    upper[last] = np.maximum(ca[starts[1:] - 1], cb[-1])
    flow = np.diff(upper, prepend=0.0)
    flow[arc_starts[:-1]] = upper[arc_starts[:-1]]
    return at_row + 1, flow, end_col


def _staircase_arcs(after_row, arc_starts, order_r, xs, order_c, ys):
    """(rows, cols, cost) of every arc.  An arc is one sorted row past the
    arc before it when a row end lies between them, one sorted column past
    it otherwise; a measure's first arc starts at nu's first point and one
    row past the top of the measure before it."""
    row_step = np.zeros(int(arc_starts[-1]), dtype=np.intp)
    row_step[after_row] = 1
    col_step = 1 - row_step
    col_step[0] = 0
    col_step[arc_starts[1:-1]] = 1 - len(ys)
    row_step[arc_starts[1:-1]] = 1
    slot, j = np.cumsum(row_step), np.cumsum(col_step)
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

    The one-pair case of :func:`comonotone_staircases` (a family of one),
    with the plan laid out as a dense matrix.  The column potentials are
    the c-transform of the row potentials over the dense cost, the rule
    :func:`otrepair.diagnostics.verify` certifies with.  Raises
    :class:`NonFiniteValueError` when any squared distance overflows.
    """
    rows, cols, flow, u, costs = comonotone_staircases(mu.support, mu.weights,
                                                       np.array([0, mu.n]), nu)
    plan = np.zeros((mu.n, nu.n))
    plan[rows, cols] = flow
    v = np.min(cost_matrix(mu.support, nu.support) - u[:, None], axis=0)
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
        Regularization strength, positive and finite.  The solver anneals
        from the largest cost entry down to this target, halving each stage.
    max_iter : int
        Total budget of Sinkhorn sweeps across all stages: at most 30 per
        earlier stage, the rest at the target.
    tol : float
        L1 marginal violation below which a stage ends.  ``converged``
        holds only if the target stage ran and met it *before* the final
        rounding step.  The plan is rounded at the epsilon of the last
        stage that ran, so the returned coupling always has exact
        marginals.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"measures have dimensions {mu.dim} and {nu.dim}")
    if not 0.0 < epsilon < np.inf:
        raise ConfigConflictError("epsilon must be positive and finite")
    if max_iter < 1:
        raise ConfigConflictError("max_iter must be at least 1")
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

    def plan_for(eps: float) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp((f[:, None] + g[None, :] - C) / eps)

    for eps in schedule:
        left = max_iter - iterations
        if not left:
            break  # out of budget before reaching the target epsilon
        # only the target epsilon (the last stage) may spend what is left
        for _ in range(left if eps == epsilon else min(30, left)):
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
        solved = eps  # the epsilon the potentials are solved for

    # -inf potentials are legitimate (zero-weight points); NaN and +inf are not
    if (np.any(np.isnan(f)) or np.any(np.isnan(g))
            or np.any(np.isposinf(f)) or np.any(np.isposinf(g))):
        raise NumericalUnderflowError(
            "sinkhorn potentials became non-finite; epsilon is too small "
            "for the cost scale"
        )

    G = _round_to_marginals(plan_for(solved), a, b)
    coupling = Coupling(mu, nu, G)
    cost = float(np.einsum("ij,ij->", G, C))
    return OtSolution(coupling, cost, "entropic", iterations,
                      solved == epsilon and violation < tol)


def _family_couplings(support: np.ndarray, weights: np.ndarray, starts: np.ndarray,
                      nu: DiscreteMeasure):
    """An optimal coupling of every measure of a flat layout (as in
    :class:`otrepair.measure.ConditionalFamily`) to ``nu``, the same floats
    as :func:`solve_comonotone_1d` in 1-D and :func:`solve_exact` otherwise,
    in blocks of consecutive measures (rows, cols, flow, u, costs):
    ``rows`` numbers the arcs' source points in the layout, ``cols`` their
    points of nu, ``u`` is the row potentials of the block's points and
    ``costs`` each of its measures' cost.  Every flow is positive.  In 1-D
    the layout and nu are sorted once for the staircase core
    :func:`_staircases`, whose blocks are passed on; otherwise a block is
    one :func:`solve_exact` plan's positive arcs.
    """
    if support.shape[1] == nu.dim == 1:
        order_r, xs, ca = _sorted_1d(support[:, 0], weights, starts)
        order_c = np.argsort(nu.support[:, 0], kind="stable")
        yield from _staircases(order_r, xs, ca, starts, order_c,
                               np.cumsum(nu.weights[order_c]), weights, nu)
        return
    for s, e in zip(starts[:-1].tolist(), starts[1:].tolist()):
        sol = solve_exact(DiscreteMeasure._of_checked(support[s:e], weights[s:e]), nu)
        plan = sol.coupling.weights
        rows, cols = np.nonzero(plan)
        yield rows + s, cols, plan[rows, cols], sol.potentials[0], np.array([sol.cost])

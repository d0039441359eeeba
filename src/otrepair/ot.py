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
- ``solve_comonotone_1d``: the closed-form north-west-corner plan on
  supports sorted ascending, optimal in one dimension.  It merges the
  two cumulative-weight vectors and forms only the costs of its
  n + k - 1 arcs, never a cost matrix.

``optimal_coupling`` picks the cheapest exact one for the dimension.  The
two exact solvers also return dual potentials, which certify their plans
without a second solve.  This LP and the joint barycenter LP are both
solved by ``_solve_lp``, and ``_lp_solution`` reads their couplings.

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


def _marginal_blocks(n: int, k: int):
    """Row-sum and column-sum constraint blocks (COO) of an n x k plan
    stored row-major."""
    cells = np.arange(n * k)
    ones = np.ones(n * k)
    return (sparse.coo_matrix((ones, (cells // k, cells)), shape=(n, n * k)),
            sparse.coo_matrix((ones, (cells % k, cells)), shape=(k, n * k)))


def _solve_lp(c: np.ndarray, A, b: np.ndarray, method: str, name: str):
    """(x, equality duals, iterations) of min c.x s.t. A x = b, x >= 0, by
    HiGHS ``method``; a :class:`SolverFailureError` names the ``name`` LP."""
    scale = 2.0 ** int(np.frexp(c.max(initial=0.0))[1])
    res = linprog(c / scale, A_eq=A, b_eq=b, bounds=(0, None), method=method,
                  options=_HIGHS_OPTIONS)
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
    so the same inputs always select the same optimal plan.  Raises
    :class:`SolverFailureError` when HiGHS reports no optimum.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"measures have dimensions {mu.dim} and {nu.dim}")
    C = cost_matrix(mu.support, nu.support)
    n, k = C.shape
    b = np.concatenate([mu.weights, nu.weights])
    x, duals, nit = _solve_lp(C.ravel(), sparse.vstack(_marginal_blocks(n, k)), b,
                              "highs-ds", "transport")
    return _lp_solution(mu, nu, C, x, (duals[:n], duals[n:]), nit)


# ---------------------------------------------------------------------------
# comonotone 1-D closed form
# ---------------------------------------------------------------------------

def solve_comonotone_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """North-west-corner plan on ascending supports; optimal for m = 1.

    The plan is the staircase that merges the two cumulative-weight
    vectors, so no cost matrix is formed.  Each row and each column but
    the last ends at its cumulative weight, and the n + k - 2 ends,
    sorted stably with rows first, are the staircase's steps: a row end
    moves to the next row, a column end to the next column.  Arc t
    carries the mass between the t-th and the (t+1)-th end; zero-flow
    arcs are kept, so the n + k - 1 arcs form a spanning tree.  The
    potentials solve u[i] + v[j] = cost on every arc with u[0] = 0: at a
    step the new potential is its side's previous one plus the change in
    arc cost.  Ties among equal support values keep their original index
    order (stable sort), which pins the plan down uniquely.  Raises
    :class:`NonFiniteValueError` when any squared distance overflows.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionNotOneError("comonotone coupling requires 1-D measures")
    order_r = np.argsort(mu.support[:, 0], kind="stable")
    order_c = np.argsort(nu.support[:, 0], kind="stable")
    xs, ys = mu.support[order_r, 0], nu.support[order_c, 0]
    reach = max(float(xs[-1]) - float(ys[0]), float(ys[-1]) - float(xs[0]))
    if not np.isfinite(reach * reach):
        raise NonFiniteValueError(_OVERFLOW)
    n, k = mu.n, nu.n
    ca, cb = np.cumsum(mu.weights[order_r]), np.cumsum(nu.weights[order_c])
    ends = np.concatenate((ca[:-1], cb[:-1]))
    steps = np.argsort(ends, kind="stable")
    # at[e] is end e's position in the merge, where the rows' ends and the
    # columns' ends each stay in order; arc t lies in the row numbered by
    # the row ends merged before position t
    at = np.empty(n + k - 2, dtype=np.intp)
    at[steps] = np.arange(n + k - 2)
    i = np.searchsorted(at[:n - 1], np.arange(n + k - 1))
    j = np.arange(n + k - 1) - i
    # the mass between consecutive ends; the last end is the larger total,
    # which no earlier end exceeds, so no flow is negative
    bounds = np.empty(n + k)
    bounds[0] = 0.0
    bounds[1:-1] = ends[steps]
    bounds[-1] = max(ca[-1], cb[-1])
    flow = bounds[1:] - bounds[:-1]
    cost = (xs[i] - ys[j]) ** 2
    step = cost[1:] - cost[:-1]
    u = np.empty(n)
    v = np.empty(k)
    u[order_r[0]] = 0.0
    v[order_c[0]] = cost[0]
    u[order_r[1:]] = np.cumsum(step[at[:n - 1]])
    v[order_c[1:]] = cost[0] + np.cumsum(step[at[n - 1:]])
    plan = np.zeros((n, k))
    plan[order_r[i], order_c[j]] = flow
    return OtSolution(Coupling(mu, nu, plan), float(flow @ cost), "comonotone_1d", 0,
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

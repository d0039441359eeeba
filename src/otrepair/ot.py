"""Discrete optimal transport with quadratic ground cost.

Implements three routes to a coupling between two discrete measures:

- ``solve_exact``: a transportation-specialized network simplex on the
  dense bipartite graph, started from the north-west-corner basis on
  input order.  Pivot selection is deterministic (most negative reduced
  cost, ties broken by lowest (row, col) index) with Bland's rule as the
  anti-cycling fallback after a run of degenerate pivots, so the same
  inputs always produce the same optimal coupling.
- ``solve_entropic``: log-domain Sinkhorn iterations on the Gibbs kernel
  with an epsilon-scaling schedule (start at the largest cost entry,
  halve down to the target).  The returned plan is rounded onto the
  transport polytope so its marginals are exact; the reported cost is
  the unregularized evaluation of that plan.
- ``solve_comonotone_1d``: the closed-form north-west-corner plan on
  supports sorted ascending, optimal in one dimension.

``solve`` picks one of them by name; ``optimal_coupling`` picks the
cheapest exact one for the dimension.  The two exact solvers also return
dual potentials, which certify their plans without a second solve.

Solvers are pure functions of immutable inputs and may run concurrently;
a single solve is single-threaded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    "transport_cost",
    "solve_exact",
    "solve_entropic",
    "solve_comonotone_1d",
    "solve",
    "optimal_coupling",
    "wasserstein_sq",
]

# Per-entry marginal tolerance a Coupling must satisfy.
MARGINAL_ATOL = 1e-8


def cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense matrix of squared Euclidean distances |x_i - y_j|^2.

    Raises :class:`NonFiniteValueError` when a squared distance overflows,
    since no solver can rank infinite costs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = x[:, None, :] - y[None, :, :]
        C = np.einsum("ijk,ijk->ij", d, d)
    if not np.isfinite(C).all():
        raise NonFiniteValueError(
            "a squared distance between support points overflows; "
            "rescale the values"
        )
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


def transport_cost(coupling: Coupling) -> float:
    """Quadratic transport cost sum_ij gamma_ij |x_i - y_j|^2."""
    c = cost_matrix(coupling.row_measure.support, coupling.col_measure.support)
    return float(np.einsum("ij,ij->", coupling.weights, c))


@dataclass(frozen=True, eq=False)
class OtSolution:
    """A coupling plus the cost and solver metadata.

    ``cost`` is the squared-distance transport cost of the coupling,
    i.e. the squared Wasserstein distance when the plan is optimal.

    ``potentials`` is the dual pair (u, v) of the exact solvers, indexed
    like the two supports: u[i] + v[j] = C[i, j] on every basis arc, and
    u[i] + v[j] <= C[i, j] elsewhere up to the pivot tolerance, so
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

    def __post_init__(self):
        recomputed = transport_cost(self.coupling)
        if abs(self.cost - recomputed) > 1e-10 * max(1.0, abs(recomputed)):
            raise SolverFailureError(
                f"stored cost {self.cost!r} disagrees with coupling cost {recomputed!r}"
            )


# ---------------------------------------------------------------------------
# north-west corner
# ---------------------------------------------------------------------------

def _northwest_corner(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Staircase basis on input order: n + k - 1 arcs (i, j, flow), and
    its potentials (u, v) with u[i] + v[j] = C[i, j] on every arc, u[0] = 0.

    Degenerate zero-flow arcs are kept so the arc set always forms a
    spanning tree of the bipartite graph.  Each arc shares its row or its
    column with the arc before it, so each step fixes one new potential.
    """
    n, k = len(a), len(b)
    ra = a.astype(float).copy()
    rb = b.astype(float).copy()
    u = np.zeros(n)
    v = np.zeros(k)
    v[0] = C[0, 0]
    arcs = []
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        arcs.append((i, j, t))
        ra[i] -= t
        rb[j] -= t
        if i == n - 1 and j == k - 1:
            break
        if i < n - 1 and (j == k - 1 or ra[i] <= rb[j]):
            i += 1
            u[i] = C[i, j] - v[j]
        else:
            j += 1
            v[j] = C[i, j] - u[i]
    return arcs, u, v


# ---------------------------------------------------------------------------
# network simplex
# ---------------------------------------------------------------------------

def _solve_transport(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Minimize <gamma, C> over the transportation polytope.

    Returns (plan, n_pivots, (u, v)), where the final potentials are
    tight on the basis arcs.  Deterministic: north-west-corner start,
    most-negative-reduced-cost pricing with lowest-(row, col) ties, and
    a switch to Bland's first-index rule whenever ``n + k`` consecutive
    degenerate pivots occur (cleared by the next mass-moving pivot).

    The basis tree is kept in adjacency lists; duals start from the
    staircase potentials and are maintained incrementally (each pivot
    shifts one component of the split tree by the entering arc's reduced
    cost) rather than recomputed.
    """
    n, k = C.shape
    nodes = n + k
    scale = max(1.0, float(C.max(initial=0.0)))
    tol = 1e-11 * scale
    theta_tol = 1e-15

    # basis arcs in parallel lists; col j is tree node n + j
    arc_i: list[int] = []
    arc_j: list[int] = []
    arc_f: list[float] = []
    adj: list[list[int]] = [[] for _ in range(nodes)]
    basic = np.zeros((n, k), dtype=bool)
    arcs, u, v = _northwest_corner(a, b, C)
    for i, j, f in arcs:
        aid = len(arc_i)
        arc_i.append(i)
        arc_j.append(j)
        arc_f.append(f)
        adj[i].append(aid)
        adj[n + j].append(aid)
        basic[i, j] = True

    inf = np.inf
    max_pivots = 1000 + 50 * nodes
    pivots = 0
    degenerate_streak = 0
    # reusable generation-stamped visit marks for the two tree searches
    mark = [0] * nodes
    parent_arc = [0] * nodes
    gen = 0

    while True:
        rc = C - u[:, None] - v[None, :]
        rc[basic] = inf
        if degenerate_streak > nodes:
            # Bland: lowest-index eligible arc, guaranteed to terminate
            flat = np.flatnonzero(rc.ravel() < -tol)
            if flat.size == 0:
                break
            enter = int(flat[0])
        else:
            enter = int(rc.argmin())
            if rc.ravel()[enter] >= -tol:
                break
        ei, ej = divmod(enter, k)
        d = C[ei, ej] - u[ei] - v[ej]

        # unique tree path from row node ei to col node n + ej
        gen += 1
        mark[ei] = gen
        stack = [ei]
        target = n + ej
        while stack:
            node = stack.pop()
            if node == target:
                break
            on_row = node < n
            for aid in adj[node]:
                nbr = (n + arc_j[aid]) if on_row else arc_i[aid]
                if mark[nbr] != gen:
                    mark[nbr] = gen
                    parent_arc[nbr] = aid
                    stack.append(nbr)
        path = []
        node = target
        while node != ei:
            aid = parent_arc[node]
            path.append(aid)
            node = arc_i[aid] if node >= n else n + arc_j[aid]
        path.reverse()

        # alternate signs along the cycle: first path arc carries -theta
        minus = path[0::2]
        plus = path[1::2]
        theta = min(arc_f[aid] for aid in minus)
        leave = min(
            (aid for aid in minus if arc_f[aid] == theta),
            key=lambda aid: (arc_i[aid], arc_j[aid]),
        )

        for aid in minus:
            arc_f[aid] = max(arc_f[aid] - theta, 0.0)
        for aid in plus:
            arc_f[aid] += theta

        li, lj = arc_i[leave], arc_j[leave]
        adj[li].remove(leave)
        adj[n + lj].remove(leave)
        basic[li, lj] = False

        # shift duals on the component now containing n + ej:
        # col nodes gain d, row nodes lose d, keeping basic arcs tight
        gen += 1
        mark[target] = gen
        stack = [target]
        while stack:
            node = stack.pop()
            if node < n:
                u[node] -= d
            else:
                v[node - n] += d
            on_row = node < n
            for aid in adj[node]:
                nbr = (n + arc_j[aid]) if on_row else arc_i[aid]
                if mark[nbr] != gen:
                    mark[nbr] = gen
                    stack.append(nbr)

        aid = len(arc_i)
        arc_i.append(ei)
        arc_j.append(ej)
        arc_f.append(theta)
        adj[ei].append(aid)
        adj[n + ej].append(aid)
        basic[ei, ej] = True

        pivots += 1
        if theta <= theta_tol:
            degenerate_streak += 1
        else:
            degenerate_streak = 0
        if pivots > max_pivots:
            raise SolverFailureError(
                f"transport simplex exceeded {max_pivots} pivots on a "
                f"{n}x{k} instance"
            )

    # an arc that left the basis carries zero flow and precedes any later
    # arc on the same cell, so writing arcs in order leaves the live flows
    plan = np.zeros((n, k))
    for i, j, f in zip(arc_i, arc_j, arc_f):
        plan[i, j] = f
    return plan, pivots, (u, v)


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """Exact optimal coupling between two discrete measures.

    The returned coupling is a vertex of the transportation polytope and
    its cost is the squared Wasserstein-2 distance.  The pivot rules are
    deterministic, so this also acts as a concrete, reproducible
    selection of one optimal plan whenever several exist.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(
            f"measures have dimensions {mu.dim} and {nu.dim}"
        )
    C = cost_matrix(mu.support, nu.support)
    plan, pivots, potentials = _solve_transport(mu.weights, nu.weights, C)
    coupling = Coupling(mu, nu, plan)
    cost = float(np.einsum("ij,ij->", plan, C))
    return OtSolution(coupling, cost, "exact", pivots, True, potentials)


# ---------------------------------------------------------------------------
# comonotone 1-D closed form
# ---------------------------------------------------------------------------

def solve_comonotone_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """North-west-corner plan on ascending supports; optimal for m = 1.

    Ties among equal support values keep their original index order
    (stable sort), which pins the plan down uniquely.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionNotOneError("comonotone coupling requires 1-D measures")
    order_r = np.argsort(mu.support[:, 0], kind="stable")
    order_c = np.argsort(nu.support[:, 0], kind="stable")
    C = cost_matrix(mu.support, nu.support)
    arcs, u_sorted, v_sorted = _northwest_corner(
        mu.weights[order_r], nu.weights[order_c], C[np.ix_(order_r, order_c)]
    )
    plan = np.zeros((mu.n, nu.n))
    for i, j, f in arcs:
        plan[order_r[i], order_c[j]] += f
    u = np.empty(mu.n)
    v = np.empty(nu.n)
    u[order_r] = u_sorted
    v[order_c] = v_sorted
    coupling = Coupling(mu, nu, plan)
    cost = float(np.einsum("ij,ij->", plan, C))
    return OtSolution(coupling, cost, "comonotone_1d", 0, True, (u, v))


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


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def solve(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    method: str = "exact",
    **params,
) -> OtSolution:
    """Couple two measures with the named solver.

    ``method`` is one of ``"exact"``, ``"comonotone_1d"`` or
    ``"entropic"``; ``params`` (``epsilon`` and optionally
    ``max_iter``/``tol``) reach only the entropic solver.
    """
    if method == "exact":
        return solve_exact(mu, nu)
    if method == "comonotone_1d":
        return solve_comonotone_1d(mu, nu)
    if method == "entropic":
        return solve_entropic(mu, nu, **params)
    raise ConfigConflictError(f"unknown method {method!r}")


def optimal_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """An optimal coupling: the 1-D closed form when m = 1, the simplex otherwise."""
    return solve(mu, nu, "comonotone_1d" if mu.dim == 1 else "exact")


def wasserstein_sq(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    method: str = "exact",
    **params,
) -> float:
    """Squared Wasserstein-2 distance via the chosen solver (see :func:`solve`)."""
    return solve(mu, nu, method, **params).cost

"""Wasserstein-2 barycenters of a conditional family.

``solve_barycenter`` is the one entry point: it maps a method name to
one of four routes to (an approximation of) the measure minimizing the
p-weighted sum of squared Wasserstein distances to the family's atoms:

- ``exact`` (``fixed_support_weights``): the restricted problem on a
  fixed grid is one joint linear program over the grid weights and one
  coupling per atom, solved exactly by interior point with crossover;
  its couplings come with the result.
- ``entropic`` (``entropic_weights``): iterative Bregman projections on
  a fixed grid, log-domain.
- ``free`` (``free_support_points``): fixed-point iteration alternating
  exact couplings with barycentric projection of the support points.
- ``quantile1d`` (``quantile_exact_measure``, ``quantile_grid_measure``):
  the one-dimensional closed form; the quantile function of the
  barycenter is the p-weighted average of the atoms' quantile functions,
  and the exact one's merge of levels also gives its couplings.

``solve_barycenter`` solves no coupling to score its result;
:func:`otrepair.approx.lower_bound` evaluates the objective of ``nu0``
with exact transport, so the value is honest even when the weights are
only approximately optimal.  Minimizers need not be unique;
results are deterministic, and callers should compare objectives rather
than supports across methods.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import (
    ConfigConflictError,
    DimensionNotOneError,
    SolverFailureError,
    SupportDimensionMismatchError,
)
from .measure import (
    ConditionalFamily,
    DiscreteMeasure,
    _finite,
    coalesce,
    dirac,
    mixture,
)
from .ot import (
    _check_marginals,
    _check_reach,
    _family_couplings,
    _length_groups,
    _logsumexp,
    _marginal_blocks,
    _row_ends,
    _row_potentials,
    _segment_sum,
    _solve_lp,
    _sorted_1d,
    cost_matrix,
)

__all__ = [
    "BarycenterResult",
    "solve_barycenter",
    "default_support",
    "fixed_support_weights",
    "entropic_weights",
    "free_support_points",
    "quantile_grid_measure",
    "quantile_exact_measure",
]


@dataclass(frozen=True, eq=False)
class BarycenterResult:
    """A candidate barycenter and how its backend reached it.

    ``method`` tags the backend that ran; ``iterations`` counts its LP
    iterations, Bregman sweeps or fixed-point rounds (0 for the closed
    forms) and ``history`` holds the free-support objective of every
    round.  ``couplings`` holds, for the two exact routes (the joint LP
    of :func:`fixed_support_weights` and :func:`quantile_exact_measure`),
    the optimal coupling of every atom they kept with ``nu0``, as one arc
    record (rows, cols, flow, u, costs), the shape of
    :func:`otrepair.ot._family_couplings`' batches: ``rows`` number the
    flat rows of the family without its negligible atoms, ``cols`` the
    points of ``nu0``, ``u`` is every such row's potential and ``costs``
    the kept atoms' transport costs.  None for the other methods and the
    closed form of point masses.
    """

    nu0: DiscreteMeasure
    method: str
    iterations: int
    converged: bool
    history: tuple = ()
    couplings: tuple | None = None


# An atom this light contributes nothing to the objective but can still
# destabilize the solvers; it is dropped with a warning.
NEGLIGIBLE_ATOM = 1e-12


def _total(p: np.ndarray, costs) -> float:
    """sum_a p_a * costs[a], added in atom order, the same float on every
    Python (the builtin ``sum`` of floats is compensated from 3.12)."""
    return float(np.cumsum(p * costs)[-1])


def _negligible(family: ConditionalFamily) -> np.ndarray:
    """Which atoms are too light to solve for; the solvers drop them."""
    return family.probabilities < NEGLIGIBLE_ATOM


def _solvable_family(family: ConditionalFamily) -> ConditionalFamily:
    light = _negligible(family)
    if not light.any():
        return family
    dropped = [label for label, drop in zip(family.labels, light.tolist()) if drop]
    warnings.warn(f"dropping {len(dropped)} negligible atom(s) {dropped} "
                  f"(probability below {NEGLIGIBLE_ATOM})", stacklevel=3)
    keep, sizes = ~light, np.diff(family.starts)
    rows, p = np.repeat(keep, sizes), family.probabilities[keep]
    return ConditionalFamily(
        tuple(label for label in family.labels if label not in dropped),
        p / _total(p, 1.0), np.cumsum([0, *sizes[keep].tolist()]),
        family.support[rows], family.weights[rows])


def default_support(family: ConditionalFamily) -> np.ndarray:
    """Coalesced union of all atom supports (the default restriction grid)."""
    return coalesce(mixture(family)).support


def _resolve_method(method: str, dim: int) -> str:
    """The backend name for ``method`` on data of dimension ``dim``."""
    if method == "auto":
        return "quantile1d" if dim == 1 else "exact"
    if method == "quantile1d" and dim != 1:
        raise DimensionNotOneError("method quantile1d requires 1-D data")
    if method not in ("exact", "entropic", "free", "quantile1d"):
        raise ConfigConflictError(f"unknown method {method!r}")
    return method


def solve_barycenter(
    family: ConditionalFamily,
    method: str = "auto",
    *,
    support=None,
    epsilon: float = 0.01,
    max_iter: int = 1000,
    tol: float = 1e-9,
    resolution: int | None = None,
    k: int | None = None,
    init_seed: int = 0,
) -> BarycenterResult:
    """A barycenter of ``family`` by the named method.

    ``auto`` is ``quantile1d`` in 1-D and ``exact`` otherwise.
    ``quantile1d`` is exact unless ``resolution`` asks for the R-point
    grid.  ``exact`` and ``entropic`` are restricted to ``support``
    (default: :func:`default_support`), ``entropic`` runs at ``epsilon``,
    and ``free`` moves ``k`` points (default: the mixture's size) from a
    draw seeded by ``init_seed``; ``max_iter`` and ``tol`` bound the
    iterative ones.  If every atom is a point mass, ``quantile1d`` and
    ``exact`` without ``support`` return the optimum, the point mass at
    the weighted mean.  No coupling is solved to score the result.
    """
    method = _resolve_method(method, family.dim)
    family = _solvable_family(family)
    if ((method == "quantile1d" or (method == "exact" and support is None))
            and len(family.weights) == len(family)):
        point = sum(p * x for p, x in zip(family.probabilities.tolist(), family.support))
        return BarycenterResult(dirac(point), "dirac_closed_form", 0, True)
    if method == "quantile1d":
        if resolution is None:
            nu0, couplings = quantile_exact_measure(family)
            return BarycenterResult(nu0, "quantile_exact", 0, True, couplings=couplings)
        return BarycenterResult(quantile_grid_measure(family, resolution), "quantile_grid",
                                0, True)
    if method == "free":
        kk = mixture(family).n if k is None else k
        nu0, it, conv, history = free_support_points(family, kk, init_seed, max_iter, tol)
        return BarycenterResult(nu0, "free_support", it, conv, history=history)
    S = default_support(family) if support is None else support
    if method == "exact":
        nu0, nit, couplings = fixed_support_weights(family, S)
        return BarycenterResult(nu0, "fixed_support_exact", nit, True,
                                couplings=couplings)
    nu0, it, conv = entropic_weights(family, S, epsilon, max_iter, tol)
    return BarycenterResult(nu0, "fixed_support_entropic", it, conv)


# ---------------------------------------------------------------------------
# fixed support: exact joint LP
# ---------------------------------------------------------------------------

def _check_support(family: ConditionalFamily, support) -> np.ndarray:
    S = _finite("support", support)
    if S.ndim == 1:
        S = S[:, None]
    if S.ndim != 2 or S.shape[0] == 0:
        raise SupportDimensionMismatchError("support must be a nonempty point list")
    if S.shape[1] != family.dim:
        raise SupportDimensionMismatchError(
            f"support has dimension {S.shape[1]}, family has {family.dim}"
        )
    return S


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


def fixed_support_weights(
    family: ConditionalFamily,
    support,
) -> tuple[DiscreteMeasure, int, tuple]:
    """Globally optimal weights on a fixed grid via one joint LP.

    The LP of :func:`_assemble_joint_lp` is solved by SciPy's HiGHS
    interior point method with crossover, which is deterministic and
    ends at a vertex.  Its solution holds, for every atom a, an optimal
    coupling of a's law with the grid weights w (Anderson, Borgwardt &
    Miller, "Discrete Wasserstein barycenters", MMOR 2016): the plan is
    a's rows of the LP's x, clipped at 0, and its row potentials are a's
    row-sum duals divided by the p_a the LP used (after negligible atoms
    are dropped), so that with the column-sum duals divided alike
    u_i + v_j <= |x_i - s_j|^2, with equality on the plan's arcs.  The
    plans are checked like a :class:`otrepair.ot.Coupling`, all at once,
    and each is costed on a's rows of the cost matrix.  Returns (measure,
    LP iterations as SciPy reports them, couplings), ``couplings`` being
    the plans' positive entries as one arc record (rows, cols, flow, u,
    costs), as in :attr:`BarycenterResult.couplings`.
    """
    family = _solvable_family(family)
    S = _check_support(family, support)
    C = cost_matrix(family.support, S)
    x, duals, nit = _solve_lp(*_assemble_joint_lp(family, C), "highs-ipm", "joint")
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
# fixed support: iterative Bregman projections
# ---------------------------------------------------------------------------

def entropic_weights(
    family: ConditionalFamily,
    support,
    epsilon: float,
    max_iter: int,
    tol: float,
) -> tuple[DiscreteMeasure, int, bool]:
    """Entropic barycenter on a fixed grid (log-domain Bregman projections).

    The projections of Benamou, Carlier, Cuturi, Nenna & Peyre (SIAM J.
    Sci. Comput. 2015) on one (N, K) log-kernel of the flat support, with
    every atom's column potentials in one (A, K) ``g``.  The atoms' column
    log-sum-exps go by length (:func:`otrepair.ot._length_groups`), adding
    rows and atoms in order: the floats of the projections atom by atom.
    Converged means the L1 change of the grid weights fell below ``tol``
    before ``max_iter`` sweeps; the result is returned either way, with
    the flag recording which happened.  Returns (measure, sweeps,
    converged).
    """
    if not epsilon > 0.0:
        raise ConfigConflictError("epsilon must be positive")
    family = _solvable_family(family)
    S = _check_support(family, support)
    K = S.shape[0]
    owner = np.repeat(np.arange(len(family)), np.diff(family.starts))

    log_kernel = -cost_matrix(family.support, S) / epsilon
    with np.errstate(divide="ignore"):
        log_mu = np.log(family.weights)
    g = np.zeros((len(family), K))
    col_lse = np.empty((len(family), K))

    w = np.full(K, 1.0 / K)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        f = log_mu - _logsumexp(log_kernel + g[owner], axis=1)
        scaled = log_kernel + f[:, None]
        for seg, idx in _length_groups(family.starts):
            col_lse[seg] = _logsumexp(scaled[idx], axis=1)
        logw = np.cumsum(np.vstack([np.zeros(K), family.probabilities[:, None] * col_lse]),
                         axis=0)[-1]
        g = logw - col_lse
        w_new = np.exp(logw - logw.max())
        w_new = w_new / w_new.sum()
        delta = float(np.abs(w_new - w).sum())
        w = w_new
        if delta < tol:
            converged = True
            break

    return DiscreteMeasure(S, w), it, converged


# ---------------------------------------------------------------------------
# free support fixed point
# ---------------------------------------------------------------------------

def free_support_points(
    family: ConditionalFamily,
    k: int,
    init_seed: int,
    max_iter: int,
    tol: float,
) -> tuple[DiscreteMeasure, int, bool, tuple]:
    """Local refinement with k movable support points of weight 1/k.

    Initial points are drawn without replacement from the family mixture
    proportionally to weight (seeded, hence reproducible).  Each round
    couples the family to the candidate by one
    :func:`otrepair.ot._family_couplings` and moves every support point
    to the weighted average of its matched sources (Cuturi & Doucet,
    ICML 2014), added over all arcs in one fixed order by ``np.bincount``.
    The objective is nonincreasing and the loop stops when support
    movement falls below ``tol``.  A support point left without mass
    (possible only through degenerate inputs) is respawned at the
    heaviest mixture point.  Returns (measure, rounds, converged,
    objective history).
    """
    family = _solvable_family(family)
    mix = mixture(family)
    if k < 1:
        raise ConfigConflictError("k must be at least 1")
    if k > mix.n:
        raise ConfigConflictError(f"k={k} exceeds the {mix.n} available mixture points")
    rng = np.random.default_rng(init_seed)
    idx = rng.choice(mix.n, size=k, replace=False, p=mix.weights)
    Y = mix.support[np.sort(idx)].copy()
    w = np.full(k, 1.0 / k)
    heaviest = mix.support[int(np.argmax(mix.weights))]
    row_p = np.repeat(family.probabilities, np.diff(family.starts))

    history = []
    prev_obj = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        arcs = [(rows, cols, flow, costs) for rows, cols, flow, _, costs
                in _family_couplings(family.support, family.weights, family.starts,
                                     DiscreteMeasure(Y, w))]
        rows, cols, flow, costs = map(np.concatenate, zip(*arcs))
        obj = _total(family.probabilities, costs)
        if obj > prev_obj + 1e-12 * max(1.0, abs(prev_obj)):
            raise SolverFailureError(
                "free-support objective increased between iterations"
            )
        history.append(obj)
        prev_obj = obj

        mass = row_p[rows] * flow
        col_mass = np.bincount(cols, mass, k)
        empty = col_mass <= 1e-15
        Y_new = np.stack([np.bincount(cols, mass * family.support[rows, d], k)
                          for d in range(family.dim)], axis=1)
        Y_new /= np.where(empty, 1.0, col_mass)[:, None]
        Y_new[empty] = heaviest
        shift = float(np.max(np.abs(Y_new - Y)))
        Y = Y_new
        if shift < tol:
            converged = True
            break

    return DiscreteMeasure(Y, w), it, converged, tuple(history)


# ---------------------------------------------------------------------------
# one-dimensional closed form
# ---------------------------------------------------------------------------

def _sorted_quantiles(family: ConditionalFamily):
    """Every atom's support sorted ascending and its cumulative weights, in
    the family's flat layout (see :func:`otrepair.ot._sorted_1d`), with
    each atom's last cumulative weight raised to 1 so that t = 1 finds its
    top point.  Returns (order, sorted values, cumulative weights)."""
    if family.dim != 1:
        raise DimensionNotOneError("quantile averaging requires 1-D atoms")
    order, xs, cum = _sorted_1d(family.support[:, 0], family.weights, family.starts)
    top = family.starts[1:] - 1
    cum[top] = np.maximum(cum[top], 1.0)
    return order, xs, cum


# the quantile readers read blocks of consecutive atoms of at most this
# many (atom, level) pairs, or one atom
_MERGE_BLOCK = 1 << 12


def _level_slots(family: ConditionalFamily, rank: np.ndarray, levels: int):
    """Every atom's quantile slot on every level, over blocks of atoms:
    yields each block's first and end atom and its (atoms, levels) sorted
    slots.

    ``rank`` (from 0 to ``levels`` + 1) places each sorted slot's
    cumulative weight among the levels so that F_a^{-1} on level k is
    atom a's first slot past those of rank at most k: a count of ranks.
    The levels are either the merge's intervals between consecutive
    edges, or points t of the grid, where rank at most k means a
    cumulative weight below t_k.
    """
    starts = family.starts
    step = max(1, _MERGE_BLOCK // levels)
    for a0 in range(0, len(family), step):
        a1 = min(a0 + step, len(family))
        owner = np.repeat(np.arange(a1 - a0), np.diff(starts[a0:a1 + 1]))
        counts = np.bincount(owner * (levels + 2) + rank[starts[a0]:starts[a1]],
                             minlength=(a1 - a0) * (levels + 2)).reshape(a1 - a0, -1)
        yield a0, a1, starts[a0:a1, None] + np.cumsum(counts[:, :levels], axis=1)


def _quantile_values(family: ConditionalFamily, xs: np.ndarray, slots, levels: int) -> np.ndarray:
    """sum_a p_a F_a^{-1} on every level, added in atom order, from the
    sorted values ``xs`` and the blocks of :func:`_level_slots`."""
    probs = family.probabilities[:, None]
    values = np.zeros(levels)
    for a0, a1, pos in slots:
        terms = probs[a0:a1] * xs[pos]
        terms[0] += values
        values = np.cumsum(terms, axis=0)[-1]
    return values


def quantile_grid_measure(family: ConditionalFamily, resolution: int) -> DiscreteMeasure:
    """Quantile-average barycenter on the R-point midpoint grid.

    The candidate is the law of t -> sum_a p_a F_a^{-1}(t) sampled at
    t = (i - 1/2)/R with uniform weights 1/R.  Exact whenever every atom
    weight is a multiple of 1/R; a discretization otherwise.
    """
    family = _solvable_family(family)
    if resolution < 1:
        raise ConfigConflictError("resolution must be at least 1")
    t = (np.arange(resolution) + 0.5) / resolution
    _, xs, cum = _sorted_quantiles(family)
    rank = np.searchsorted(t, cum, side="right")
    values = _quantile_values(family, xs, _level_slots(family, rank, resolution), resolution)
    return coalesce(DiscreteMeasure(values[:, None], np.full(resolution, 1.0 / resolution)))


def quantile_exact_measure(family: ConditionalFamily) -> tuple[DiscreteMeasure, tuple]:
    """Exact 1-D barycenter and every atom's optimal coupling to it, by one
    merge of the atoms' cumulative weights.

    The quantile average is a step function whose jumps can only sit at
    some atom's cumulative weight; evaluating it once per level, an
    interval of the merged breakpoint grid, represents its law exactly,
    for arbitrary weight patterns.  The same levels couple every atom
    comonotonically: level k carries its mass from atom a's point
    F_a^{-1} there to nu0's point there, which is the k-th value's place
    among the distinct ones, a running count, since the values never
    decrease.  A run of levels with the same pair of points is one arc,
    carrying the mass between the run's ends.  Row potentials are the
    staircases' (:func:`otrepair.ot._row_potentials`), through the point
    of nu0 where each row ends (its cumulative weight, also for a
    zero-weight row).  All atoms are sorted together, once, the atoms are
    read in blocks (see :func:`_level_slots`), and the arcs are checked
    like a :class:`otrepair.ot.Coupling`.  Returns (nu0, couplings), couplings
    being one arc record (rows, cols, flow, u, costs) over the family
    without its negligible atoms, as in :attr:`BarycenterResult.couplings`.
    """
    family = _solvable_family(family)
    order, xs, cum = _sorted_quantiles(family)
    starts, A = family.starts, len(family)
    breaks = np.unique(np.concatenate([cum, [1.0]]))
    edges = np.concatenate([[0.0], breaks[(breaks > 0.0) & (breaks <= 1.0)]])
    L = len(edges) - 1
    rank = np.searchsorted(edges, cum)
    # the slots are read twice: kept if they are one block, counted again
    # otherwise, to keep memory flat
    slots = list(_level_slots(family, rank, L)) if A * L <= _MERGE_BLOCK else None
    values = _quantile_values(family, xs, slots or _level_slots(family, rank, L), L)
    # the values never decrease: a level's column counts the changes
    head = np.concatenate([[True], values[1:] != values[:-1]])
    col = np.cumsum(head) - 1
    masses = np.diff(edges)
    nu0 = DiscreteMeasure(values[head][:, None], np.bincount(col, masses / masses.sum()))
    y = nu0.support[:, 0]
    _check_reach(xs, starts, y)

    # a run of levels starts where an atom's slot or column moves (both
    # never decrease, so where their sum does) and is one arc; an atom has
    # no more runs than staircase arcs
    size = len(xs) + A * (nu0.n - 1)
    rows, cols, flow = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp), np.empty(size)
    costs, arc_starts = np.empty(A), np.zeros(A + 1, dtype=np.intp)
    for a0, a1, pos in slots or _level_slots(family, rank, L):
        key = np.full((a1 - a0, L + 1), -1)
        np.add(pos, col, out=key[:, 1:])
        run_starts = np.flatnonzero(key[:, 1:] - key[:, :-1])
        atom = run_starts // L
        first, slot = run_starts - atom * L, pos.ravel()[run_starts]
        bounds = np.searchsorted(atom, np.arange(a1 - a0 + 1))
        # a run ends where the atom's next one starts, an atom's last at 1
        lower = edges[first]
        run = np.append(lower[1:], 1.0) - lower
        run[bounds[1:] - 1] = 1.0 - lower[bounds[1:] - 1]
        lo = arc_starts[a0]
        r, c = order[slot], col[first]
        rows[lo:lo + len(r)], cols[lo:lo + len(r)], flow[lo:lo + len(r)] = r, c, run
        arc_starts[a0 + 1:a1 + 1] = lo + bounds[1:]
        _check_marginals(r - starts[a0], c, run, bounds, family.weights[starts[a0]:starts[a1]],
                         nu0)
        costs[a0:a1] = _segment_sum(run * (xs[slot] - y[c]) ** 2, bounds)
    rows, cols, flow = rows[:arc_starts[-1]], cols[:arc_starts[-1]], flow[:arc_starts[-1]]
    # each row but an atom's top ends at its cumulative weight, an edge,
    # and so on the level below it (the first level for a weight of 0)
    end_level = np.clip(rank[_row_ends(starts)], 1, L) - 1
    u = _row_potentials(xs, y[col[end_level]], starts, order)
    return nu0, (rows, cols, flow, u, costs)

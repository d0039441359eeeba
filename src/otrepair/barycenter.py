"""Wasserstein-2 barycenters of a conditional family.

``solve_barycenter`` is the one entry point: it maps a method name to
one of four routes to (an approximation of) the measure minimizing the
p-weighted sum of squared Wasserstein distances to the family's atoms:

- ``exact`` (``fixed_support_weights``): the restricted problem on a
  fixed grid is one joint linear program over the grid weights and one
  coupling per atom, solved exactly; its couplings come with the result.
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
    _family_couplings,
    _length_groups,
    _logsumexp,
    _solve_joint_lp,
    _sorted_1d,
    _staircases,
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


# every method name solve_barycenter and the CLI accept
METHODS = ("auto", "exact", "entropic", "free", "quantile1d")


def _resolve_method(method: str, dim: int) -> str:
    """The backend name for ``method`` on data of dimension ``dim``."""
    if method == "auto":
        return "quantile1d" if dim == 1 else "exact"
    if method == "quantile1d" and dim != 1:
        raise DimensionNotOneError("method quantile1d requires 1-D data")
    if method not in METHODS:
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


def fixed_support_weights(
    family: ConditionalFamily,
    support,
) -> tuple[DiscreteMeasure, int, tuple]:
    """Globally optimal weights on a fixed grid via one joint LP, on the
    family without its negligible atoms: (measure, LP iterations,
    couplings) as :func:`otrepair.ot._solve_joint_lp` gives them."""
    family = _solvable_family(family)
    S = _check_support(family, support)
    return _solve_joint_lp(family, S, cost_matrix(family.support, S))


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
    if max_iter < 1:
        raise ConfigConflictError("max_iter must be at least 1")
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

def _rng(seed) -> np.random.Generator:
    """numpy's generator of ``seed``; a seed numpy rejects, such as a
    negative one, is a :class:`ConfigConflictError`."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigConflictError(f"invalid seed {seed!r}: {exc}") from None


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
    if max_iter < 1:
        raise ConfigConflictError("max_iter must be at least 1")
    if k > mix.n:
        raise ConfigConflictError(f"k={k} exceeds the {mix.n} available mixture points")
    idx = _rng(init_seed).choice(mix.n, size=k, replace=False, p=mix.weights)
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
    the family's flat layout (see :func:`otrepair.ot._sorted_1d`), clipped
    at 1 and with each atom's last one set to 1, so that t = 1 finds its
    top point and no cumulative weight passes it.  Returns (order, sorted
    values, cumulative weights)."""
    if family.dim != 1:
        raise DimensionNotOneError("quantile averaging requires 1-D atoms")
    order, xs, cum = _sorted_1d(family.support[:, 0], family.weights, family.starts)
    np.minimum(cum, 1.0, out=cum)
    cum[family.starts[1:] - 1] = 1.0
    return order, xs, cum


# the quantile readers read blocks of consecutive atoms of at most this
# many (atom, level) pairs, or one atom
_MERGE_BLOCK = 1 << 12


def _level_slots(family: ConditionalFamily, rank: np.ndarray, levels: int):
    """Every atom's quantile slot on every level, over blocks of atoms:
    yields each block's first and end atom and its (atoms, levels) sorted
    slots.

    ``rank`` (from 0 to ``levels``) places each sorted slot's
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
        counts = np.bincount(owner * (levels + 1) + rank[starts[a0]:starts[a1]],
                             minlength=(a1 - a0) * (levels + 1)).reshape(a1 - a0, -1)
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
    for arbitrary weight patterns.  nu0's points are the distinct values,
    which never decrease, so each point's mass ends at the edge where the
    next one's first level starts.  All atoms are sorted together, once,
    and read in blocks (see :func:`_level_slots`); the same sort and nu0's
    ends go to the staircase core :func:`otrepair.ot._staircases`, which
    couples every atom comonotonically.  Returns (nu0, couplings),
    couplings being one arc record (rows, cols, flow, u, costs) of the
    staircases' positive arcs over the family without its negligible
    atoms, as in :attr:`BarycenterResult.couplings`.
    """
    family = _solvable_family(family)
    order, xs, cum = _sorted_quantiles(family)
    edges = np.union1d(0.0, cum)  # every atom's top cumulative weight is 1
    L = len(edges) - 1
    rank = np.searchsorted(edges, cum)
    values = _quantile_values(family, xs, _level_slots(family, rank, L), L)
    head = np.concatenate([[True], values[1:] != values[:-1]])
    masses = np.diff(edges)
    nu0 = DiscreteMeasure(values[head][:, None],
                          np.bincount(np.cumsum(head) - 1, masses / masses.sum()))
    cb = edges[np.append(np.flatnonzero(head)[1:], L)]
    rows, cols, flow, u, costs = _staircases(order, xs, cum, family.starts, np.arange(nu0.n),
                                             cb, family.weights, nu0)
    moved = flow > 0.0
    return nu0, (rows[moved], cols[moved], flow[moved], u, costs)

"""Wasserstein-2 barycenters of a conditional family.

``solve_barycenter`` is the one entry point: it maps a method name to
one of four routes to (an approximation of) the measure minimizing the
p-weighted sum of squared Wasserstein distances to the family's atoms:

- ``exact`` (``fixed_support_weights``): the restricted problem on a
  fixed grid is one joint linear program; solved exactly.
- ``entropic`` (``entropic_weights``): iterative Bregman projections on
  a fixed grid, log-domain.
- ``free`` (``free_support_points``): fixed-point iteration alternating
  exact couplings with barycentric projection of the support points.
- ``quantile1d`` (``quantile_exact_measure``, ``quantile_grid_measure``):
  the one-dimensional closed form; the quantile function of the
  barycenter is the p-weighted average of the atoms' quantile functions.

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
from scipy.optimize import linprog

from .errors import (
    ConfigConflictError,
    DimensionNotOneError,
    LpInfeasibleError,
    SolverFailureError,
    SupportDimensionMismatchError,
)
from .measure import ConditionalAtom, ConditionalFamily, DiscreteMeasure, coalesce, mixture
from .ot import _logsumexp, cost_matrix, solve_exact

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
    pivots, Bregman sweeps or fixed-point rounds (0 for the closed
    forms).  ``lp_objective`` carries the raw joint LP value for the
    fixed-support method (None for the others) and ``history`` the
    free-support objective of every round.
    """

    nu0: DiscreteMeasure
    method: str
    iterations: int
    converged: bool
    lp_objective: float | None = None
    history: tuple = ()


# An atom this light contributes nothing to the objective but can still
# destabilize the solvers; it is dropped with a warning.
NEGLIGIBLE_ATOM = 1e-12


def _solvable_family(family: ConditionalFamily) -> ConditionalFamily:
    kept = [a for a in family.atoms if a.p >= NEGLIGIBLE_ATOM]
    if len(kept) == len(family.atoms):
        return family
    dropped = [a.label for a in family.atoms if a.p < NEGLIGIBLE_ATOM]
    warnings.warn(
        f"dropping {len(dropped)} negligible atom(s) {dropped} "
        f"(probability below {NEGLIGIBLE_ATOM})",
        stacklevel=3,
    )
    total = sum(a.p for a in kept)
    return ConditionalFamily(
        tuple(ConditionalAtom(a.label, a.p / total, a.law) for a in kept)
    )


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
    iterative ones.  No coupling is solved to score the result.
    """
    method = _resolve_method(method, family.dim)
    if method == "quantile1d":
        if resolution is None:
            nu0, tag = quantile_exact_measure(family), "quantile_exact"
        else:
            nu0, tag = quantile_grid_measure(family, resolution), "quantile_grid"
        return BarycenterResult(nu0, tag, 0, True)
    if method == "free":
        kk = mixture(family).n if k is None else k
        nu0, it, conv, history = free_support_points(family, kk, init_seed, max_iter, tol)
        return BarycenterResult(nu0, "free_support", it, conv, history=history)
    S = default_support(family) if support is None else support
    if method == "exact":
        nu0, nit, fun = fixed_support_weights(family, S)
        return BarycenterResult(nu0, "fixed_support_exact", nit, True, lp_objective=fun)
    nu0, it, conv = entropic_weights(family, S, epsilon, max_iter, tol)
    return BarycenterResult(nu0, "fixed_support_entropic", it, conv)


# ---------------------------------------------------------------------------
# fixed support: exact joint LP
# ---------------------------------------------------------------------------

def _check_support(family: ConditionalFamily, support) -> np.ndarray:
    S = np.asarray(support, dtype=float)
    if S.ndim == 1:
        S = S[:, None]
    if S.ndim != 2 or S.shape[0] == 0:
        raise SupportDimensionMismatchError("support must be a nonempty point list")
    if S.shape[1] != family.dim:
        raise SupportDimensionMismatchError(
            f"support has dimension {S.shape[1]}, family has {family.dim}"
        )
    return S


def _assemble_joint_lp(family: ConditionalFamily, S: np.ndarray):
    """Joint LP: transport variables per atom plus shared grid weights.

    Variable layout: [gamma^1 row-major, ..., gamma^A row-major, w].
    Constraints: per-atom row sums fixed to the atom's weights, per-atom
    column sums tied to w, and sum(w) = 1.  Returns (c, A as CSR, b).
    """
    K = S.shape[0]
    atoms = family.atoms
    c = np.concatenate(
        [(a.p * cost_matrix(a.law.support, S)).ravel() for a in atoms] + [np.zeros(K)]
    )
    # COO krons: the BSR default stores the zeros of each identity block
    row_sums = sparse.block_diag([
        sparse.kron(sparse.eye(a.law.n), np.ones((1, K)), format="coo") for a in atoms])
    col_sums = sparse.block_diag([
        sparse.kron(np.ones((1, a.law.n)), sparse.eye(K), format="coo") for a in atoms])
    A = sparse.bmat([
        [row_sums, None],
        [col_sums, -sparse.vstack([sparse.eye(K)] * len(atoms))],
        [None, np.ones((1, K))],
    ], format="csr")
    b = np.concatenate([a.law.weights for a in atoms] + [np.zeros(len(atoms) * K), [1.0]])
    return c, A, b


def fixed_support_weights(
    family: ConditionalFamily,
    support,
) -> tuple[DiscreteMeasure, int, float]:
    """Globally optimal weights on a fixed grid via one joint LP.

    The LP is solved by SciPy's HiGHS dual simplex, which is
    deterministic.  Returns (measure, pivots, raw LP value).
    """
    family = _solvable_family(family)
    S = _check_support(family, support)
    c, A, b = _assemble_joint_lp(family, S)
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise LpInfeasibleError(f"joint LP failed with status {res.status}: {res.message}")
    K = S.shape[0]
    w = np.maximum(res.x[-K:], 0.0)
    w = w / w.sum()
    return DiscreteMeasure(S, w), int(res.nit), float(res.fun)


# ---------------------------------------------------------------------------
# fixed support: iterative Bregman projections
# ---------------------------------------------------------------------------

def entropic_weights(
    family: ConditionalFamily,
    support,
    epsilon: float,
    max_iter: int = 1000,
    tol: float = 1e-9,
) -> tuple[DiscreteMeasure, int, bool]:
    """Entropic barycenter on a fixed grid (log-domain Bregman projections).

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
    probs = family.probabilities

    logKs = [-cost_matrix(a.law.support, S) / epsilon for a in family.atoms]
    with np.errstate(divide="ignore"):
        log_mus = [np.log(a.law.weights) for a in family.atoms]
    gs = [np.zeros(K) for _ in family.atoms]

    w = np.full(K, 1.0 / K)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        logw = np.zeros(K)
        Ss = []
        for a_idx in range(len(family)):
            f = log_mus[a_idx] - _logsumexp(logKs[a_idx] + gs[a_idx][None, :], axis=1)
            Sa = _logsumexp(logKs[a_idx] + f[:, None], axis=0)
            Ss.append(Sa)
            logw = logw + probs[a_idx] * Sa
        for a_idx in range(len(family)):
            gs[a_idx] = logw - Ss[a_idx]
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
    init_seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> tuple[DiscreteMeasure, int, bool, tuple]:
    """Local refinement with k movable support points of weight 1/k.

    Initial points are drawn without replacement from the family mixture
    proportionally to weight (seeded, hence reproducible).  Each round
    solves the exact couplings to the current candidate and moves every
    support point to the weighted average of its matched sources; the
    objective is nonincreasing and the loop stops when support movement
    falls below ``tol``.  A support point left without mass (possible
    only through degenerate inputs) is respawned at the heaviest mixture
    point rather than failing.  Returns (measure, rounds, converged,
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

    history = []
    prev_obj = np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        nu = DiscreteMeasure(Y, w)
        sols = [solve_exact(a.law, nu) for a in family.atoms]
        obj = float(sum(a.p * s.cost for a, s in zip(family.atoms, sols)))
        if obj > prev_obj + 1e-12 * max(1.0, abs(prev_obj)):
            raise SolverFailureError(
                "free-support objective increased between iterations"
            )
        history.append(obj)
        prev_obj = obj

        weighted_targets = np.zeros_like(Y)
        col_mass = np.zeros(k)
        for a, s in zip(family.atoms, sols):
            g = s.coupling.weights
            weighted_targets += a.p * (g.T @ a.law.support)
            col_mass += a.p * g.sum(axis=0)
        empty = col_mass <= 1e-15
        col_mass[empty] = 1.0
        Y_new = weighted_targets / col_mass[:, None]
        if np.any(empty):
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

def _sorted_quantile_data(law: DiscreteMeasure):
    order = np.argsort(law.support[:, 0], kind="stable")
    vals = law.support[order, 0]
    cum = np.cumsum(law.weights[order])
    cum[-1] = max(cum[-1], 1.0)
    return vals, cum


def _quantile_at(vals: np.ndarray, cum: np.ndarray, t: np.ndarray) -> np.ndarray:
    idx = np.minimum(np.searchsorted(cum, t, side="left"), len(vals) - 1)
    return vals[idx]


def _quantile_average(family: ConditionalFamily, t: np.ndarray) -> np.ndarray:
    total = np.zeros_like(t)
    for atom in family.atoms:
        vals, cum = _sorted_quantile_data(atom.law)
        total += atom.p * _quantile_at(vals, cum, t)
    return total


def quantile_grid_measure(family: ConditionalFamily, resolution: int) -> DiscreteMeasure:
    """Quantile-average barycenter on the R-point midpoint grid.

    The candidate is the law of t -> sum_a p_a F_a^{-1}(t) sampled at
    t = (i - 1/2)/R with uniform weights 1/R.  Exact whenever every atom
    weight is a multiple of 1/R; a discretization otherwise.
    """
    family = _solvable_family(family)
    if family.dim != 1:
        raise DimensionNotOneError("quantile averaging requires 1-D atoms")
    if resolution < 1:
        raise ConfigConflictError("resolution must be at least 1")
    t = (np.arange(resolution) + 0.5) / resolution
    values = _quantile_average(family, t)
    return coalesce(
        DiscreteMeasure(values[:, None], np.full(resolution, 1.0 / resolution))
    )


def quantile_exact_measure(family: ConditionalFamily) -> DiscreteMeasure:
    """Exact 1-D barycenter via the union of cumulative breakpoints.

    The quantile average is a step function whose jumps can only sit at
    some atom's cumulative weight; evaluating it once per interval of
    the merged breakpoint grid represents its law exactly, for arbitrary
    weight patterns.
    """
    family = _solvable_family(family)
    if family.dim != 1:
        raise DimensionNotOneError("quantile averaging requires 1-D atoms")
    cums = [_sorted_quantile_data(a.law)[1] for a in family.atoms]
    breaks = np.unique(np.concatenate(cums + [np.array([1.0])]))
    breaks = breaks[(breaks > 0.0) & (breaks <= 1.0)]
    lo = np.concatenate([[0.0], breaks[:-1]])
    masses = breaks - lo
    keep = masses > 0.0
    mids = (lo[keep] + breaks[keep]) / 2.0
    values = _quantile_average(family, mids)
    return coalesce(DiscreteMeasure(values[:, None], masses[keep]))


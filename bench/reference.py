"""References computed apart from otrepair, and the checks that use them.

Nothing here imports otrepair: every reference is derived from the raw
rows the benchmark generated, with numpy and scipy's HiGHS only.

An ``Instance`` is one dataset as the benchmark made it; an ``Outcome``
is what the program returned for it.  ``check`` returns a list of
failure messages (empty when the outcome is correct), so the self-test
can feed it deliberately perturbed outcomes and see each one fail.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# 1-D: the program's objective and the integrated reference are the same
# sum taken in another order; they agreed to ~1e-16 relative when sized.
TOL_1D = 1e-9
# m >= 2: HiGHS solves to its 1e-7 feasibility tolerance, so the bound and
# attainment checks allow that much; attainment agreed to 2e-16 when sized.
TOL_LP = 1e-7
# the mean check compares two sums of the same terms in another order
TOL_MEAN = 1e-9


@dataclass(frozen=True, eq=False)
class Instance:
    """One generated dataset: row labels, points (n, m) and weights."""

    name: str
    groups: np.ndarray
    x: np.ndarray
    w: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.groups)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def laws(self):
        """Per group, in first-appearance order: (p, points, weights)."""
        _, first, inv = np.unique(self.groups, return_index=True, return_inverse=True)
        total = self.w.sum()
        out = []
        for g in np.argsort(first, kind="stable"):
            rows = np.flatnonzero(inv == g)
            wg = self.w[rows]
            out.append((wg.sum() / total, self.x[rows], wg / wg.sum()))
        return out

    def mean_x(self) -> np.ndarray:
        return (self.w / self.w.sum()) @ self.x


@dataclass(frozen=True, eq=False)
class Outcome:
    """What one repair returned, through public names only."""

    achieved: float
    support: np.ndarray
    weights: np.ndarray
    y: np.ndarray
    groups: tuple
    verify_passed: bool

    def digest(self) -> bytes:
        return b"".join([
            np.float64(self.achieved).tobytes(),
            np.ascontiguousarray(self.support).tobytes(),
            np.ascontiguousarray(self.weights).tobytes(),
            np.ascontiguousarray(self.y).tobytes(),
        ])


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _sorted_cdf(points: np.ndarray, weights: np.ndarray):
    order = np.argsort(points[:, 0], kind="stable")
    cum = np.cumsum(weights[order])
    cum[-1] = 1.0
    return points[order, 0], cum


def _quantile(vals: np.ndarray, cum: np.ndarray, t: np.ndarray) -> np.ndarray:
    return vals[np.minimum(np.searchsorted(cum, t, side="left"), len(vals) - 1)]


def barycenter_1d(inst: Instance):
    """The 1-D W2 barycenter, integrated over merged cumulative breakpoints.

    Returns (values, masses, objective): the barycenter's quantile function
    sum_a p_a F_a^-1(t) is constant between breakpoints, and the objective
    integrates sum_a p_a (F_a^-1(t) - b(t))^2 over t in (0, 1].
    """
    laws = inst.laws()
    cdfs = [_sorted_cdf(pts, w) for _, pts, w in laws]
    breaks = np.unique(np.concatenate([c for _, c in cdfs] + [np.array([1.0])]))
    breaks = breaks[(breaks > 0.0) & (breaks <= 1.0)]
    lo = np.concatenate([[0.0], breaks[:-1]])
    masses = breaks - lo
    mids = (lo + breaks) / 2.0
    q = np.array([_quantile(v, c, mids) for v, c in cdfs])
    p = np.array([pa for pa, _, _ in laws])
    bary = p @ q
    objective = float(masses @ (p @ (q - bary) ** 2))
    return bary, masses, objective


def _transport_w2(a_pts, a_w, b_pts, b_w) -> float:
    """Exact W2^2 between two discrete measures, as its own HiGHS LP."""
    n, k = len(a_pts), len(b_pts)
    C = ((a_pts[:, None, :] - b_pts[None, :, :]) ** 2).sum(axis=2)
    A = sparse.vstack([
        sparse.kron(sparse.eye(n), np.ones((1, k))),
        sparse.kron(np.ones((1, n)), sparse.eye(k)),
    ]).tocsr()
    res = linprog(C.ravel(), A_eq=A, b_eq=np.concatenate([a_w, b_w]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def w2_sum(inst: Instance, support: np.ndarray, weights: np.ndarray) -> float:
    """sum_a p_a W2^2(law_a, nu) with nu = (support, weights)."""
    return float(sum(p * _transport_w2(pts, w, support, weights)
                     for p, pts, w in inst.laws()))


def union_support_lp(inst: Instance) -> float:
    """Optimum of the joint barycenter LP on the union of input points.

    Variables: one plan gamma_a (n_a x K) per group and the grid weights w.
    Rows of gamma_a sum to the group law, its columns to w, and w sums to 1.
    """
    S = np.unique(inst.x, axis=0)
    K = len(S)
    laws = inst.laws()
    rows = sparse.block_diag([sparse.kron(sparse.eye(len(pts)), np.ones((1, K)))
                              for _, pts, _ in laws])
    cols = sparse.block_diag([sparse.kron(np.ones((1, len(pts))), sparse.eye(K))
                              for _, pts, _ in laws])
    A = sparse.vstack([
        sparse.hstack([rows, sparse.csr_matrix((rows.shape[0], K))]),
        sparse.hstack([cols, sparse.vstack([-sparse.eye(K)] * len(laws))]),
        sparse.hstack([sparse.csr_matrix((1, cols.shape[1])), np.ones((1, K))]),
    ]).tocsr()
    cost = [p * ((pts[:, None, :] - S[None, :, :]) ** 2).sum(axis=2).ravel()
            for p, pts, _ in laws]
    rhs = [w for _, _, w in laws] + [np.zeros(K * len(laws)), np.ones(1)]
    res = linprog(np.concatenate(cost + [np.zeros(K)]), A_eq=A,
                  b_eq=np.concatenate(rhs), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference joint LP failed: {res.message}")
    return float(res.fun)


def between_variance(inst: Instance) -> float:
    """sum_a p_a |mean_a - mean|^2, a lower bound on any independent repair."""
    m = inst.mean_x()
    return float(sum(p * np.sum((w @ pts - m) ** 2) for p, pts, w in inst.laws()))


def references(inst: Instance, outcome: Outcome) -> dict:
    """Every reference value the checks need for one instance."""
    scale = float(np.max(np.abs(inst.x))) or 1.0
    if inst.dim == 1:
        bary, masses, obj = barycenter_1d(inst)
        return {"scale": scale, "bary": bary, "masses": masses, "objective": obj}
    return {
        "scale": scale,
        "w2_sum": w2_sum(inst, outcome.support, outcome.weights),
        "w2_for": outcome.digest(),
        "lp_opt": union_support_lp(inst),
        "between": between_variance(inst),
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check(inst: Instance, out: Outcome, ref: dict) -> list[str]:
    """Failure messages for one outcome; empty when every check passes."""
    fails = []
    if not out.verify_passed:
        fails.append("verify did not pass")
    if out.y.shape != (inst.n_rows, inst.dim) or tuple(out.groups) != tuple(inst.groups):
        fails.append(f"{len(out.groups)} samples for {inst.n_rows} input rows")
    w = out.weights
    if np.any(w < 0.0) or not _close(float(w.sum()), 1.0, TOL_MEAN):
        fails.append("nu0 weights are not a probability vector")
    dev = float(np.max(np.abs(w @ out.support - inst.mean_x())))
    if dev > TOL_MEAN * ref["scale"]:
        fails.append(f"mean of nu0 differs from the weighted mean of x by {dev:.3g}")
    known = {row.tobytes() for row in np.ascontiguousarray(out.support)}
    strays = sum(row.tobytes() not in known for row in np.ascontiguousarray(out.y))
    if strays:
        fails.append(f"{strays} sampled y values are not nu0 support points")

    if inst.dim == 1:
        if not _close(out.achieved, ref["objective"], TOL_1D):
            fails.append(f"achieved {out.achieved!r} != 1-D barycenter objective "
                         f"{ref['objective']!r}")
        # same law: the quantile functions agree between merged breakpoints;
        # intervals thinner than 1e-12 come from round-off between equal
        # breakpoints of different groups and carry no mass worth comparing
        wide = ref["masses"] > 1e-12
        vals, cum = _sorted_cdf(out.support, w)
        t = (np.cumsum(ref["masses"]) - ref["masses"] / 2.0)[wide]
        gap = float(np.max(np.abs(_quantile(vals, cum, t) - ref["bary"][wide])))
        if gap > TOL_1D * ref["scale"]:
            fails.append(f"nu0 is not the 1-D barycenter (quantiles differ by {gap:.3g})")
        return fails

    w2 = ref["w2_sum"] if ref["w2_for"] == out.digest() else w2_sum(inst, out.support, w)
    if not _close(out.achieved, w2, TOL_LP):
        fails.append(f"achieved {out.achieved!r} != sum p_a W2^2(law_a, nu0) {w2!r}")
    if out.achieved < ref["between"] - TOL_LP * max(1.0, ref["between"]):
        fails.append(f"achieved {out.achieved!r} below the between-group "
                     f"variance {ref['between']!r}")
    if out.achieved > ref["lp_opt"] + TOL_LP * max(1.0, ref["lp_opt"]):
        fails.append(f"achieved {out.achieved!r} above the union-of-supports "
                     f"LP optimum {ref['lp_opt']!r}")
    return fails


def perturbations(inst: Instance, out: Outcome, ref: dict) -> dict:
    """Deliberately wrong (outcome, reference) pairs that ``check`` must reject.

    The bound cases move the reference instead of the outcome, so that only
    the bound in question is broken and attainment still holds.
    """
    y_swapped = out.y.copy()
    y_swapped[0] = inst.x[0] + 0.5 * ref["scale"]
    bad = {
        "shifted nu0": replace(out, support=out.support + 0.1 * ref["scale"]),
        "swapped sample": replace(out, y=y_swapped),
        "dropped row": replace(out, y=out.y[1:], groups=out.groups[1:]),
        "verify failed": replace(out, verify_passed=False),
        "achieved off by 1e-4": replace(out, achieved=out.achieved * (1 + 1e-4)),
    }
    bad = {name: (o, ref) for name, o in bad.items()}
    if inst.dim > 1:
        bad["above the LP optimum"] = (out, {**ref, "lp_opt": out.achieved * 0.99})
        bad["below the between variance"] = (out, {**ref, "between": out.achieved * 1.01})
    return bad


def self_test(inst: Instance, out: Outcome, ref: dict) -> list[str]:
    """Names of perturbations the checks failed to catch."""
    return [name for name, (o, r) in perturbations(inst, out, ref).items()
            if not check(inst, o, r)]

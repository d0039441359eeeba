"""Post-hoc numerical verification of a built approximation.

``verify`` certifies every invariant the construction promises (bound
attainment, mean matching, independence of the sampled law, marginal
reconstruction) and reports them as pass/fail checks; it never raises
on a failed check, only on a dataset that does not match the
approximation.  It runs no solver: optimality of each coupling is
certified by linear-programming duality from the potentials the build
kept, so checking costs one pass over the cost entries, taken in
bounded blocks of rows.  The sample-level helpers measure the same
quantities on transformed output, where discretization of the uniform
draw adds O(1/R) error.

Independence is quantified as total variation on the finite support of
nu0 (half the L1 distance between weight vectors): the construction
makes the conditional law of y equal to nu0 exactly, so any deviation
is numerical or sampling error, and no statistical testing machinery is
needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import IndependentApproximation, SampledOutput, match_rows
from .barycenter import _total
from .errors import UnknownSupportPointError
from .measure import Dataset, DiscreteMeasure, _label_codes, coalesce
from .ot import _segment_sum, cost_matrix

__all__ = [
    "CheckResult",
    "Report",
    "verify",
    "empirical_distance",
    "independence_tv",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class Report:
    """Aggregated verification results for one approximation.

    ``per_atom_w2`` holds each atom's certified dual bound D_a and
    ``lower_bound`` their p-weighted sum (see :func:`verify`).
    """

    objective: float
    lower_bound: float
    gap: float
    mean_x: np.ndarray
    mean_y: np.ndarray
    per_atom_w2: dict
    independence_tv: dict
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# the c-transforms are taken over blocks of rows with at most this many
# cost entries (or one row), so a block takes no more memory than one
# small atom's cost matrix, whatever the number of atoms
_BLOCK = 1 << 13


def verify(approx: IndependentApproximation, data: Dataset) -> Report:
    """Check all construction invariants without solving anything again.

    Each atom's lower bound is the dual objective
    D_a = mu_a . u + nu0 . u^c of its coupling's row potential u, where
    u^c_j = min_i (C_ij - u_i) is the c-transform.  The pair (u, u^c) is
    dual-feasible by construction, so D_a <= W2^2(mu_a, nu0) holds for
    any u (Peyre & Cuturi, Computational Optimal Transport, 2019, sec. 3).
    Bound attainment compares the achieved distance with sum_a p_a D_a:
    equality certifies every coupling optimal, and a suboptimal coupling
    or a wrong potential leaves a gap.  The tolerance is 1e-8 of
    max(1, |lower bound|), or 1e-14 of the largest potential where that
    is more: potentials reach |x|^2, and their sums round by more than
    1e-8 where points lie far from 0 and the objective is near 0.
    Points, weights and atom bounds are the family's flat arrays, whose
    rows the disintegration's follow.
    The c-transforms of all atoms are taken together over blocks of rows,
    each with at most 2^13 cost entries (or one row): a block's minima
    are reduced per atom with ``np.minimum.reduceat`` and merged into the
    atoms' running minima.  The reconstructed column marginals are summed
    over the stored arcs with one ``np.bincount``.  Raises
    DatasetMismatchError unless ``data`` passes :func:`match_rows`.
    """
    match_rows(approx, data)
    fam, nu0, dis = approx.family, approx.nu0, approx.disintegration
    x, w, starts = fam.support, fam.weights, fam.starts
    A, K = len(fam), nu0.n
    owner = np.repeat(np.arange(A), np.diff(starts))

    u_c = np.full((A, K), np.inf)
    block = max(1, _BLOCK // K)
    for s in range(0, len(x), block):
        e = min(s + block, len(x))
        C = cost_matrix(x[s:e], nu0.support)
        C -= dis.potential[s:e, None]
        first, last = owner[s], owner[e - 1] + 1
        cuts = np.maximum(starts[first:last], s) - s
        # reduceat down the columns is slow on a block of one atom's rows
        mins = C.min(axis=0) if len(cuts) == 1 else np.minimum.reduceat(C, cuts, axis=0)
        np.minimum(u_c[first:last], mins, out=u_c[first:last])
    dual = _segment_sum(w * dis.potential, starts) + (u_c * nu0.weights).sum(axis=1)
    per_atom = dict(zip(fam.labels, dual.tolist()))

    arc_rows = np.repeat(np.arange(len(x)), np.diff(dis.indptr))
    recon = np.bincount(owner[arc_rows] * K + dis.cols, w[arc_rows] * dis.mass, A * K)
    deviation = np.abs(recon.reshape(A, K) - nu0.weights)
    tv = dict(zip(fam.labels, (0.5 * deviation.sum(axis=1)).tolist()))
    recon_err = float(deviation.max())

    lower = _total(fam.probabilities, dual)
    achieved = approx.achieved_distance_sq
    gap = achieved - lower
    tol = max(1e-8 * max(1.0, abs(lower)),
              1e-14 * float(np.abs(dis.potential).max() + np.abs(u_c).max()))

    mean_x = data.mean_x()
    mean_dev = float(np.max(np.abs(approx.mean_y - mean_x)))

    checks = (
        CheckResult("bound_attainment", abs(gap) <= tol, float(abs(gap)), tol),
        CheckResult("mean_matching", mean_dev <= 1e-8, mean_dev, 1e-8),
        CheckResult(
            "independence_tv",
            max(tv.values()) <= 1e-8,
            float(max(tv.values())),
            1e-8,
        ),
        CheckResult("reconstruction", recon_err <= 1e-8, recon_err, 1e-8),
    )
    return Report(
        objective=achieved,
        lower_bound=lower,
        gap=gap,
        mean_x=mean_x,
        mean_y=approx.mean_y,
        per_atom_w2=per_atom,
        independence_tv=tv,
        checks=checks,
    )


def empirical_distance(output: SampledOutput) -> float:
    """Weighted mean of |x - y|^2 over the output rows, added in one
    fixed order (a BLAS dot's order moves with its thread count)."""
    d = output.x - output.y
    sq = np.einsum("ij,ij->i", d, d)
    return float(np.add.reduce(output.weights * sq) / output.weights.sum())


def independence_tv(output: SampledOutput, nu0: DiscreteMeasure) -> dict:
    """Per-group total variation between the sampled law of y and nu0.

    Laws are compared after coalescing nu0 (duplicate support points
    carry the same mass either way).  Every y row must be an exact
    support point of nu0.  The weights are summed per (group, point) and
    per group by ``np.bincount``, in row order.
    """
    ref = coalesce(nu0)
    index = {ref.support[j].tobytes(): j for j in range(ref.n)}
    cols = [index.get(np.ascontiguousarray(yrow).tobytes()) for yrow in output.y]
    if None in cols:
        yrow = output.y[cols.index(None)]
        raise UnknownSupportPointError(
            f"sampled value {yrow!r} is not a support point of nu0"
        )
    labels, group = _label_codes(output.groups)
    A, K = len(labels), ref.n
    emp = np.bincount(group * K + np.array(cols, dtype=np.intp), output.weights, A * K)
    mass = np.bincount(group, output.weights, A)
    tv = 0.5 * np.abs(emp.reshape(A, K) / mass[:, None] - ref.weights).sum(axis=1)
    return dict(zip(labels, tv.tolist()))

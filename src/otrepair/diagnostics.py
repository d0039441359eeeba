"""Post-hoc numerical verification of a built approximation.

``verify`` re-derives every invariant the construction promises (bound
attainment, mean matching, independence of the sampled law, marginal
reconstruction) from scratch and reports them as pass/fail checks; it
never raises on a failed check, only on a dataset that does not match
the approximation.  The sample-level helpers measure the same
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
from .errors import UnknownSupportPointError
from .measure import Dataset, DiscreteMeasure, coalesce
from .ot import wasserstein_sq

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
    """Aggregated verification results for one approximation."""

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


def verify(approx: IndependentApproximation, data: Dataset) -> Report:
    """Recompute all construction invariants against a fresh baseline.

    The lower bound is recomputed with fresh exact transport solves (for
    1-D data this is a genuinely different algorithm from the comonotone
    couplings used by the build), so bound attainment is a two-route
    comparison rather than an arithmetic identity.  Raises
    DatasetMismatchError unless ``data`` passes :func:`match_rows`.
    """
    match_rows(approx, data)
    fam = approx.family
    nu0 = approx.nu0

    per_atom = {
        a.label: wasserstein_sq(a.law, nu0, method="exact") for a in fam.atoms
    }
    fresh_lb = float(sum(a.p * per_atom[a.label] for a in fam.atoms))
    achieved = approx.achieved_distance_sq
    gap = achieved - fresh_lb

    tv = {}
    recon_err = 0.0
    for a in fam.atoms:
        dis = approx.disintegrations[a.label]
        recon = a.law.weights @ dis.conditional
        tv[a.label] = 0.5 * float(np.abs(recon - nu0.weights).sum())
        recon_err = max(recon_err, float(np.max(np.abs(recon - nu0.weights))))

    mean_x = data.mean_x()
    mean_dev = float(np.max(np.abs(approx.mean_y - mean_x)))

    checks = (
        CheckResult(
            "bound_attainment",
            abs(gap) <= 1e-8 * max(1.0, abs(fresh_lb)),
            float(abs(gap)),
            1e-8 * max(1.0, abs(fresh_lb)),
        ),
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
        lower_bound=fresh_lb,
        gap=gap,
        mean_x=mean_x,
        mean_y=approx.mean_y,
        per_atom_w2=per_atom,
        independence_tv=tv,
        checks=checks,
    )


def empirical_distance(output: SampledOutput) -> float:
    """Weighted mean of |x - y|^2 over the output rows."""
    d = output.x - output.y
    sq = np.einsum("ij,ij->i", d, d)
    return float(output.weights @ sq / output.weights.sum())


def independence_tv(output: SampledOutput, nu0: DiscreteMeasure) -> dict:
    """Per-group total variation between the sampled law of y and nu0.

    Laws are compared after coalescing nu0 (duplicate support points
    carry the same mass either way).  Every y row must be an exact
    support point of nu0.
    """
    ref = coalesce(nu0)
    index = {ref.support[j].tobytes(): j for j in range(ref.n)}
    emp: dict = {}
    mass: dict = {}
    for g, yrow, w in zip(output.groups, output.y, output.weights):
        j = index.get(np.ascontiguousarray(yrow).tobytes())
        if j is None:
            raise UnknownSupportPointError(
                f"sampled value {yrow!r} is not a support point of nu0"
            )
        if g not in emp:
            emp[g] = np.zeros(ref.n)
            mass[g] = 0.0
        emp[g][j] += w
        mass[g] += w
    return {
        g: 0.5 * float(np.abs(emp[g] / mass[g] - ref.weights).sum()) for g in emp
    }

"""Dense two-phase revised simplex with Bland's anti-cycling rule.

Solves ``min c @ x  s.t.  A @ x = b, x >= 0`` for small dense systems.
Entering variable: lowest index with negative reduced cost; leaving
variable: minimum ratio, ties broken by lowest basic-variable index.
Both choices are Bland's rule, so the method terminates on degenerate
problems, and the pivot path is a deterministic function of the input.

The tests' LP oracle: the package solves the fixed-support barycenter
LP with SciPy's HiGHS, and the tests solve the same LP with this
independent engine at desk scale and compare the answers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from otrepair.errors import SolverFailureError

_TOL = 1e-9
_REFACTOR_EVERY = 64


class LpInfeasibleError(SolverFailureError):
    """Phase 1 ended with artificial mass left: the LP has no solution."""


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fun: float
    iterations: int


def _bland_iterate(A, b, c, basis, allowed, max_iter):
    """Run Bland pivots in place; returns (xB, iterations)."""
    m_rows = A.shape[0]
    Binv = np.linalg.inv(A[:, basis])
    xB = Binv @ b
    it = 0
    while True:
        if it % _REFACTOR_EVERY == 0 and it > 0:
            Binv = np.linalg.inv(A[:, basis])
            xB = Binv @ b
        y = c[basis] @ Binv
        rc = c - y @ A
        rc[basis] = 0.0
        candidates = np.flatnonzero((rc < -_TOL) & allowed)
        if candidates.size == 0:
            return xB, it
        j = int(candidates[0])
        d = Binv @ A[:, j]
        pos = np.flatnonzero(d > _TOL)
        if pos.size == 0:
            raise SolverFailureError("LP is unbounded (cannot occur here)")
        ratios = xB[pos] / d[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12]
        r = int(ties[np.argmin(np.asarray(basis)[ties])])
        # pivot: basis[r] leaves, j enters
        piv = d[r]
        Binv[r, :] /= piv
        xB[r] /= piv
        others = np.arange(m_rows) != r
        Binv[others, :] -= np.outer(d[others], Binv[r, :])
        xB[others] -= d[others] * xB[r]
        xB[r] = max(xB[r], 0.0)
        basis[r] = j
        it += 1
        if it > max_iter:
            raise SolverFailureError(f"simplex exceeded {max_iter} pivots")


def solve_standard_form(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    max_iter: int | None = None,
) -> SimplexResult:
    """Minimize ``c @ x`` subject to ``A @ x = b`` and ``x >= 0``.

    Raises :class:`LpInfeasibleError` when phase 1 ends with residual
    artificial mass, and :class:`SolverFailureError` on iteration-cap or
    unboundedness (neither reachable from valid transport inputs).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m_rows, n_cols = A.shape
    if max_iter is None:
        max_iter = 2000 + 200 * (m_rows + n_cols)

    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b[flip] *= -1.0

    # phase 1: artificial identity basis; artificials may never re-enter
    A1 = np.hstack([A, np.eye(m_rows)])
    c1 = np.concatenate([np.zeros(n_cols), np.ones(m_rows)])
    basis = list(range(n_cols, n_cols + m_rows))
    allowed = np.ones(n_cols + m_rows, dtype=bool)
    xB, it1 = _bland_iterate(A1, b, c1, basis, allowed, max_iter)
    if float(c1[basis] @ xB) > 1e-7:
        raise LpInfeasibleError("phase 1 ended with positive artificial mass")

    # phase 2: original costs; artificials stay at zero and cannot enter
    c2 = np.concatenate([c, np.zeros(m_rows)])
    allowed[n_cols:] = False
    xB, it2 = _bland_iterate(A1, b, c2, basis, allowed, max_iter)

    x = np.zeros(n_cols)
    for r, var in enumerate(basis):
        if var < n_cols:
            x[var] = max(xB[r], 0.0)
    return SimplexResult(x=x, fun=float(c @ x), iterations=it1 + it2)

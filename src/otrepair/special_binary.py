"""Closed forms when the only extra randomness is one independent event.

Here the observed variable is x = f on an event A and g off it, with f
and g constant on each atom of the grouping and A independent of the
grouping with probability pA.  Without an auxiliary uniform the only
candidates independent of the grouping take at most two values, which
makes the optimum computable in closed form:

- pA = 1/2: the free parameter is a subset B of atoms; the best B is
  {f >= g}, giving y = E[f v g] on A and E[f ^ g] off it.
- pA != 1/2: only A and its complement remain as independent events, so
  the optimum is the plain projection y = E[f] on A, E[g] off it.

``brute_force`` checks the closed forms by exhaustive subset search.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    HalfNotAllowedError,
    NegativeComponentError,
    NotHalfError,
    TooManyAtomsError,
    WeightSumError,
)
from .measure import _finite

__all__ = [
    "BinaryInstance",
    "BinarySolution",
    "is_half",
    "solve_half",
    "solve_nonhalf",
    "brute_force",
]

_BRUTE_FORCE_CAP = 20
_CHUNK = 1 << 14


def is_half(p_a) -> bool:
    """Exact test for p = 1/2: rational inputs compare exactly, floats within 1e-12."""
    if isinstance(p_a, Fraction):
        return p_a == Fraction(1, 2)
    return abs(float(p_a) - 0.5) <= 1e-12


@dataclass(frozen=True, eq=False)
class BinaryInstance:
    """Atoms of the grouping with the two components of x on each.

    ``probs`` are the atom probabilities (sum 1); ``f`` and ``g`` hold
    the value of x on the independent event and its complement per atom,
    both finite and nonnegative; ``p_a`` is the probability of the event.
    """

    labels: tuple
    probs: np.ndarray
    f: np.ndarray
    g: np.ndarray
    p_a: float

    def __post_init__(self):
        probs = _finite("probs", self.probs).ravel()
        f = _finite("f", self.f).ravel()
        g = _finite("g", self.g).ravel()
        labels = tuple(self.labels)
        if not (len(labels) == len(probs) == len(f) == len(g)):
            raise WeightSumError("labels, probs, f, g must have equal length")
        if abs(float(probs.sum()) - 1.0) > 1e-9 or np.any(probs <= 0):
            raise WeightSumError("atom probabilities must be positive and sum to 1")
        if np.any(f < 0) or np.any(g < 0):
            raise NegativeComponentError("f and g must be nonnegative")
        if not 0.0 < float(self.p_a) < 1.0:
            raise WeightSumError("the event probability must lie strictly in (0, 1)")
        for name, arr in (("probs", probs), ("f", f), ("g", g)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "labels", labels)

    @property
    def n_atoms(self) -> int:
        return len(self.labels)

    def mean_x(self) -> float:
        pa = float(self.p_a)
        return float(self.probs @ (pa * self.f + (1.0 - pa) * self.g))


@dataclass(frozen=True, eq=False)
class BinarySolution:
    """The two-valued optimum: alpha on the event, beta off it.

    ``set_b`` is the optimal atom subset for the balanced case and None
    otherwise (the unbalanced case has no subset freedom).
    """

    alpha: float
    beta: float
    set_b: frozenset | None
    y_on_event: float
    y_off_event: float
    distance_sq: float


def solve_half(inst: BinaryInstance) -> BinarySolution:
    """Closed form for the balanced case pA = 1/2.

    B = {f >= g} (weak inequality: tied atoms join B; brute force
    confirms ties never change the value), alpha = E[f v g],
    beta = E[f ^ g], and the squared distance is half the sum of the
    variances of f v g and f ^ g.
    """
    if not is_half(inst.p_a):
        raise NotHalfError(f"p_a={inst.p_a!r} is not 1/2; use solve_nonhalf")
    p, f, g = inst.probs, inst.f, inst.g
    hi = np.maximum(f, g)
    lo = np.minimum(f, g)
    alpha = float(p @ hi)
    beta = float(p @ lo)
    dist_sq = 0.5 * float(p @ hi**2 - alpha**2 + p @ lo**2 - beta**2)
    set_b = frozenset(l for l, fi, gi in zip(inst.labels, f, g) if fi >= gi)
    return BinarySolution(alpha, beta, set_b, alpha, beta, dist_sq)


def solve_nonhalf(inst: BinaryInstance) -> BinarySolution:
    """Projection optimum for pA != 1/2: y = E[f] on the event, E[g] off it."""
    if is_half(inst.p_a):
        raise HalfNotAllowedError("p_a is 1/2; use solve_half")
    p, f, g = inst.probs, inst.f, inst.g
    pa = float(inst.p_a)
    alpha = float(p @ f)
    beta = float(p @ g)
    var_f = float(p @ f**2 - alpha**2)
    var_g = float(p @ g**2 - beta**2)
    dist_sq = pa * var_f + (1.0 - pa) * var_g
    return BinarySolution(alpha, beta, None, alpha, beta, dist_sq)


def brute_force(inst: BinaryInstance) -> BinarySolution:
    """Exhaustive verification oracle.

    Balanced case: enumerates every atom subset B with the closed-form
    inner optimum for (alpha, beta) and keeps the best (first-found on
    ties, enumerating bitmasks in increasing order).  Unbalanced case:
    only the inner optimization remains.
    """
    n = inst.n_atoms
    if n > _BRUTE_FORCE_CAP:
        raise TooManyAtomsError(f"{n} atoms exceeds the 2^{_BRUTE_FORCE_CAP} cap")
    if not is_half(inst.p_a):
        return solve_nonhalf(inst)

    p, f, g = inst.probs, inst.f, inst.g
    const = float(p @ f**2 + p @ g**2)
    pf, pg = p * f, p * g
    best_val = -np.inf
    best_mask = 0
    total = 1 << n
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
        bits = (masks[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
        in_b = bits.astype(float)
        e1 = in_b @ pf + (1.0 - in_b) @ pg   # alpha candidates
        e2 = in_b @ pg + (1.0 - in_b) @ pf   # beta candidates
        vals = e1**2 + e2**2
        i = int(np.argmax(vals))             # first max: lowest bitmask wins ties
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_mask = int(masks[i])
    in_b = np.array([(best_mask >> i) & 1 for i in range(n)], dtype=float)
    alpha = float(in_b @ pf + (1.0 - in_b) @ pg)
    beta = float(in_b @ pg + (1.0 - in_b) @ pf)
    if alpha < beta:
        # B and its complement describe the same optimum with the two
        # values swapped; report the alpha >= beta representative
        in_b = 1.0 - in_b
        alpha, beta = beta, alpha
    chosen = frozenset(inst.labels[i] for i in range(n) if in_b[i])
    dist_sq = 0.5 * (const - best_val)
    return BinarySolution(alpha, beta, chosen, alpha, beta, dist_sq)

"""Weighted discrete measures, sample datasets and conditional families.

These are the value types every other module consumes.  All of them are
frozen after construction (their arrays are marked read-only), so they
can be shared freely across threads and reused between solver calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    EmptySupportError,
    NegativeWeightError,
    NonFiniteValueError,
    UOutOfRangeError,
    WeightSumError,
)

# Constructor-level tolerance on |sum(weights) - 1|: inputs inside it are
# renormalized, anything beyond is rejected as corrupt.  CSV round-off is
# orders of magnitude smaller.
WEIGHT_SUM_ATOL = 1e-6


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _finite(what: str, values) -> np.ndarray:
    """A float array of ``values``; nan and infinities are rejected by value."""
    a = np.asarray(values, dtype=float)
    bad = a[~np.isfinite(a)]
    if bad.size:
        raise NonFiniteValueError(f"{what} contains the non-finite value {bad[0]}")
    return a


def _as_support(points) -> np.ndarray:
    """Coerce a point sequence to a read-only (n, m) float array."""
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise DimensionMismatchError(f"ragged support points: {exc}") from exc
    _finite("x", pts)
    if pts.size == 0:
        raise EmptySupportError("a measure needs at least one support point")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise DimensionMismatchError(
            f"support points must be scalars or m-vectors, got ndim={pts.ndim}"
        )
    # adding 0.0 folds -0.0 into +0.0 so byte-level point lookups are stable
    return pts + 0.0


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A finite weighted point set in R^m.

    Parameters
    ----------
    support : (n, m) array_like
        Support points; a 1-D array is treated as n points in R^1.
        Duplicate points are allowed and are never merged implicitly
        (see :func:`coalesce`), because merging would change coupling
        indexing downstream.
    weights : (n,) array_like
        Nonnegative weights summing to 1 within ``WEIGHT_SUM_ATOL``;
        they are renormalized to sum exactly 1.  Use :func:`make_measure`
        for inputs on an arbitrary scale.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _as_support(self.support)
        w = _finite("weights", self.weights).ravel()
        if len(w) != len(pts):
            raise DimensionMismatchError(
                f"{len(pts)} support points but {len(w)} weights"
            )
        if np.any(w < 0.0):
            raise NegativeWeightError("weights must be nonnegative")
        total = float(w.sum())
        if not np.isfinite(total) or abs(total - 1.0) > WEIGHT_SUM_ATOL:
            raise WeightSumError(
                f"weights sum to {total!r}; expected 1 within {WEIGHT_SUM_ATOL}"
            )
        object.__setattr__(self, "support", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w / total))

    @property
    def n(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def equals(self, other: "DiscreteMeasure") -> bool:
        """Exact (bitwise) equality of support and weights."""
        return (
            self.support.shape == other.support.shape
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.weights, other.weights)
        )

    def translate(self, shift) -> "DiscreteMeasure":
        """Return the measure shifted by a constant vector."""
        shift = np.asarray(shift, dtype=float).ravel()
        if shift.shape != (self.dim,):
            raise DimensionMismatchError(
                f"shift has dimension {shift.shape}, measure has m={self.dim}"
            )
        return DiscreteMeasure(self.support + shift[None, :], self.weights)

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n={self.n}, m={self.dim})"


def make_measure(points, weights) -> DiscreteMeasure:
    """Build a measure from points and weights on an arbitrary scale.

    Weights must be nonnegative with a positive total; they are divided
    by their sum, so scaling all weights by a constant yields the same
    measure.
    """
    pts = _as_support(points)
    w = _finite("weights", weights).ravel()
    if np.any(w < 0.0):
        raise NegativeWeightError("weights must be nonnegative")
    total = float(w.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise WeightSumError("weights must have a positive total mass")
    return DiscreteMeasure(pts, w / total)


def dirac(point) -> DiscreteMeasure:
    """The unit mass at a single point."""
    pt = np.asarray(point, dtype=float).ravel()
    return DiscreteMeasure(pt[None, :], np.ones(1))


def second_moment(mu: DiscreteMeasure) -> float:
    """Weighted sum of squared Euclidean norms of the support points."""
    return float(mu.weights @ np.einsum("ij,ij->i", mu.support, mu.support))


def mean(mu: DiscreteMeasure) -> np.ndarray:
    """Barycentric mean of the measure, an m-vector."""
    return mu.weights @ mu.support


def coalesce(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Merge exactly-equal support points, summing their weights.

    The result is sorted lexicographically by coordinates and each
    duplicate group is summed in ascending weight order, so any
    reordering of the same (point, weight) multiset coalesces to a
    bitwise-identical measure.
    """
    keys = np.vstack([mu.weights[None, :], mu.support.T[::-1]])
    order = np.lexsort(keys)
    pts = mu.support[order]
    w = mu.weights[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    idx = np.cumsum(keep) - 1
    merged = np.zeros(int(idx[-1]) + 1)
    np.add.at(merged, idx, w)
    return DiscreteMeasure(pts[keep], merged)


@dataclass(frozen=True, eq=False)
class ConditionalAtom:
    """One group: its label, probability and conditional law."""

    label: Hashable
    p: float
    law: DiscreteMeasure


@dataclass(frozen=True, eq=False)
class ConditionalFamily:
    """The conditional laws of X given each atom of the grouping.

    Atom probabilities must be strictly positive and sum to 1 within
    1e-9; all conditional laws share one dimension.  The weighted
    mixture of the atoms reproduces the marginal law of X (this is a
    property of :func:`otrepair.approx.estimate_conditionals`, not a
    constructor check, since families can also be built by hand).
    """

    atoms: tuple[ConditionalAtom, ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise EmptyDatasetError("a conditional family needs at least one atom")
        probs = np.array([a.p for a in atoms], dtype=float)
        if np.any(probs <= 0.0):
            raise NegativeWeightError("atom probabilities must be strictly positive")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise WeightSumError(f"atom probabilities sum to {total!r}, not 1")
        dims = {a.law.dim for a in atoms}
        if len(dims) != 1:
            raise DimensionMismatchError(f"atoms have mixed dimensions {sorted(dims)}")
        labels = [a.label for a in atoms]
        if len(set(labels)) != len(labels):
            raise DimensionMismatchError("atom labels must be distinct")
        object.__setattr__(self, "atoms", atoms)

    @property
    def dim(self) -> int:
        return self.atoms[0].law.dim

    @property
    def labels(self) -> tuple:
        return tuple(a.label for a in self.atoms)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([a.p for a in self.atoms], dtype=float)

    def atom(self, label) -> ConditionalAtom:
        for a in self.atoms:
            if a.label == label:
                return a
        raise KeyError(label)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)


def family(atoms: Iterable[tuple[Hashable, float, DiscreteMeasure]]) -> ConditionalFamily:
    """Shorthand constructor from (label, probability, measure) triples."""
    return ConditionalFamily(tuple(ConditionalAtom(l, float(p), m) for l, p, m in atoms))


def mixture(fam: ConditionalFamily) -> DiscreteMeasure:
    """The marginal law: concatenated supports with weights scaled by p_a."""
    pts = np.concatenate([a.law.support for a in fam.atoms], axis=0)
    w = np.concatenate([a.p * a.law.weights for a in fam.atoms])
    return DiscreteMeasure(pts, w)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ingested sample rows: group label, point x, weight, optional u.

    Weights must be strictly positive and are renormalized to sum 1 on
    load.  If any row carries a uniform draw u, every row must, and each
    u must lie in [0, 1].  x, weights and u must be finite.  Row order is
    significant: within a group, the i-th row is paired with the i-th
    support point of the estimated conditional law, which is what makes
    duplicate x values unambiguous.
    """

    groups: tuple
    x: np.ndarray
    weights: np.ndarray
    u: np.ndarray | None = None
    _rows: dict = field(init=False, repr=False)  # label -> row positions

    def __post_init__(self):
        groups = tuple(self.groups)
        if not groups:
            raise EmptyDatasetError("dataset has no rows")
        x = _as_support(self.x)
        if len(x) != len(groups):
            raise DimensionMismatchError(
                f"{len(groups)} group labels but {len(x)} points"
            )
        w = _finite("weights", self.weights).ravel()
        if len(w) != len(groups):
            raise DimensionMismatchError(f"{len(groups)} rows but {len(w)} weights")
        if np.any(w <= 0.0):
            raise NegativeWeightError("dataset weights must be strictly positive")
        total = float(w.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise WeightSumError("dataset weights must have positive total")
        u = self.u
        if u is not None:
            u = _finite("u", u).ravel()
            if len(u) != len(groups):
                raise DimensionMismatchError("u column length differs from row count")
            if np.any(u < 0.0) or np.any(u > 1.0):
                raise UOutOfRangeError("u values must lie in [0, 1]")
            u = _freeze(u)
        rows: dict = {}
        for i, g in enumerate(groups):
            rows.setdefault(g, []).append(i)
        # one read-only array of the positions grouped by label, sliced per label
        flat = _freeze(np.fromiter(chain(*rows.values()), dtype=int, count=len(groups)))
        ends = np.cumsum([len(r) for r in rows.values()]).tolist()
        index = {g: flat[e - len(r):e] for (g, r), e in zip(rows.items(), ends)}
        object.__setattr__(self, "_rows", index)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "weights", _freeze(w / total))
        object.__setattr__(self, "u", u)

    @property
    def n_rows(self) -> int:
        return len(self.groups)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def labels(self) -> tuple:
        """Distinct group labels in first-appearance order."""
        return tuple(self._rows)

    def group_rows(self, label) -> np.ndarray:
        """Row positions of one group, in dataset order (read-only)."""
        return self._rows[label]

    def mean_x(self) -> np.ndarray:
        return self.weights @ self.x


def dataset_from_rows(rows: Sequence[tuple]) -> Dataset:
    """Build a dataset from (group, x[, weight[, u]]) tuples.

    A 4-tuple row means (group, x, weight, u); a u of None counts as
    absent, and either every row has a u or none does.
    """
    if not rows:
        raise EmptyDatasetError("dataset has no rows")
    us = [r[3] if len(r) > 3 else None for r in rows]
    has_u = [v is not None for v in us]
    if any(has_u) and not all(has_u):
        raise UOutOfRangeError("either every row has a u value or none does")
    return Dataset(
        groups=tuple(r[0] for r in rows),
        x=np.asarray([r[1] for r in rows], dtype=float),
        weights=np.asarray([r[2] if len(r) > 2 else 1.0 for r in rows], dtype=float),
        u=np.asarray(us, dtype=float) if all(has_u) else None,
    )

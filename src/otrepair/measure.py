"""Weighted discrete measures, sample datasets and conditional families.

These are the value types every other module consumes.  All of them are
frozen after construction (their arrays are marked read-only), so they
can be shared freely across threads and reused between solver calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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

    The constructor checks and freezes its inputs.  The laws of a
    :class:`ConditionalFamily` are checked once over its flat arrays
    instead, and each wraps its read-only slices through
    :meth:`_of_checked`.
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

    @classmethod
    def _of_checked(cls, support: np.ndarray, weights: np.ndarray) -> "DiscreteMeasure":
        """The measure of arrays that already passed the checks of the
        constructor or of :class:`ConditionalFamily` (a read-only finite
        (n, m) float support and read-only finite weights >= 0 summing to
        1), taken as they are: not checked, copied or divided again."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "support", support)
        object.__setattr__(mu, "weights", weights)
        return mu

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


def _total_weight(w: np.ndarray) -> float:
    """The sum of finite weights >= 0; a :class:`WeightSumError` says so
    when it overflows."""
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if total == np.inf:
        raise WeightSumError("the weights' total overflows; rescale the weights")
    return total


def make_measure(points, weights) -> DiscreteMeasure:
    """Build a measure from points and weights on an arbitrary scale.

    Weights must be nonnegative with a positive, finite total; they are
    divided by their sum, so scaling all weights by a constant yields the
    same measure.
    """
    pts = _as_support(points)
    w = _finite("weights", weights).ravel()
    if np.any(w < 0.0):
        raise NegativeWeightError("weights must be nonnegative")
    total = _total_weight(w)
    if total <= 0.0:
        raise WeightSumError("weights must have a positive total mass")
    return DiscreteMeasure(pts, w / total)


def dirac(point) -> DiscreteMeasure:
    """The unit mass at a single point."""
    pt = np.asarray(point, dtype=float).ravel()
    return DiscreteMeasure(pt[None, :], np.ones(1))


def mean(mu: DiscreteMeasure) -> np.ndarray:
    """Barycentric mean of the measure, an m-vector, added point by point in
    one fixed order: no BLAS call, whose order moves with its thread count."""
    return np.add.reduce(mu.weights[:, None] * mu.support, axis=0)


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
    return DiscreteMeasure(pts[keep], np.bincount(np.cumsum(keep) - 1, w))


@dataclass(frozen=True, eq=False)
class ConditionalAtom:
    """One group: its label, probability and conditional law."""

    label: Hashable
    p: float
    law: DiscreteMeasure


@dataclass(frozen=True, eq=False)
class ConditionalFamily:
    """The conditional laws of X given each atom of the grouping, laid out
    flat for every stage to read: atom a is ``labels[a]`` with probability
    ``probabilities[a]`` and law ``support[starts[a]:starts[a + 1]]``
    with the conditional ``weights`` there.  The constructor checks the
    layout once: at least one atom, distinct labels, finite probabilities
    > 0 summing to 1 within 1e-9, ``starts`` running from 0 to
    ``len(support)`` with no empty atom, a finite (n, m) support, and
    finite weights >= 0 summing to 1 within 1e-9 per atom.  It divides
    nothing; C-contiguous float arrays become the family's, read-only.
    """

    labels: tuple
    probabilities: np.ndarray
    starts: np.ndarray
    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        probs = _finite("atom probabilities", self.probabilities)
        pts, w = _finite("support", self.support), _finite("weights", self.weights)
        starts = np.asarray(self.starts)
        bounds = starts.tolist()
        if not labels:
            raise EmptyDatasetError("a conditional family needs at least one atom")
        if len(set(labels)) != len(labels):
            raise DimensionMismatchError("atom labels must be distinct")
        if (probs.shape != (len(labels),) or pts.ndim != 2 or w.shape != pts.shape[:1]
                or starts.dtype.kind not in "iu" or starts.shape != (len(labels) + 1,)
                or bounds[0] != 0 or bounds[-1] != len(w)):
            raise DimensionMismatchError(f"probabilities {probs.shape}, support {pts.shape}, "
                                         f"weights {w.shape} and starts {bounds} are no layout")
        if np.any(probs <= 0.0):
            raise NegativeWeightError("atom probabilities must be strictly positive")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise WeightSumError(f"atom probabilities sum to {total!r}, not 1")
        sizes = np.diff(starts).tolist()
        if min(sizes) < 1:
            raise EmptySupportError(f"atom {labels[sizes.index(min(sizes))]!r} has no points")
        if np.any(w < 0.0):
            raise NegativeWeightError("weights must be nonnegative")
        error = np.abs(np.add.reduceat(w, starts[:-1]) - 1.0)
        if np.max(error) > 1e-9:
            raise WeightSumError(f"atom {labels[np.argmax(error)]!r}'s weights do not sum to 1")
        object.__setattr__(self, "labels", labels)
        for name, value in (("probabilities", probs), ("starts", starts),
                            ("support", pts), ("weights", w)):
            object.__setattr__(self, name, _freeze(value))

    @property
    def atoms(self) -> tuple[ConditionalAtom, ...]:
        """The atoms, each law a read-only view of its rows, built on every
        read: kept for external readers, as no stage of the package reads it."""
        b = self.starts.tolist()
        return tuple([ConditionalAtom(
            label, p, DiscreteMeasure._of_checked(self.support[lo:hi], self.weights[lo:hi]))
            for label, p, lo, hi in zip(self.labels, self.probabilities.tolist(), b, b[1:])])

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def __len__(self) -> int:
        return len(self.labels)


def family(atoms: Iterable[tuple[Hashable, float, DiscreteMeasure]]) -> ConditionalFamily:
    """The family of (label, probability, measure) triples: the measures'
    points and weights concatenated in order, their floats kept."""
    labels, probs, laws = list(zip(*atoms)) or [(), (), ()]
    if len({mu.dim for mu in laws}) > 1:
        raise DimensionMismatchError(f"atoms have mixed dimensions {[mu.dim for mu in laws]}")
    return ConditionalFamily(labels, probs, np.cumsum([0] + [mu.n for mu in laws]),
                             np.concatenate([mu.support for mu in laws] or [np.empty((0, 1))]),
                             np.concatenate([mu.weights for mu in laws] or [np.empty(0)]))


def mixture(fam: ConditionalFamily) -> DiscreteMeasure:
    """The marginal law: the flat supports with weights scaled by p_a."""
    p = np.repeat(fam.probabilities, np.diff(fam.starts))
    return DiscreteMeasure(fam.support, p * fam.weights)


def _label_codes(groups) -> tuple[dict, np.ndarray]:
    """Each distinct label numbered in first-appearance order (labels
    compare as dict keys do), and every row's label number."""
    index = dict(zip(dict.fromkeys(groups), range(len(groups))))
    return index, np.fromiter(map(index.__getitem__, groups), dtype=np.intp, count=len(groups))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ingested sample rows: group label, point x, weight, optional u.

    Weights must be strictly positive with a finite total, also once
    they are renormalized to sum 1 on load.  If any row carries a uniform
    draw u, every row must, and each u must lie in [0, 1].  x, weights and
    u must be finite.  Row order is significant: within a group, the i-th
    row is paired with the i-th support point of the estimated conditional
    law, which is what makes duplicate x values unambiguous.
    """

    groups: tuple
    x: np.ndarray
    weights: np.ndarray
    u: np.ndarray | None = None
    _index: dict = field(init=False, repr=False)  # label -> group number
    _grouping: tuple = field(init=False, repr=False)  # see grouped_rows

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
        total = _total_weight(w)
        normalized = w / total
        if np.any(normalized <= 0.0):
            i = int(np.argmax(normalized <= 0.0))
            raise NegativeWeightError(
                f"the weight {float(w[i])!r} of a row of group {groups[i]!r} underflows to 0 "
                f"when divided by the weights' total {total!r}; rescale the weights")
        u = self.u
        if u is not None:
            u = _finite("u", u).ravel()
            if len(u) != len(groups):
                raise DimensionMismatchError("u column length differs from row count")
            if np.any(u < 0.0) or np.any(u > 1.0):
                raise UOutOfRangeError("u values must lie in [0, 1]")
            u = _freeze(u)
        index, codes = _label_codes(groups)
        flat = _freeze(np.argsort(codes, kind="stable"))
        indptr = _freeze(np.concatenate(([0], np.cumsum(np.bincount(codes)))))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_grouping", (flat, indptr))
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "weights", _freeze(normalized))
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
        return tuple(self._index)

    def group_rows(self, label) -> np.ndarray:
        """Row positions of one group, in dataset order (read-only)."""
        a = self._index[label]
        rows, indptr = self._grouping
        return rows[indptr[a]:indptr[a + 1]]

    def grouped_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row position grouped by label, and the groups' bounds:
        ``labels[a]`` holds ``rows[indptr[a]:indptr[a + 1]]``, in dataset
        order (both read-only)."""
        return self._grouping

    def mean_x(self) -> np.ndarray:
        return mean(DiscreteMeasure._of_checked(self.x, self.weights))


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

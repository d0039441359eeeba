"""Reference group-bys for tests: one loop over the rows each.

The package groups rows by integer label codes summed with
``np.bincount``.  These are the per-row loops and ``np.add.at`` it
replaced, kept to check that the codes give the same rows, the same
dict order and the same floats.
"""
from itertools import chain

import numpy as np

from otrepair.errors import UnknownSupportPointError
from otrepair.measure import DiscreteMeasure


def grouping(groups) -> tuple[dict, np.ndarray, np.ndarray]:
    """(label -> group number in first-appearance order, every row grouped
    by label in dataset order, the groups' bounds), as a dict of lists."""
    rows: dict = {}
    for i, g in enumerate(groups):
        rows.setdefault(g, []).append(i)
    flat = np.fromiter(chain(*rows.values()), dtype=int, count=len(groups))
    indptr = np.cumsum([0, *map(len, rows.values())])
    return dict(zip(rows, range(len(rows)))), flat, indptr


def coalesce(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Exactly-equal support points merged in lexicographic order, each
    duplicate group's weights summed in ascending order by ``np.add.at``."""
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


def independence_tv(output, nu0: DiscreteMeasure) -> dict:
    """Per-group total variation between the sampled law of y and nu0,
    each group's law and mass added up row by row in dicts."""
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

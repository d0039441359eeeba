"""otrepair: remove group-driven bias from samples, optimally in L2.

Given samples of an m-dimensional variable and a finite grouping, the
package computes the closest variable (in squared L2) that is
independent of the grouping, by estimating per-group conditional laws,
taking their Wasserstein-2 barycenter, and realizing the repaired
variable through optimal couplings and an inverse-CDF sampler.
"""

from .measure import (
    ConditionalAtom,
    ConditionalFamily,
    Dataset,
    DiscreteMeasure,
    coalesce,
    dataset_from_rows,
    dirac,
    family,
    make_measure,
    mean,
    mixture,
)
from .ot import (
    Coupling,
    OtSolution,
    solve_comonotone_1d,
    solve_entropic,
    solve_exact,
)
from .barycenter import BarycenterResult, default_support, solve_barycenter
from .approx import (
    Disintegration,
    IndependentApproximation,
    SampledOutput,
    build,
    estimate_conditionals,
    lower_bound,
    sample_y,
    transform,
)
from .special_binary import (
    BinaryInstance,
    BinarySolution,
    brute_force,
    solve_half,
    solve_nonhalf,
)
from .diagnostics import Report, empirical_distance, independence_tv, verify

__version__ = "0.1.0"

"""Exception hierarchy shared by all modules.

Every library error derives from :class:`OtRepairError` so callers can
catch broadly; most also derive from a matching builtin so the types
behave naturally in generic code.  Each class carries the process exit
code the command-line front end returns for it in ``exit_code``: 3 for
bad input data (the default), 4 for the :class:`SolverFailureError`
family and 5 for the :class:`ConfigConflictError` family.
"""

# documented exit codes (see ``otrepair --help``)
EXIT_IO = 2
EXIT_SCHEMA = 3
EXIT_SOLVER = 4
EXIT_CONFIG = 5


class OtRepairError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_SCHEMA


class ConfigConflictError(OtRepairError, ValueError):
    """An option value is invalid or conflicts with the data (e.g. epsilon <= 0)."""

    exit_code = EXIT_CONFIG


# ---------------------------------------------------------------------------
# measure construction and dataset ingestion
# ---------------------------------------------------------------------------

class EmptySupportError(OtRepairError, ValueError):
    """A measure was given no support points."""


class NegativeWeightError(OtRepairError, ValueError):
    """A weight that must be nonnegative (or positive) is not."""


class WeightSumError(OtRepairError, ValueError):
    """Weights do not total an acceptable mass."""


class DimensionMismatchError(OtRepairError, ValueError):
    """Points, measures or supports disagree on dimension or length."""


class DimensionNotOneError(DimensionMismatchError, ConfigConflictError):
    """A one-dimensional method was called on multi-dimensional data."""


class EmptyDatasetError(OtRepairError, ValueError):
    """A dataset with no rows was supplied."""


class NonFiniteValueError(OtRepairError, ValueError):
    """A point, weight or u value is nan or infinite, or a squared
    distance between points overflows."""


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

class SolverFailureError(OtRepairError, RuntimeError):
    """A solver reported failure or broke an invariant it guarantees.

    HiGHS solves feasible, bounded transport and barycenter LPs here, so
    a failed status should never occur; it exists as a defensive check.
    """

    exit_code = EXIT_SOLVER


class NumericalUnderflowError(SolverFailureError, FloatingPointError):
    """The entropic solver produced non-finite values (epsilon too small)."""


class SupportDimensionMismatchError(DimensionMismatchError):
    """A fixed support grid does not match the family's dimension."""


# ---------------------------------------------------------------------------
# approximation pipeline
# ---------------------------------------------------------------------------

class DatasetMismatchError(OtRepairError, ValueError):
    """The dataset does not match the one the approximation was built from."""


class UnknownGroupError(DatasetMismatchError, KeyError):
    """A group label was not present when the approximation was built."""


class IndexOutOfRangeError(OtRepairError, IndexError):
    """A source index is outside its atom's support."""


class UOutOfRangeError(OtRepairError, ValueError):
    """A uniform draw lies outside [0, 1]."""


class UnseenValueError(DatasetMismatchError):
    """A row's x value does not match the atom support it claims to be in."""


class MissingUError(ConfigConflictError):
    """No u column is present and no seed was configured."""


# ---------------------------------------------------------------------------
# binary special case
# ---------------------------------------------------------------------------

class NotHalfError(ConfigConflictError):
    """solve_half requires the independent set to have probability 1/2."""


class HalfNotAllowedError(ConfigConflictError):
    """solve_nonhalf was called with probability exactly 1/2."""


class NegativeComponentError(OtRepairError, ValueError):
    """The components f, g must be nonnegative."""


class TooManyAtomsError(OtRepairError, ValueError):
    """Brute force enumeration is capped at 20 atoms (2^20 subsets)."""


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

class UnknownSupportPointError(OtRepairError, ValueError):
    """A sampled value is not a support point of the reference measure."""


# ---------------------------------------------------------------------------
# CLI / ingestion
# ---------------------------------------------------------------------------

class MissingColumnError(OtRepairError, ValueError):
    """A required CSV column is absent."""


class CsvParseError(OtRepairError, ValueError):
    """A CSV cell failed to parse; carries (row, column) context."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column

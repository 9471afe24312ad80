"""Exception types shared across the package.

Exit-code mapping used by the CLI: ConfigInvalid -> 2, precondition
violations (ValueError and subclasses such as SlopeTooSmall) -> 3,
PrecisionExhausted (more precision needed) -> 4, TolUnreachable and
AmbiguityBudgetExceeded -> 5.
"""


class PrecisionExhausted(RuntimeError):
    """An enclosure grew past the width tolerance.

    ``step`` records the last orbit step that completed, so the step that
    failed is ``step + 1`` (0 when the very first step fails).
    ``last_checkpoint`` (when set by a counting run) carries the last fully
    evaluated checkpoint.
    """

    step = None
    last_checkpoint = None


class BudgetTooLarge(ValueError):
    """A required precision exceeds the configured bit cap."""


class TolUnreachable(ValueError):
    """A fixed tolerance would need a truncation order past the cap."""


class SingularMatrix(ValueError):
    """Integer matrix with zero determinant."""


class SlopeTooSmall(ValueError):
    """Markov construction requires slope modulus strictly greater than 8."""


class PieceCapExceeded(ValueError):
    """An explicit list of pieces would pass its cap: cylinders, preimage
    pieces and the exact mixing series' cell values cylinders.MAX_EXPLICIT,
    a Markov partition's m^2 transition entries markov.MAX_DENSE_ENTRIES."""


class DegenerateF(ValueError):
    """Conditioning set F has measure below the usable floor."""


class OutOfTable(ValueError):
    """Table rate function evaluated past its range with no extension rule."""


class InfiniteCoordinate(ValueError):
    """theta_i requested at a coordinate with t_i = +inf; use unbounded_bounds."""


class UnboundedU(ValueError):
    """Accumulation set has an infinite coordinate; use unbounded_bounds."""


class RateNotVanishing(ValueError):
    """The degenerate-eigenvalue reduction for beta = +-1 needs psi(n) -> 0."""


class AmbiguityBudgetExceeded(RuntimeError):
    """Interval-arithmetic indecision exceeded the ambiguity budget's fraction of hits."""


class StartLawUnsupported(ValueError):
    """Random starts drawn from a law the counting law is not known to hold for."""


class ConfigInvalid(ValueError):
    """Experiment config failed validation; ``field`` is the offending key path."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field

"""Exception hierarchy shared across the pricing engine."""


class PricingError(Exception):
    """Base class for all engine errors."""


class ParameterError(PricingError):
    """A domain value violates its contract (e.g. sigma <= 0, K <= 0).

    ``field`` names the offending input when known, as its dotted path in
    the run config (``payoff.d0``, ``market.sigma``, ``mc.n_paths``), so
    batch callers can map the message back to the config.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class AdmissibilityError(PricingError):
    """A control path violates its admissibility constraints."""


class GridError(PricingError):
    """A solver grid fails a hard precondition (coverage, monotonicity)."""


class NumericalFailure(PricingError):
    """Non-finite values appeared during a sweep.

    ``time_index`` is the backward-sweep slice where the failure was
    first detected.
    """

    def __init__(self, message: str, time_index: int | None = None):
        super().__init__(message)
        self.time_index = time_index


class ExtrapolationError(PricingError):
    """A value-function query fell outside the grid hull."""

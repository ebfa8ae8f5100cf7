"""Exception hierarchy shared across the pricing engine: one class per exit code."""


class PricingError(Exception):
    """Base class for all engine errors."""


class ParameterError(PricingError):
    """An input violates its contract (e.g. sigma <= 0, K <= 0); exit 2.

    ``field`` names the offending input: its dotted path in the run config
    (``payoff.d0``, ``market.sigma``, ``mc.n_paths``), or its argument path
    for inputs that only the Python API takes (``grid.z_nodes``,
    ``u_values``), so batch callers can map the message back to the input.
    """

    def __init__(self, message: str, field: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class NumericalFailure(PricingError):
    """The scheme failed on valid inputs (non-finite values, a diverging
    ladder); exit 3.

    ``time_index`` is the backward-sweep slice where the failure was
    first detected.
    """

    def __init__(self, message: str, time_index: int | None = None):
        super().__init__(message)
        self.time_index = time_index

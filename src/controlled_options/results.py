"""Price estimates with method metadata.

Every pricing route (grid solver, quadrature, Monte Carlo) returns the
same record so cross-method comparisons and reports are uniform.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import ParameterError

METHODS = ("closed_form", "monte_carlo", "hjb")


@dataclass(frozen=True)
class PriceEstimate:
    """A price with its provenance.

    ``stderr`` is a one-sigma statistical error; deterministic methods
    report 0.  ``meta`` carries whatever the method needs for
    reproducibility (seed, grid shape, epsilon ladder, ...).
    """

    value: float
    stderr: float
    method: str
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}", field="method")
        if not self.stderr >= 0.0:
            raise ParameterError("stderr must be >= 0", field="stderr")
        if self.method == "monte_carlo" and not self.stderr > 0.0:
            raise ParameterError("monte_carlo estimates must carry stderr > 0", field="stderr")

"""Error taxonomy and search budgets.

Every error raised on purpose by this package derives from RidgelineError, so
callers can catch one type. Search-shaped operations (shelling and linear
quotients, the chordality minor chase, clique partitions, induced stars, the
max-disjoint triangle count, realizability) count the states they expand
against a budget and raise BudgetExceeded instead of running away. The budget
resolves, in order: explicit argument, the FRL_BUDGET environment variable,
the package default.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 1_000_000
BUDGET_ENV_VAR = "FRL_BUDGET"


class RidgelineError(Exception):
    """Base class for errors raised by this package."""


class EmptyInput(RidgelineError):
    """A construction received no usable faces."""


class OutOfAmbient(RidgelineError):
    """A face uses vertices outside the declared ambient set."""


class OverlappingAmbients(RidgelineError):
    """A join requires disjoint ambient vertex sets."""


class DegenerateComplement(RidgelineError):
    """Complementing a facet equal to the ambient would create an empty facet."""


class DegenerateDual(RidgelineError):
    """The dual complex carries no faces, so the requested reduction is undefined."""


class UnknownVertex(RidgelineError):
    """The vertex is not in the ambient set."""


class NotPure(RidgelineError):
    """The operation is defined only for pure complexes."""


class DimensionTooSmall(RidgelineError):
    """The operation needs facets of size at least 2."""


class BadParameters(RidgelineError):
    """Arguments are outside the documented domain."""


class BudgetExceeded(RidgelineError):
    """A bounded search ran out of its node budget."""


class ParseError(RidgelineError):
    """Malformed complex file or report input."""


class UnknownTheorem(RidgelineError):
    """The verification registry has no such theorem id."""


def search_budget(override: int | None = None) -> int:
    """Resolve the step budget for a bounded search."""
    if override is not None:
        if isinstance(override, bool) or not isinstance(override, int) or override <= 0:
            raise BadParameters("budget must be a positive integer")
        return override
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise BadParameters(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
        if value <= 0:
            raise BadParameters(f"{BUDGET_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_BUDGET


class Budget:
    """Step counter that raises BudgetExceeded past its limit."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit = search_budget(limit)
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded(f"search budget of {self.limit} steps exhausted")

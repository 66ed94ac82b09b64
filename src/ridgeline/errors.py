"""Error taxonomy and search budgets.

Every error raised on purpose by this package derives from RidgelineError, so
callers can catch one type. Search-shaped operations (shelling and linear
quotients, the chordality minor chase, clique partitions, induced stars, the
max-disjoint triangle count, realizability) count the states they expand
against a budget and raise BudgetExceeded instead of running away. The budget
is the caller's argument, else DEFAULT_BUDGET.
"""

from __future__ import annotations

DEFAULT_BUDGET = 1_000_000


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

"""The enumeration budget: a cap on the items any one loop may walk.

Every enumerating loop charges the count it is about to walk, from ring
tables up, before it builds anything; past the cap it raises
BudgetExceeded instead of grinding.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 1 << 26


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget."""


def enumeration_budget() -> int:
    """Current enumeration budget; the JF_BUDGET env var overrides it."""
    raw = os.environ.get("JF_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"JF_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("JF_BUDGET must be positive")
    return value


def check_budget(count: int, what: str, power: int = 1) -> None:
    """Raise BudgetExceeded when an operation would enumerate count ** power
    items.  Past the budget, a number too long for str (4300 digits) is
    written as a power of two at or below it; so is count ** power, never
    built, once that bound alone passes the budget's bit length by 2^16."""
    budget = enumeration_budget()
    low = power * (count.bit_length() - 1)
    if low > budget.bit_length() + (1 << 16):
        text = f"at least 2^{low}"
    else:
        count **= power
        if count <= budget:
            return
        try:
            text = str(count)
        except ValueError:
            text = f"at least 2^{count.bit_length() - 1}"
    raise BudgetExceeded(f"{text} {what} exceed the budget {budget}")

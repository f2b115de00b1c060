"""Runtime limits, adjustable from the CLI."""

from __future__ import annotations

from contextlib import contextmanager

from .records import record, replace


@record()
class Limits:
    max_order: int = 512        # largest group any operation will accept
    subgroup_budget: int = 20000  # hard cap on enumerated subgroups per group
    prime_horizon: int = 128    # materialized positions for the pairing codec


limits = Limits()


@contextmanager
def overridden_limits(**changes):
    """Set fields of the process-wide `limits` for the duration of a block;
    a field given as None keeps its current value."""
    saved = replace(limits)
    changes = {name: value for name, value in changes.items() if value is not None}
    vars(limits).update(vars(replace(limits, **changes)))
    try:
        yield limits
    finally:
        vars(limits).update(vars(saved))

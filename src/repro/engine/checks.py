"""Config validation shared by the engine's and the fleet's dataclasses."""

from __future__ import annotations

import math

__all__ = ["check_range"]


def check_range(
    name: str,
    value: float,
    low: float,
    high: float = math.inf,
    *,
    open_low: bool = False,
) -> None:
    """Reject a config value outside ``[low, high]`` (``(low, high]``
    with ``open_low``), or one that is not finite.

    The test is one positive condition, so NaN (which fails every
    comparison) and ±inf are rejected by construction, whatever the
    bounds.  Raises a ``ValueError`` that names the field.
    """
    if not (
        math.isfinite(value)
        and (value > low if open_low else value >= low)
        and value <= high
    ):
        interval = (
            f"{'(' if open_low else '['}{low:g}, {high:g}"
            f"{')' if high == math.inf else ']'}"
        )
        raise ValueError(
            f"{name} must be finite and in {interval}, got {value!r}"
        )

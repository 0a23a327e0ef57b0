"""Config validation shared by the engine's and the fleet's dataclasses."""

from __future__ import annotations

import math
import numbers

__all__ = ["check_int", "check_range"]


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
    bounds, and so is an int too large for a float.  Raises a
    ``ValueError`` that names the field.
    """
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not (
        finite
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


def check_int(name: str, value: int, low: float, high: float = math.inf) -> None:
    """:func:`check_range` for a count: also reject a bool or any value
    that is not an integer (``2.5``, and ``2.0`` too), naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    check_range(name, value, low, high)

"""Checks of setting values, so that a bad value fails by name where it is
set, not later as a ``TypeError`` from a comparison or deep in a run."""

from __future__ import annotations

import math
import numbers


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require(name: str, value, ok: bool, what: str) -> None:
    """Raise ``ValueError`` naming the field unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")


def require_int(name: str, value, least: int) -> None:
    require(name, value, is_int(value) and value >= least, f"an integer >= {least}")


def require_real(name: str, value, low: float, high: float = math.inf, *,
                 closed: bool = False) -> None:
    """A finite number above ``low`` (at least ``low`` if ``closed``) and
    at most ``high``."""
    ok = (is_real(value) and math.isfinite(value) and value <= high
          and (value >= low if closed else value > low))
    bound = f"{'>=' if closed else '>'} {low}"
    what = (f"a finite number {bound}" if high == math.inf
            else f"a number {bound} and <= {high}")
    require(name, value, ok, what)


def require_bool(name: str, value) -> None:
    require(name, value, isinstance(value, bool), "true or false")

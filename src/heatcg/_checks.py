"""Scalar checks shared by every public constructor and function."""

import math


def checked_real(value: object, label: str, sign: str = "") -> float:
    """Return value unchanged if it is a finite int or float, never a bool.

    sign "positive" also requires value > 0, "non-negative" value >= 0.
    Ints are not converted, so an int beyond the float range still passes;
    checked_float rejects it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{label} must be a real number, got {type(value).__name__}")
    if (
        (isinstance(value, float) and not math.isfinite(value))
        or (sign == "positive" and value <= 0)
        or (sign == "non-negative" and value < 0)
    ):
        kind = f"finite {sign} real" if sign else "finite real"
        raise ValueError(f"{label} must be a {kind}, got {value!r}")
    return value


def checked_float(value: object, label: str, sign: str = "") -> float:
    """checked_real(value, label, sign) as a float; an int beyond its range is a ValueError."""
    try:
        return float(checked_real(value, label, sign))
    except OverflowError:
        raise ValueError(
            f"{label} must be a finite real, got an int beyond the float range"
        ) from None


def checked_count(value: object, label: str, minimum: int = 0) -> int:
    """Return value unchanged if it is an int, never a bool, of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{label} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{label} must be >= {minimum}, got {value}")
    return value

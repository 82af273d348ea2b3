"""Floating point approximate equality and a small complex number type.

The comparison is relative: two values are considered equal when their
difference does not exceed the larger magnitude scaled by machine epsilon
times a tolerance multiplier. Both binary32 and binary64 arithmetic are
supported; the binary32 path rounds the inputs to single precision and
performs every intermediate step in single precision. numpy supplies that
binary32 arithmetic here; it is not this module's alone, since linalg
keeps every vector and matrix in float64 arrays and runs its kernels in
numpy.

Caveat: when exactly one argument is zero the threshold collapses to
eps * tolerance * |other|, which is smaller than |other| for any sane
tolerance, so the comparison reports unequal. Compare against small
absolute bounds explicitly when a zero baseline is expected. An
alternative based on counting representable neighbors (math.nextafter)
would avoid this but is intentionally not provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from ._checks import checked_real

__all__ = [
    "Precision",
    "FloatCompareSpec",
    "ComplexNumber",
    "approx_eq",
    "complex_add",
]

Real = Union[int, float]


class Precision(Enum):
    """Floating point width used by approx_eq."""

    SINGLE = "single"
    DOUBLE = "double"


# Unit roundoff of each supported width.
_EPSILON = {
    Precision.SINGLE: float(np.finfo(np.float32).eps),  # 2**-23
    Precision.DOUBLE: float(np.finfo(np.float64).eps),  # 2**-52
}


@dataclass(frozen=True)
class FloatCompareSpec:
    """Parameters for approx_eq: tolerance in multiples of machine epsilon."""

    tolerance_multiplier: float = 1.0
    precision_kind: Precision = Precision.DOUBLE

    def __post_init__(self) -> None:
        checked_real(self.tolerance_multiplier, "tolerance_multiplier", "positive")
        if not isinstance(self.precision_kind, Precision):
            raise TypeError(
                f"precision_kind must be a Precision, got {type(self.precision_kind).__name__}"
            )

    @property
    def epsilon(self) -> float:
        """Machine epsilon of the selected precision."""
        return _EPSILON[self.precision_kind]


def _require_float(value: object, label: str) -> float:
    # comparison is not defined for integers or other non-float kinds
    if not isinstance(value, float):
        raise TypeError(f"{label} must be a float, got {type(value).__name__}")
    return checked_real(value, label)


def _approx_eq_single(a: float, b: float, tolerance: float) -> bool:
    # round to binary32 first, then keep every intermediate in binary32;
    # overflow is reported through the ValueError below, not a warning
    with np.errstate(over="ignore"):
        a32 = np.float32(a)
        b32 = np.float32(b)
    if not (np.isfinite(a32) and np.isfinite(b32)):
        raise ValueError(
            f"inputs must stay finite after rounding to single precision: {a!r}, {b!r}"
        )
    difference = np.abs(a32 - b32)
    largest = np.maximum(np.abs(a32), np.abs(b32))
    threshold = largest * np.float32(_EPSILON[Precision.SINGLE]) * np.float32(tolerance)
    return bool(difference <= threshold)


def approx_eq(a: float, b: float, spec: FloatCompareSpec = FloatCompareSpec()) -> bool:
    """Return True when |a - b| <= max(|a|, |b|) * epsilon * tolerance.

    Evaluation order is fixed: the difference first, then the larger
    magnitude, then the scaled-epsilon threshold. Non-finite or non-float
    inputs fail fast.
    """
    a = _require_float(a, "a")
    b = _require_float(b, "b")
    if spec.precision_kind is Precision.SINGLE:
        return _approx_eq_single(a, b, spec.tolerance_multiplier)
    difference = abs(a - b)
    largest = max(abs(a), abs(b))
    return difference <= largest * _EPSILON[Precision.DOUBLE] * spec.tolerance_multiplier


@dataclass(frozen=True)
class ComplexNumber:
    """Immutable complex value with exact componentwise addition."""

    real_part: Real
    imaginary_part: Real

    def __post_init__(self) -> None:
        checked_real(self.real_part, "real_part")
        checked_real(self.imaginary_part, "imaginary_part")

    def __add__(self, other: "ComplexNumber") -> "ComplexNumber":
        if not isinstance(other, ComplexNumber):
            return NotImplemented
        return complex_add(self, other)


def complex_add(c1: ComplexNumber, c2: ComplexNumber) -> ComplexNumber:
    """Componentwise sum; the inputs are left unmodified."""
    if not isinstance(c1, ComplexNumber) or not isinstance(c2, ComplexNumber):
        raise TypeError("complex_add requires two ComplexNumber values")
    return ComplexNumber(
        c1.real_part + c2.real_part,
        c1.imaginary_part + c2.imaginary_part,
    )

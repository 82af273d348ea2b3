"""Floating point approximate equality and a small complex number type.

The comparison is relative: two values are considered equal when their
difference does not exceed the larger magnitude scaled by machine epsilon
times a tolerance multiplier. Both binary32 and binary64 arithmetic are
supported by one rule: the two inputs and the tolerance multiplier are
rounded to the selected precision's numpy float type, and every
intermediate step is performed in that type. numpy supplies that
arithmetic here; it is not this module's alone, since linalg keeps every
vector and matrix in float64 arrays and runs its kernels in numpy. Importing
this module loads no numpy: it loads on the first comparison, or the first
read of an epsilon.

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

from ._checks import checked_float, checked_real

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


# The name of numpy's float type each width rounds to; np.finfo gives its epsilon.
_FLOAT_TYPE = {Precision.SINGLE: "float32", Precision.DOUBLE: "float64"}


@dataclass(frozen=True)
class FloatCompareSpec:
    """Parameters for approx_eq: tolerance in multiples of machine epsilon."""

    tolerance_multiplier: float = 1.0
    precision_kind: Precision = Precision.DOUBLE

    def __post_init__(self) -> None:
        checked_float(self.tolerance_multiplier, "tolerance_multiplier", "positive")
        if not isinstance(self.precision_kind, Precision):
            raise TypeError(
                f"precision_kind must be a Precision, got {type(self.precision_kind).__name__}"
            )

    @property
    def epsilon(self) -> float:
        """Machine epsilon of the selected precision."""
        import numpy as np

        return float(np.finfo(_FLOAT_TYPE[self.precision_kind]).eps)


def _require_float(value: object, label: str) -> float:
    # comparison is not defined for integers or other non-float kinds
    if not isinstance(value, float):
        raise TypeError(f"{label} must be a float, got {type(value).__name__}")
    return checked_real(value, label)


def approx_eq(a: float, b: float, spec: FloatCompareSpec = FloatCompareSpec()) -> bool:
    """Return True when |a - b| <= max(|a|, |b|) * epsilon * tolerance.

    a, b and the tolerance multiplier are rounded to the precision's float
    type, where each must stay finite, and the evaluation order is fixed:
    the difference first, then the larger magnitude, then the scaled-epsilon
    threshold. Non-finite or non-float inputs fail fast.
    """
    import numpy as np

    a = _require_float(a, "a")
    b = _require_float(b, "b")
    kind = getattr(np, _FLOAT_TYPE[spec.precision_kind])
    with np.errstate(over="ignore"):  # an overflow is the ValueError below, or an inf step
        x, y, tolerance = kind(a), kind(b), kind(spec.tolerance_multiplier)
        if not (np.isfinite(x) and np.isfinite(y) and np.isfinite(tolerance)):
            raise ValueError(f"a, b and tolerance_multiplier must stay finite after rounding "
                             f"to {spec.precision_kind.value} precision: "
                             f"{a!r}, {b!r}, {spec.tolerance_multiplier!r}")
        return bool(abs(x - y) <= max(abs(x), abs(y)) * np.finfo(kind).eps * tolerance)


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

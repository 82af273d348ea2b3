"""Minimal dense and sparse linear algebra with pinned accumulation order.

All reductions (dot products, matrix-vector rows) accumulate strictly
left to right in index order, and the sparse matrix-vector product visits
stored entries in increasing column order. Because the orders match, the
dense and compressed-row paths produce bitwise identical results for the
same matrix; several tests and the solver rely on that contract, so do
not "optimize" the loops into library reductions with unspecified order.

Values are immutable: every operation returns a new object and never
mutates its inputs. Preconditions fail fast with a diagnostic naming the
offending dimensions; element access never wraps around (no negative
indexing).

Inputs are checked once, at the public boundary: the Vector, DenseMatrix
and CrsMatrix constructors check every component. Results of internal
arithmetic are floats by construction and carry one non-finite check, so
overflow still raises ValueError; transpose and to_dense check nothing.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Sequence

from ._checks import checked_count, checked_real

__all__ = [
    "Orientation",
    "Vector",
    "DenseMatrix",
    "CrsMatrix",
    "vec_scale",
    "vec_add",
    "vec_sub",
    "dot",
    "l2_norm",
    "mat_scale",
    "matvec",
    "dense_to_crs",
    "crs_matvec",
]


class Orientation(Enum):
    ROW = "row"
    COLUMN = "column"


def _checked_components(values: Iterable[float], context: str) -> tuple[float, ...]:
    out = []
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(
                f"{context}: component {i} must be a real number, got {type(x).__name__}"
            )
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"{context}: component {i} must be finite, got {x!r}")
        out.append(x)
    return tuple(out)


def _checked_index(value: object, limit: int, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{label} must be an integer, got {type(value).__name__}")
    if value < 0 or value >= limit:
        raise IndexError(f"{label} {value} out of range [0, {limit})")
    return value


class Vector:
    """Immutable sequence of binary64 components with an orientation.

    Vectors default to column orientation; transpose() flips the
    orientation without touching the components.
    """

    __slots__ = ("_components", "_orientation")

    def __init__(
        self,
        components: Iterable[float],
        orientation: Orientation = Orientation.COLUMN,
    ) -> None:
        if not isinstance(orientation, Orientation):
            raise TypeError(
                f"orientation must be an Orientation, got {type(orientation).__name__}"
            )
        self._components = _checked_components(components, "Vector")
        self._orientation = orientation

    @classmethod
    def _trusted(cls, components: tuple[float, ...], orientation: Orientation) -> "Vector":
        # components are already checked floats: skip the per-component pass
        self = cls.__new__(cls)
        self._components = components
        self._orientation = orientation
        return self

    @property
    def components(self) -> tuple[float, ...]:
        return self._components

    @property
    def orientation(self) -> Orientation:
        return self._orientation

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self):
        return iter(self._components)

    def __getitem__(self, index: int) -> float:
        return self._components[_checked_index(index, len(self._components), "vector index")]

    def transpose(self) -> "Vector":
        flipped = (
            Orientation.ROW
            if self._orientation is Orientation.COLUMN
            else Orientation.COLUMN
        )
        return Vector._trusted(self._components, flipped)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return (
            self._components == other._components
            and self._orientation is other._orientation
        )

    def __hash__(self) -> int:
        return hash((self._components, self._orientation))

    def __repr__(self) -> str:
        return f"Vector({list(self._components)!r}, {self._orientation})"


class DenseMatrix:
    """Immutable dense matrix stored row-major as a flat tuple."""

    __slots__ = ("_rows", "_cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[float]) -> None:
        self._rows = checked_count(rows, "rows")
        self._cols = checked_count(cols, "cols")
        self._entries = _checked_components(entries, "DenseMatrix")
        expected = self._rows * self._cols
        if len(self._entries) != expected:
            raise ValueError(
                f"DenseMatrix {self._rows}x{self._cols} needs {expected} entries, "
                f"got {len(self._entries)}"
            )

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[float, ...]) -> "DenseMatrix":
        # rows * cols already checked floats: skip the per-component pass
        self = cls.__new__(cls)
        self._rows = rows
        self._cols = cols
        self._entries = entries
        return self

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[float]]) -> "DenseMatrix":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        flat: list[float] = []
        for i, row in enumerate(rows_data):
            if len(row) != cols:
                raise ValueError(
                    f"row {i} has {len(row)} entries, expected {cols} (ragged input)"
                )
            flat.extend(row)
        return cls(rows, cols, flat)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def entries(self) -> tuple[float, ...]:
        return self._entries

    def at(self, row: int, col: int) -> float:
        r = _checked_index(row, self._rows, "row index")
        c = _checked_index(col, self._cols, "column index")
        return self._entries[r * self._cols + c]

    def to_rows(self) -> list[list[float]]:
        return [
            list(self._entries[r * self._cols : (r + 1) * self._cols])
            for r in range(self._rows)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._cols == other._cols
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._entries))

    def __repr__(self) -> str:
        return f"DenseMatrix({self._rows}, {self._cols}, {list(self._entries)!r})"


class CrsMatrix:
    """Compressed row storage: values, column indices, and row offsets.

    Construction validates the full invariant set: offsets start at 0,
    never decrease, and end at len(values); column indices are in range
    and strictly increasing within each row; no stored value is zero.
    """

    __slots__ = ("_rows", "_cols", "_values", "_col_indices", "_row_ptr")

    def __init__(
        self,
        rows: int,
        cols: int,
        values: Iterable[float],
        col_indices: Iterable[int],
        row_ptr: Iterable[int],
    ) -> None:
        self._rows = checked_count(rows, "rows")
        self._cols = checked_count(cols, "cols")
        self._values = _checked_components(values, "CrsMatrix values")
        if 0.0 in self._values:
            k = self._values.index(0.0)
            raise ValueError(f"CrsMatrix must not store zeros: values[{k}] == 0.0")
        self._col_indices = tuple(col_indices)
        if len(self._col_indices) != len(self._values):
            raise ValueError(
                f"col_indices length {len(self._col_indices)} must equal "
                f"values length {len(self._values)}"
            )
        for k, c in enumerate(self._col_indices):
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"col_indices[{k}] must be an integer, got {type(c).__name__}")
            if c < 0 or c >= self._cols:
                raise ValueError(
                    f"col_indices[{k}] == {c} out of range [0, {self._cols})"
                )
        self._row_ptr = tuple(row_ptr)
        if len(self._row_ptr) != self._rows + 1:
            raise ValueError(
                f"row_ptr length {len(self._row_ptr)} must be rows + 1 == {self._rows + 1}"
            )
        for k, p in enumerate(self._row_ptr):
            if isinstance(p, bool) or not isinstance(p, int):
                raise TypeError(f"row_ptr[{k}] must be an integer, got {type(p).__name__}")
        if self._row_ptr[0] != 0:
            raise ValueError(f"row_ptr[0] must be 0, got {self._row_ptr[0]}")
        if self._row_ptr[-1] != len(self._values):
            raise ValueError(
                f"row_ptr[{self._rows}] must equal values length "
                f"{len(self._values)}, got {self._row_ptr[-1]}"
            )
        for k in range(self._rows):
            if self._row_ptr[k] > self._row_ptr[k + 1]:
                raise ValueError(
                    f"row_ptr must be non-decreasing: row_ptr[{k}] == {self._row_ptr[k]} "
                    f"> row_ptr[{k + 1}] == {self._row_ptr[k + 1]}"
                )
            for j in range(self._row_ptr[k] + 1, self._row_ptr[k + 1]):
                if self._col_indices[j - 1] >= self._col_indices[j]:
                    raise ValueError(
                        f"col_indices must be strictly increasing within row {k}: "
                        f"{self._col_indices[j - 1]} then {self._col_indices[j]}"
                    )

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    @property
    def col_indices(self) -> tuple[int, ...]:
        return self._col_indices

    @property
    def row_ptr(self) -> tuple[int, ...]:
        return self._row_ptr

    def nnz(self) -> int:
        return len(self._values)

    def to_dense(self) -> DenseMatrix:
        flat = [0.0] * (self._rows * self._cols)
        for r in range(self._rows):
            for k in range(self._row_ptr[r], self._row_ptr[r + 1]):
                flat[r * self._cols + self._col_indices[k]] = self._values[k]
        return DenseMatrix._trusted(self._rows, self._cols, tuple(flat))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrsMatrix):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._cols == other._cols
            and self._values == other._values
            and self._col_indices == other._col_indices
            and self._row_ptr == other._row_ptr
        )

    def __hash__(self) -> int:
        return hash(
            (self._rows, self._cols, self._values, self._col_indices, self._row_ptr)
        )

    def __repr__(self) -> str:
        return (
            f"CrsMatrix({self._rows}, {self._cols}, {list(self._values)!r}, "
            f"{list(self._col_indices)!r}, {list(self._row_ptr)!r})"
        )


def _arithmetic_result(components: list[float], orientation: Orientation, op: str) -> Vector:
    """Wrap floats computed from checked operands; only overflow can make them non-finite."""
    if not all(map(math.isfinite, components)):
        raise ValueError(f"{op}: the result overflowed to a non-finite value")
    return Vector._trusted(tuple(components), orientation)


def vec_scale(s: float, v: Vector) -> Vector:
    """Scale every component; orientation is preserved."""
    s = float(checked_real(s, "scale factor"))
    return _arithmetic_result([s * x for x in v.components], v.orientation, "vec_scale")


def _require_same_shape(v1: Vector, v2: Vector, op: str) -> None:
    if len(v1) != len(v2):
        raise ValueError(f"{op}: vector lengths must match, got {len(v1)} and {len(v2)}")
    if v1.orientation is not v2.orientation:
        raise ValueError(
            f"{op}: vector orientations must match, got {v1.orientation.value} "
            f"and {v2.orientation.value}"
        )


def vec_add(v1: Vector, v2: Vector) -> Vector:
    _require_same_shape(v1, v2, "vec_add")
    return _arithmetic_result(
        [x + y for x, y in zip(v1.components, v2.components)], v1.orientation, "vec_add"
    )


def vec_sub(v1: Vector, v2: Vector) -> Vector:
    _require_same_shape(v1, v2, "vec_sub")
    return _arithmetic_result(
        [x - y for x, y in zip(v1.components, v2.components)], v1.orientation, "vec_sub"
    )


def dot(v1: Vector, v2: Vector) -> float:
    """Row times column inner product, accumulated left to right."""
    if v1.orientation is not Orientation.ROW:
        raise ValueError(
            f"dot: left operand must be a row vector (transpose it first), "
            f"got {v1.orientation.value}"
        )
    if v2.orientation is not Orientation.COLUMN:
        raise ValueError(
            f"dot: right operand must be a column vector, got {v2.orientation.value}"
        )
    if len(v1) != len(v2):
        raise ValueError(f"dot: vector lengths must match, got {len(v1)} and {len(v2)}")
    acc = 0.0
    for x, y in zip(v1.components, v2.components):
        acc += x * y
    return acc


def l2_norm(v: Vector) -> float:
    """Euclidean norm; bitwise equal to sqrt(dot(v.transpose(), v))."""
    acc = 0.0
    for x in v.components:
        acc += x * x
    return math.sqrt(acc)


def mat_scale(s: float, m: DenseMatrix) -> DenseMatrix:
    """Scale every entry; shape is preserved."""
    s = checked_real(s, "scale factor")
    return DenseMatrix(m.rows, m.cols, [s * x for x in m.entries])


def _require_column_operand(m_cols: int, v: Vector) -> None:
    if v.orientation is not Orientation.COLUMN:
        raise ValueError(
            f"matrix-vector product needs a column vector, got {v.orientation.value}"
        )
    if m_cols != len(v):
        raise ValueError(
            f"number of matrix columns must be equal to length of column vector: "
            f"{m_cols} columns, vector length {len(v)}"
        )


def matvec(m: DenseMatrix, v: Vector) -> Vector:
    """Dense matrix times column vector, rows accumulated in column order."""
    _require_column_operand(m.cols, v)
    comps = v.components
    entries = m.entries
    cols = m.cols
    out = []
    for row in range(m.rows):
        base = row * cols
        acc = 0.0
        for col in range(cols):
            acc += entries[base + col] * comps[col]
        out.append(acc)
    return _arithmetic_result(out, Orientation.COLUMN, "matvec")


def dense_to_crs(m: DenseMatrix) -> CrsMatrix:
    """Compress a dense matrix, dropping entries that are exactly zero."""
    values: list[float] = []
    col_indices: list[int] = []
    row_ptr = [0]
    entries = m.entries
    cols = m.cols
    for row in range(m.rows):
        base = row * cols
        for col in range(cols):
            x = entries[base + col]
            if x != 0.0:
                values.append(x)
                col_indices.append(col)
        row_ptr.append(len(values))
    return CrsMatrix(m.rows, m.cols, values, col_indices, row_ptr)


def crs_matvec(m: CrsMatrix, v: Vector) -> Vector:
    """Sparse matrix times column vector; bitwise equal to the dense path.

    Stored entries are visited in increasing column order, the same order
    the dense kernel uses, and skipping exact zeros cannot change any
    partial sum, so results match matvec(m.to_dense(), v) bit for bit.
    """
    _require_column_operand(m.cols, v)
    comps = v.components
    values = m.values
    col_indices = m.col_indices
    row_ptr = m.row_ptr
    out = []
    for row in range(m.rows):
        acc = 0.0
        for k in range(row_ptr[row], row_ptr[row + 1]):
            acc += values[k] * comps[col_indices[k]]
        out.append(acc)
    return _arithmetic_result(out, Orientation.COLUMN, "crs_matvec")

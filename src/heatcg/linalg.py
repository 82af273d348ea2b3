"""Minimal dense and sparse linear algebra with pinned accumulation order.

Vectors and matrices keep their components in numpy float64 arrays, and
every kernel is a numpy expression whose summation order is pinned:

- Elementwise +, - and * are exact per element, so vec_scale, vec_add
  and vec_sub cannot depend on any order.
- Every reduction (dot, l2_norm, a row of the dense product) is a running
  sum, np.cumsum(terms)[-1] + 0.0. cumsum is add.accumulate: each prefix
  is an output, formed from the previous one, so the terms are added left
  to right in index order. The "+ 0.0" reproduces a loop that starts at
  +0.0: cumsum([-0.0, -0.0])[-1] is -0.0 where the loop gives 0.0, and
  adding +0.0 changes no other value.
- The sparse product sweeps position k of every row at once,
  acc[rows_k] += vals_k * x[cols_k], so each row adds its stored entries
  in increasing column order to an accumulator that starts at +0.0.

A partial sum that starts at +0.0 never becomes -0.0 under round to
nearest, so adding the 0.0 * x terms a sparse row skips cannot change it:
the dense and compressed-row paths produce bitwise identical results for
the same matrix. Several tests and the solver rely on that contract, so
np.dot, np.sum, add.reduce and the @ operator stay banned: their order is
unspecified (pairwise, blocked or BLAS), and np.dot disagrees with the
left-to-right loop on most random vectors. cumsum's order is an
implementation property rather than a documented numpy guarantee; a test
pins it against a pure-Python loop on the installed numpy.

Values are immutable: every operation returns a new object and never
mutates its inputs. Preconditions fail fast with a diagnostic naming the
offending dimensions; element access never wraps around (no negative
indexing).

Inputs are checked once, at the public boundary: the Vector, DenseMatrix
and CrsMatrix constructors check every component. Results of internal
arithmetic carry one non-finite check, so overflow still raises
ValueError, and numpy's floating-point warnings are silenced inside the
kernels so that the ValueError is the only report; transpose and to_dense
check nothing.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

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

# Kernels run under this decorator: overflow becomes inf (and inf - inf nan)
# without a RuntimeWarning, and the result's non-finite check reports it.
_quiet = np.errstate(over="ignore", invalid="ignore")


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

    # _array holds the components; _tuple is the checked tuple a public
    # constructor built, or None for results of arithmetic, whose components
    # are converted on each read: a kept tuple of float objects would cost
    # 32 bytes a component on top of the array's 8, and callers keep results.
    __slots__ = ("_array", "_tuple", "_orientation")

    def __init__(
        self,
        components: Iterable[float],
        orientation: Orientation = Orientation.COLUMN,
    ) -> None:
        if not isinstance(orientation, Orientation):
            raise TypeError(
                f"orientation must be an Orientation, got {type(orientation).__name__}"
            )
        self._tuple = _checked_components(components, "Vector")
        self._array = np.array(self._tuple, dtype=np.float64)
        self._orientation = orientation

    @classmethod
    def _trusted(
        cls,
        array: np.ndarray,
        orientation: Orientation,
        components: Optional[tuple[float, ...]] = None,
    ) -> "Vector":
        # array holds finite float64 values no caller can reach: skip the checks
        self = cls.__new__(cls)
        self._array = array
        self._tuple = components
        self._orientation = orientation
        return self

    @property
    def components(self) -> tuple[float, ...]:
        if self._tuple is None:
            return tuple(self._array.tolist())
        return self._tuple

    @property
    def orientation(self) -> Orientation:
        return self._orientation

    def __len__(self) -> int:
        return len(self._array)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, index: int) -> float:
        return self._array.item(_checked_index(index, len(self._array), "vector index"))

    def transpose(self) -> "Vector":
        flipped = (
            Orientation.ROW
            if self._orientation is Orientation.COLUMN
            else Orientation.COLUMN
        )
        return Vector._trusted(self._array, flipped, self._tuple)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return (
            np.array_equal(self._array, other._array)
            and self._orientation is other._orientation
        )

    def __hash__(self) -> int:
        return hash((self.components, self._orientation))

    def __repr__(self) -> str:
        return f"Vector({list(self.components)!r}, {self._orientation})"


class DenseMatrix:
    """Immutable dense matrix, a rows x cols float64 array read row-major."""

    # _entries is the checked tuple a public constructor built, or None for a
    # matrix derived by to_dense, whose entries are converted on each read.
    __slots__ = ("_rows", "_cols", "_entries", "_grid")

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
        self._grid = np.array(self._entries, dtype=np.float64).reshape(self._rows, self._cols)

    @classmethod
    def _trusted(cls, rows: int, cols: int, grid: np.ndarray) -> "DenseMatrix":
        # grid holds rows x cols finite float64 values: skip the per-component pass
        self = cls.__new__(cls)
        self._rows = rows
        self._cols = cols
        self._entries = None
        self._grid = grid
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
        if self._entries is None:
            return tuple(self._grid.ravel().tolist())
        return self._entries

    def at(self, row: int, col: int) -> float:
        r = _checked_index(row, self._rows, "row index")
        c = _checked_index(col, self._cols, "column index")
        return self._grid.item(r, c)

    def to_rows(self) -> list[list[float]]:
        return self._grid.tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._cols == other._cols
            and np.array_equal(self._grid, other._grid)
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self.entries))

    def __repr__(self) -> str:
        return f"DenseMatrix({self._rows}, {self._cols}, {list(self.entries)!r})"


class CrsMatrix:
    """Compressed row storage: values, column indices, and row offsets.

    Construction validates the full invariant set: offsets start at 0,
    never decrease, and end at len(values); column indices are in range
    and strictly increasing within each row; no stored value is zero.
    """

    __slots__ = ("_rows", "_cols", "_values", "_col_indices", "_row_ptr", "_sweep")

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
        self._sweep = _position_sweep(self._values, self._col_indices, self._row_ptr)

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
        grid = np.zeros((self._rows, self._cols))
        rows = np.repeat(np.arange(self._rows), np.diff(self._row_ptr))
        grid[rows, np.array(self._col_indices, dtype=np.intp)] = self._values
        return DenseMatrix._trusted(self._rows, self._cols, grid)

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


def _position_sweep(
    values: tuple[float, ...], col_indices: tuple[int, ...], row_ptr: tuple[int, ...]
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per stored position k: the rows with more than k entries, and their k-th value and column.

    Together the positions hold each stored entry once, so the sweep takes
    O(nnz) memory; one product costs one numpy pass per position, that is,
    per entry of the longest row.
    """
    ptr = np.array(row_ptr, dtype=np.intp)
    lengths = np.diff(ptr)
    all_values = np.array(values, dtype=np.float64)
    all_cols = np.array(col_indices, dtype=np.intp)
    sweep = []
    for k in range(int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > k)
        at = ptr[rows] + k
        sweep.append((rows, all_values[at], all_cols[at]))
    return tuple(sweep)


def _arithmetic_result(array: np.ndarray, orientation: Orientation, op: str) -> Vector:
    """Wrap values computed from checked operands; only overflow can make them non-finite."""
    if not np.isfinite(array).all():
        raise ValueError(f"{op}: the result overflowed to a non-finite value")
    return Vector._trusted(array, orientation)


def _running_sum(terms: np.ndarray) -> float:
    """Left-to-right sum from +0.0; bitwise `acc = 0.0; for t in terms: acc += t`."""
    if not len(terms):
        return 0.0
    return float(np.cumsum(terms)[-1]) + 0.0


@_quiet
def vec_scale(s: float, v: Vector) -> Vector:
    """Scale every component; orientation is preserved."""
    s = float(checked_real(s, "scale factor"))
    return _arithmetic_result(s * v._array, v.orientation, "vec_scale")


def _require_same_shape(v1: Vector, v2: Vector, op: str) -> None:
    if len(v1) != len(v2):
        raise ValueError(f"{op}: vector lengths must match, got {len(v1)} and {len(v2)}")
    if v1.orientation is not v2.orientation:
        raise ValueError(
            f"{op}: vector orientations must match, got {v1.orientation.value} "
            f"and {v2.orientation.value}"
        )


@_quiet
def vec_add(v1: Vector, v2: Vector) -> Vector:
    _require_same_shape(v1, v2, "vec_add")
    return _arithmetic_result(v1._array + v2._array, v1.orientation, "vec_add")


@_quiet
def vec_sub(v1: Vector, v2: Vector) -> Vector:
    _require_same_shape(v1, v2, "vec_sub")
    return _arithmetic_result(v1._array - v2._array, v1.orientation, "vec_sub")


@_quiet
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
    return _running_sum(v1._array * v2._array)


@_quiet
def l2_norm(v: Vector) -> float:
    """Euclidean norm; bitwise equal to sqrt(dot(v.transpose(), v))."""
    return math.sqrt(_running_sum(v._array * v._array))


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


@_quiet
def matvec(m: DenseMatrix, v: Vector) -> Vector:
    """Dense matrix times column vector, rows accumulated in column order."""
    _require_column_operand(m.cols, v)
    if m.cols:
        terms = m._grid * v._array
        # in place: a second rows x cols buffer roughly doubles the time at N = 200
        np.cumsum(terms, axis=1, out=terms)
        out = terms[:, -1] + 0.0
    else:
        out = np.zeros(m.rows)
    return _arithmetic_result(out, Orientation.COLUMN, "matvec")


def dense_to_crs(m: DenseMatrix) -> CrsMatrix:
    """Compress a dense matrix, dropping entries that are exactly zero."""
    rows, cols = np.nonzero(m._grid)  # row-major order; -0.0 counts as zero
    row_ptr = np.zeros(m.rows + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(m._grid, axis=1), out=row_ptr[1:])
    return CrsMatrix(
        m.rows, m.cols, m._grid[rows, cols].tolist(), cols.tolist(), row_ptr.tolist()
    )


@_quiet
def crs_matvec(m: CrsMatrix, v: Vector) -> Vector:
    """Sparse matrix times column vector; bitwise equal to the dense path.

    Each row adds its stored entries in increasing column order, the order
    the dense kernel uses, and skipping exact zeros cannot change any
    partial sum, so results match matvec(m.to_dense(), v) bit for bit.
    """
    _require_column_operand(m.cols, v)
    x = v._array
    acc = np.zeros(m.rows)
    for rows, values, cols in m._sweep:
        acc[rows] += values * x[cols]
    return _arithmetic_result(acc, Orientation.COLUMN, "crs_matvec")

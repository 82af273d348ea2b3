"""Minimal dense and sparse linear algebra with pinned accumulation order.

Vectors and matrices keep their components in numpy arrays. A matrix
keeps nothing else: a DenseMatrix holds one float64 grid, a CrsMatrix
float64 values and intp column indices and row offsets, and accessors
such as DenseMatrix.entries and CrsMatrix.values convert them on each
read into tuples of plain Python floats and ints. Every kernel is a numpy
expression whose summation order is pinned:

- Elementwise +, - and * are exact per element, so vec_scale, vec_add
  and vec_sub cannot depend on any order.
- Every reduction of one vector (dot, l2_norm) is a running sum,
  np.vdot(terms, ones), ones a read-only zero-stride view of 1.0. A zero
  stride fails numpy's BLAS check, so vdot runs its plain C loop, sum =
  0; sum += t * 1.0, in index order, writing no array; t * 1.0 is exact,
  fused or not.
- The dense product (_dense_kernel) of a dense view made by
  CrsMatrix.to_dense runs the sparse product below on that CrsMatrix's
  passes when they cost less than the grid, as the heat matrix's do from
  N = 95: to_dense decides once, in O(rows), from the row lengths. Any
  other matrix runs the grid product (_grid_kernel): np.multiply into a
  terms buffer, then an outer-axis np.add.reduce that adds each column j
  into every row's lane in turn from +0.0. A single row is a running sum.
- The sparse product (_crs_kernel) runs passes acc[rows] += vals *
  x[cols], each holding at most one entry per row, in an order that adds
  each row's stored entries in increasing column order from +0.0.

A partial sum that starts at +0.0 never becomes -0.0 under round to
nearest, so adding the 0.0 * x terms a sparse row skips cannot change it:
the dense and compressed-row paths produce bitwise identical results for
the same matrix, and a DenseMatrix may run either form. Several tests
and the solver rely on that contract, so np.sum, np.dot, np.matmul,
np.einsum and @ stay banned, and np.vdot is used only as _running_sum's
np.vdot(terms, _ones(len(terms))): np.dot copies a zero-stride operand
into BLAS ddot, whose order differs, and np.vecdot needs numpy 2.0.
add.reduce is allowed only over the outer axis of a C-contiguous array
with at least two lanes: elsewhere its order is unspecified (pairwise,
blocked or BLAS). The orders of that vdot and an outer-axis add.reduce
are numpy implementation properties, not documented guarantees; tests
pin both against a pure-Python loop. vdot is called past numpy's
__array_function__ dispatch (_undispatched): the same C code runs on the
same operands, so the bits cannot change.

Values are immutable: every public operation returns a new object and
never mutates its inputs. Preconditions fail fast with a diagnostic naming
the offending dimensions; element access never wraps around (no negative
indexing).

Inputs are checked once, at the public boundary: the Vector, DenseMatrix
and CrsMatrix constructors hold every component to the real-number rule
of _checks.checked_float, and every public operation holds each operand
to its type through _checks.checked_instance, naming the operation and
the argument ("crs_matvec: m must be a CrsMatrix, got DenseMatrix").
Values heatcg computes itself go through the trusted constructors
instead: Vector._trusted, DenseMatrix._trusted, and CrsMatrix._compressed.
Results of arithmetic (the vector kernels, matvec, crs_matvec, mat_scale,
heat1d's assemble and analytic profile) carry one non-finite check, so
overflow still raises ValueError (see _quiet); transpose, to_dense and
dense_to_crs only rearrange checked values.

linalg alone reads a CrsMatrix's arrays (tests/unit/test_architecture.py
holds every module to that) and owns the operand rules the other modules
share: _entry_rows gives the row of each stored entry,
_require_symmetric_tridiagonal refuses a matrix that is not square,
symmetric and tridiagonal, _require_column a Vector that is not a
column of the expected length, and _require_same_length unequal lengths.

Each operation has one kernel, on arrays and unchecked: _dense_kernel,
_crs_kernel and _running_sum; _dense_kernel binds _crs_kernel or
_grid_kernel, in the form to_dense chose for the matrix. A kernel
writes only into the output (and scratch) arrays its caller gives it or
allocates when it is bound, so the CG loop (cgsolver), which binds its
matrix to its arrays once, allocates nothing per product. The public
functions add the checks and Vectors around the kernels. The CG loop
enters errstate once per call and checks for overflow itself.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ._checks import _eq, _hash, checked_count, checked_float, checked_instance

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
    # a plain finite float passes as it is; the label is built only for any other value
    return tuple([x if type(x) is float and math.isfinite(x)
                  else checked_float(x, f"{context}: component {i}")
                  for i, x in enumerate(values)])


def _checked_index(value: object, limit: int, label: str) -> int:
    # checked_count's integer rule with no lower bound: the range is an IndexError
    if not 0 <= checked_count(value, label, -math.inf) < limit:
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
        self._orientation = checked_instance(orientation, Orientation, "orientation")
        self._tuple = _checked_components(components, "Vector")
        self._array = np.array(self._tuple, dtype=np.float64)

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
    """Immutable dense matrix, a rows x cols float64 array stored column-major, read row-major.

    The product multiplies the grid's transpose, which column-major
    storage makes a C-contiguous cols x rows array; entries, to_rows, at,
    equality, hash and repr read the grid row-major whatever its layout.
    A view made by CrsMatrix.to_dense whose passes cost less than the grid,
    such as the heat matrix from N = 95, multiplies by that CrsMatrix's
    passes instead, with the same bits; any other matrix by the grid.
    """

    # _sparse: the CrsMatrix whose passes the product runs, or None for the grid
    __slots__ = ("_rows", "_cols", "_grid", "_sparse")

    def __init__(self, rows: int, cols: int, entries: Iterable[float]) -> None:
        self._rows = checked_count(rows, "rows")
        self._cols = checked_count(cols, "cols")
        checked = _checked_components(entries, "DenseMatrix")
        expected = self._rows * self._cols
        if len(checked) != expected:
            raise ValueError(
                f"DenseMatrix {self._rows}x{self._cols} needs {expected} entries, "
                f"got {len(checked)}"
            )
        grid = np.array(checked, dtype=np.float64).reshape(self._rows, self._cols)
        self._grid, self._sparse = np.asfortranarray(grid), None

    @classmethod
    def _trusted(cls, rows: int, cols: int, grid: np.ndarray,
                 sparse: Optional["CrsMatrix"] = None) -> "DenseMatrix":
        # grid holds rows x cols finite float64 values: skip the per-component pass;
        # sparse, if given, holds the same matrix
        self = cls.__new__(cls)
        self._rows = rows
        self._cols = cols
        self._grid, self._sparse = grid, sparse
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
        return tuple(self._grid.ravel().tolist())

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

    The three numpy arrays are the storage: values as float64, col_indices
    and row_ptr as intp. The values, col_indices and row_ptr properties
    convert them on each read into tuples of plain floats and ints.

    Construction validates the full invariant set: offsets start at 0,
    never decrease, and end at len(values); column indices are in range
    and strictly increasing within each row; no stored value is zero.
    The product's passes are built on the first product, its own or its
    dense view's (to_dense), and kept: a matrix that is only converted,
    compared, hashed or printed never builds them.
    """

    __slots__ = ("_rows", "_cols", "_values", "_col_indices", "_row_ptr", "_built_passes")

    def __init__(
        self,
        rows: int,
        cols: int,
        values: Iterable[float],
        col_indices: Iterable[int],
        row_ptr: Iterable[int],
    ) -> None:
        rows = checked_count(rows, "rows")
        cols = checked_count(cols, "cols")
        # rows and row_ptr are bounded by the lengths of real sequences, and
        # col_indices by cols: only cols can exceed numpy's index range
        limit = np.iinfo(np.intp).max
        if cols > limit:
            raise ValueError(f"cols == {cols} exceeds numpy's index range [0, {limit}]")
        values = _checked_components(values, "CrsMatrix values")
        if 0.0 in values:
            k = values.index(0.0)
            raise ValueError(f"CrsMatrix must not store zeros: values[{k}] == 0.0")
        col_indices = tuple(col_indices)
        if len(col_indices) != len(values):
            raise ValueError(
                f"col_indices length {len(col_indices)} must equal "
                f"values length {len(values)}"
            )
        for k, c in enumerate(col_indices):
            if checked_count(c, f"col_indices[{k}]") >= cols:
                raise ValueError(f"col_indices[{k}] == {c} out of range [0, {cols})")
        row_ptr = tuple(row_ptr)
        if len(row_ptr) != rows + 1:
            raise ValueError(
                f"row_ptr length {len(row_ptr)} must be rows + 1 == {rows + 1}"
            )
        for k, p in enumerate(row_ptr):
            checked_count(p, f"row_ptr[{k}]")
        if row_ptr[0] != 0:
            raise ValueError(f"row_ptr[0] must be 0, got {row_ptr[0]}")
        if row_ptr[-1] != len(values):
            raise ValueError(
                f"row_ptr[{rows}] must equal values length "
                f"{len(values)}, got {row_ptr[-1]}"
            )
        for k in range(rows):
            if row_ptr[k] > row_ptr[k + 1]:
                raise ValueError(
                    f"row_ptr must be non-decreasing: row_ptr[{k}] == {row_ptr[k]} "
                    f"> row_ptr[{k + 1}] == {row_ptr[k + 1]}"
                )
        for k in range(rows):  # with the offsets checked, each is in [0, len(values)]
            for j in range(row_ptr[k] + 1, row_ptr[k + 1]):
                if col_indices[j - 1] >= col_indices[j]:
                    raise ValueError(
                        f"col_indices must be strictly increasing within row {k}: "
                        f"{col_indices[j - 1]} then {col_indices[j]}"
                    )
        self._assign(
            rows, cols, np.array(values, dtype=np.float64),
            np.array(col_indices, dtype=np.intp), np.array(row_ptr, dtype=np.intp),
        )

    @classmethod
    def _compressed(cls, values: np.ndarray, columns: np.ndarray, cols: int) -> "CrsMatrix":
        # row i stores the nonzero values[i, k] (finite float64; -0.0 counts as zero) at
        # columns[i, k] (intp, in range, increasing along the row); masks read row-major
        stored = values != 0.0
        row_ptr = np.zeros(len(values) + 1, dtype=np.intp)
        np.cumsum(np.count_nonzero(stored, axis=1), out=row_ptr[1:])
        self = cls.__new__(cls)
        self._assign(len(values), cols, values[stored], columns[stored], row_ptr)
        return self

    def _assign(self, rows: int, cols: int, values: np.ndarray,
                col_indices: np.ndarray, row_ptr: np.ndarray) -> None:
        self._rows = rows
        self._cols = cols
        self._values = values
        self._col_indices = col_indices
        self._row_ptr = row_ptr
        self._built_passes = None

    @property
    def _passes(self) -> tuple[tuple, ...]:
        if self._built_passes is None:
            self._built_passes = _product_passes(self._values, self._col_indices, self._row_ptr)
        return self._built_passes

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values.tolist())

    @property
    def col_indices(self) -> tuple[int, ...]:
        return tuple(self._col_indices.tolist())

    @property
    def row_ptr(self) -> tuple[int, ...]:
        return tuple(self._row_ptr.tolist())

    def nnz(self) -> int:
        return len(self._values)

    def to_dense(self) -> DenseMatrix:
        """The dense view, whose product runs this matrix's passes when they cost less than its grid.

        The passes number the longest row's entries (_product_passes), so a
        row with no zero keeps the grid; otherwise they are cheap when
        _PASS_COST * longest < rows * cols. That is decided here from the
        row lengths, in O(rows); the passes are built on the first product.
        Measured with numpy 2.4 on a 2-core x86-64 Xeon, a pass costs
        0.7-1.3 us of numpy calls and the grid product about 1.15 ns an
        entry (N = 200-1000), so a pass is worth about 1000 grid entries:
        _PASS_COST = 3000 is conservative, and keeps the grid for some
        matrices whose passes are faster, such as the heat matrix below
        N = 95. The rule prices no entry of a pass: the heat matrix's three
        passes are sliced and short, and no caller converts a matrix with
        long gathering passes.
        """
        grid = np.zeros((self._rows, self._cols), order="F")
        grid[_entry_rows(self._row_ptr), self._col_indices] = self._values
        longest = int(np.diff(self._row_ptr).max(initial=0))
        cheap = longest < self._cols and _PASS_COST * longest < self._rows * self._cols
        return DenseMatrix._trusted(self._rows, self._cols, grid, self if cheap else None)

    # the fields _checks' shared __eq__ and __hash__ compare and hash, as one tuple
    __match_args__ = ("rows", "cols", "values", "col_indices", "row_ptr")
    __eq__, __hash__ = _eq, _hash

    def __repr__(self) -> str:
        return (
            f"CrsMatrix({self._rows}, {self._cols}, {self._values.tolist()!r}, "
            f"{self._col_indices.tolist()!r}, {self._row_ptr.tolist()!r})"
        )


def _entry_rows(row_ptr: np.ndarray) -> np.ndarray:
    """The row of each stored entry, in storage order: row i, row_ptr[i+1] - row_ptr[i] times."""
    return np.repeat(np.arange(len(row_ptr) - 1), np.diff(row_ptr))


def _require_symmetric_tridiagonal(m: CrsMatrix) -> None:
    """Refuse m unless it is square, symmetric and tridiagonal, naming its first fault.

    A matrix that is not square is named by its shape; then an entry off the
    three central diagonals, the first in row order; then the first (i, i+1)
    that differs from (i+1, i), an absent entry counting as 0.0. O(nnz)
    time, O(rows) memory.
    """
    if m.rows != m.cols:
        raise ValueError(f"matrix must be square, got {m.rows}x{m.cols}")
    values, cols = m._values, m._col_indices
    rows = _entry_rows(m._row_ptr)
    offset = cols - rows
    off_band = np.flatnonzero(np.abs(offset) > 1)
    if off_band.size:
        k = off_band[0]
        raise ValueError(
            f"matrix must be tridiagonal: nonzero {values.item(k)!r} "
            f"at ({rows.item(k)},{cols.item(k)})"
        )
    # upper[i] is (i, i+1) and lower[i] is (i+1, i): a bin holds at most one
    # entry and 0.0 + v is v, so each is the stored value or 0 (int zeros when
    # no entry lands, which float() turns into the message's 0.0)
    upper = np.bincount(rows[offset == 1], values[offset == 1], m.rows)
    lower = np.bincount(cols[offset == -1], values[offset == -1], m.rows)
    asymmetric = np.flatnonzero(upper != lower)
    if asymmetric.size:
        i = int(asymmetric[0])
        raise ValueError(
            f"matrix must be symmetric: ({i},{i + 1}) == {float(upper[i])!r} "
            f"but ({i + 1},{i}) == {float(lower[i])!r}"
        )


def _product_passes(
    values: np.ndarray, col_indices: np.ndarray, row_ptr: np.ndarray
) -> tuple[tuple, ...]:
    """The (rows, values, cols) passes of the sparse product, built on a matrix's first product.

    One rule groups the entries by a key: the diagonal offset col - row,
    or, when there are more diagonals than entries in the longest row (a
    general pattern can have rows + cols - 1), the position k in the row,
    which keeps the pass count at the longest row's: numpy's cost per pass
    dominates below a few hundred entries. A group holds at most one entry
    per row and the groups run in increasing key order, so every row adds
    its entries in increasing column order. A group on contiguous rows and
    one diagonal indexes by slices, so the heat matrix runs as 3 sliced
    passes. O(nnz) memory, none sized by cols or by the offset range.
    """
    if not len(values):
        return ()
    rows = _entry_rows(row_ptr)
    offsets = col_indices - rows
    for by_position in (False, True):
        key = np.arange(len(values)) - row_ptr[rows] if by_position else offsets
        order = np.argsort(key, kind="stable")  # stable: rows stay increasing
        bounds = np.flatnonzero(np.diff(key[order])) + 1
        if len(bounds) < np.diff(row_ptr).max():  # the longest row's length
            break
    passes = []
    for group in np.split(order, bounds):
        first, last, offset = int(rows[group[0]]), int(rows[group[-1]]), int(offsets[group[0]])
        # every group by offset lies on one diagonal; a group by position may
        if last - first == len(group) - 1 and (not by_position or (offsets[group] == offset).all()):
            passes.append((slice(first, last + 1), values[group],
                           slice(first + offset, last + 1 + offset)))
        else:
            passes.append((rows[group], values[group], col_indices[group]))
    return tuple(passes)


def _finite(array: np.ndarray, op: str) -> np.ndarray:
    """Return values computed from checked operands; only overflow makes them non-finite."""
    if not np.isfinite(array).all():
        raise ValueError(f"{op}: the result overflowed to a non-finite value")
    return array


@functools.lru_cache(maxsize=8)  # one view per length: cheaper than slicing a long one
def _ones(n: int) -> np.ndarray:
    return np.broadcast_to(1.0, n)  # read-only, stride 0: vdot keeps it and stays off BLAS


def _undispatched(f: Callable) -> Callable:
    """f without numpy's __array_function__ dispatch (NEP 18), or f if it has none."""
    return getattr(f, "_implementation", f)


_vdot = _undispatched(np.vdot)


def _running_sum(terms: np.ndarray) -> float:
    """Left-to-right sum from +0.0; bitwise `acc = 0.0; for t in terms: acc += t`."""
    return float(_vdot(terms, _ones(len(terms))))  # its plain C loop; writes no array


@_quiet
def vec_scale(s: float, v: Vector) -> Vector:
    """Scale every component; orientation is preserved."""
    array = checked_float(s, "scale factor") * checked_instance(v, Vector, "vec_scale: v")._array
    return Vector._trusted(_finite(array, "vec_scale"), v.orientation)


def _require_same_length(n1: int, n2: int, op: str, what: str = "vector") -> None:
    if n1 != n2:
        raise ValueError(f"{op}: {what} lengths must match, got {n1} and {n2}")


def _require_same_shape(v1: Vector, v2: Vector, op: str) -> None:
    v1, v2 = checked_instance(v1, Vector, f"{op}: v1"), checked_instance(v2, Vector, f"{op}: v2")
    _require_same_length(len(v1), len(v2), op)
    if v1.orientation is not v2.orientation:
        raise ValueError(
            f"{op}: vector orientations must match, got {v1.orientation.value} "
            f"and {v2.orientation.value}"
        )


@_quiet
def vec_add(v1: Vector, v2: Vector) -> Vector:
    _require_same_shape(v1, v2, "vec_add")
    return Vector._trusted(_finite(v1._array + v2._array, "vec_add"), v1.orientation)


@_quiet
def vec_sub(v1: Vector, v2: Vector) -> Vector:
    _require_same_shape(v1, v2, "vec_sub")
    return Vector._trusted(_finite(v1._array - v2._array, "vec_sub"), v1.orientation)


@_quiet
def dot(v1: Vector, v2: Vector) -> float:
    """Row times column inner product, accumulated left to right."""
    if checked_instance(v1, Vector, "dot: v1").orientation is not Orientation.ROW:
        raise ValueError(
            f"dot: left operand must be a row vector (transpose it first), "
            f"got {v1.orientation.value}"
        )
    if checked_instance(v2, Vector, "dot: v2").orientation is not Orientation.COLUMN:
        raise ValueError(
            f"dot: right operand must be a column vector, got {v2.orientation.value}"
        )
    _require_same_length(len(v1), len(v2), "dot")
    return _running_sum(v1._array * v2._array)


@_quiet
def l2_norm(v: Vector) -> float:
    """Euclidean norm; bitwise equal to sqrt(dot(v.transpose(), v))."""
    array = checked_instance(v, Vector, "l2_norm: v")._array
    return math.sqrt(_running_sum(array * array))


@_quiet
def mat_scale(s: float, m: DenseMatrix) -> DenseMatrix:
    """Scale every entry; shape is preserved."""
    grid = checked_float(s, "scale factor") * checked_instance(m, DenseMatrix, "mat_scale: m")._grid
    return DenseMatrix._trusted(m.rows, m.cols, _finite(grid, "mat_scale"))


def _require_column(v: Vector, label: str, length: Optional[int] = None) -> Vector:
    """Return v if it is a column Vector, of the given length if one is given."""
    if checked_instance(v, Vector, label).orientation is not Orientation.COLUMN:
        raise ValueError(f"{label} must be a column vector, got {v.orientation.value}")
    if length is not None and len(v) != length:
        raise ValueError(f"{label} length {len(v)} must equal {length}")
    return v


def _require_column_operand(m_cols: int, v: Vector, op: str) -> None:
    if checked_instance(v, Vector, f"{op}: v").orientation is not Orientation.COLUMN:
        raise ValueError(
            f"matrix-vector product needs a column vector, got {v.orientation.value}"
        )
    if m_cols != len(v):
        raise ValueError(
            f"number of matrix columns must be equal to length of column vector: "
            f"{m_cols} columns, vector length {len(v)}"
        )


_PASS_COST = 3000  # a pass of the sparse product, in entries of the grid product; see to_dense


def _dense_kernel(m: DenseMatrix, x: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
    """m times x, bound to these arrays; each call writes it into out and returns out; unchecked.

    A view whose CrsMatrix's passes are cheap (CrsMatrix.to_dense) runs
    _crs_kernel on them, with a scratch array allocated here, and any
    other matrix the grid (_grid_kernel). Both add each row's nonzero
    terms in column order from +0.0, so the bits agree.
    """
    if m._sparse is None:
        return _grid_kernel(m, x, out)
    return _crs_kernel(m._sparse, x, out, np.empty(m.rows))


def _grid_kernel(m: DenseMatrix, x: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
    """m times x over the whole grid, bound to these arrays; unchecked.

    Each row is a running sum in column order. A cols x rows terms
    buffer, allocated here once, takes terms[j, i] = grid[i, j] * x[j],
    and the reduce over axis 0 adds each column j into every row's lane
    in turn. out must not overlap x.
    """
    terms, grid_t, column = np.empty((m.cols, m.rows)), m._grid.T, x[:, None]

    def product() -> np.ndarray:
        np.multiply(grid_t, column, terms)
        if m.rows == 1:  # one lane: numpy would sum the contiguous column pairwise
            out[0] = _running_sum(terms[:, 0])
            return out
        np.add.reduce(terms, 0, None, out)  # axis 0, no dtype, out
        # a numpy that starts the reduce from the first term, not +0.0, can end at -0.0
        return np.add(out, 0.0, out)

    return product


@_quiet
def matvec(m: DenseMatrix, v: Vector) -> Vector:
    """Dense matrix times column vector, rows accumulated in column order."""
    _require_column_operand(checked_instance(m, DenseMatrix, "matvec: m").cols, v, "matvec")
    product = _dense_kernel(m, v._array, np.empty(m.rows))()
    return Vector._trusted(_finite(product, "matvec"), Orientation.COLUMN)


def dense_to_crs(m: DenseMatrix) -> CrsMatrix:
    """Compress a dense matrix, dropping entries that are exactly zero."""
    grid = checked_instance(m, DenseMatrix, "dense_to_crs: m")._grid
    columns = np.broadcast_to(np.arange(m.cols, dtype=np.intp), grid.shape)
    return CrsMatrix._compressed(grid, columns, m.cols)


def _crs_kernel(
    m: CrsMatrix, x: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> Callable[[], np.ndarray]:
    """m times x over the matrix's passes, bound to these arrays; unchecked.

    Binding reads m._passes, which builds the passes on m's first product.
    The returned function writes the product into out, each row from +0.0,
    and returns out. A sliced pass is bound here, once, to views of out, x
    and scratch (at least as long as the longest pass), so it runs as one
    multiply into scratch and one add into out and allocates nothing; a
    gathering pass indexes out[rows] += values * x[cols] on each call. out
    must not overlap x.
    """
    bound = []  # a loop: a generator expression costs twice as much per call
    for rows, values, cols in m._passes:
        if isinstance(rows, slice):
            bound.append((out[rows], values, x[cols], scratch[: len(values)]))
        else:
            bound.append((rows, values, cols, None))
    add, multiply = np.add, np.multiply

    def product() -> np.ndarray:
        out.fill(0.0)
        for target, values, source, terms in bound:
            if terms is None:  # target and source index out and x
                out[target] += values * x[source]
            else:  # target and source are views of out and x
                add(target, multiply(values, source, terms), target)
        return out

    return product


def _crs_product(m: CrsMatrix, x: np.ndarray) -> np.ndarray:
    """m times x into a fresh array, by the same kernel; unchecked."""
    return _crs_kernel(m, x, np.empty(m.rows), np.empty(m.rows))()


@_quiet
def crs_matvec(m: CrsMatrix, v: Vector) -> Vector:
    """Sparse matrix times column vector; bitwise equal to the dense path.

    Each row adds its stored entries in increasing column order, the order
    the dense kernel uses, and skipping exact zeros cannot change any
    partial sum, so results match matvec(m.to_dense(), v) bit for bit.
    """
    _require_column_operand(checked_instance(m, CrsMatrix, "crs_matvec: m").cols, v, "crs_matvec")
    return Vector._trusted(_finite(_crs_product(m, v._array), "crs_matvec"), Orientation.COLUMN)

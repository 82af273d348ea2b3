"""Index kinds and one-shot iterables at the linalg constructors and accessors."""

import pytest

from heatcg.linalg import CrsMatrix, DenseMatrix, Vector


@pytest.mark.parametrize("index", [1.0, True, False])
def test_a_float_or_bool_vector_index_is_a_type_error_naming_it(index):
    with pytest.raises(TypeError, match=f"vector index must be an integer, got {type(index).__name__}"):
        Vector([1.0, 2.0])[index]


@pytest.mark.parametrize("row,col,label", [(True, 0, "row"), (0, 1.0, "column"), (0, False, "column")])
def test_a_float_or_bool_matrix_index_is_a_type_error_naming_it(row, col, label):
    m = DenseMatrix(2, 2, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(TypeError, match=f"{label} index must be an integer"):
        m.at(row, col)


@pytest.mark.parametrize("rows,cols,label", [(2.0, 2, "rows"), (True, 2, "rows"), (2, 2.0, "cols"), (2, True, "cols")])
def test_a_float_or_bool_crs_shape_is_a_type_error_naming_it(rows, cols, label):
    with pytest.raises(TypeError, match=f"{label} must be an integer"):
        CrsMatrix(rows, cols, [1.0], [0], [0, 1] if rows is True else [0, 1, 1])


def test_a_vector_from_a_generator_names_the_bad_component():
    with pytest.raises(TypeError, match="component 1"):
        Vector(x for x in [1.0, "two", 3.0])


def test_a_vector_from_a_generator_keeps_every_component():
    assert Vector(x for x in [1.0, 2.0, 3.0]).components == (1.0, 2.0, 3.0)


def test_crs_accepts_generator_indices_and_row_pointers():
    from_generators = CrsMatrix(
        2, 2, (v for v in [1.0, 2.0]), (c for c in [0, 1]), (p for p in [0, 1, 2])
    )
    assert from_generators == CrsMatrix(2, 2, [1.0, 2.0], [0, 1], [0, 1, 2])
    assert from_generators.col_indices == (0, 1)
    assert from_generators.row_ptr == (0, 1, 2)

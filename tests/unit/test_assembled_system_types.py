"""AssembledSystem refuses fields of the wrong type at its public constructor.

crs must be a CrsMatrix, and rhs and cell_centers column Vectors, each
refusal naming the field, before any length or structure check reads
them. assemble builds its systems through _trusted and is not re-checked.
"""

import pytest

from heatcg.heat1d import AssembledSystem, HeatProblem, assemble


def fields(**changes):
    system = assemble(HeatProblem(number_of_cells=3))
    return {"crs": system.crs, "rhs": system.rhs, "cell_centers": system.cell_centers, **changes}


def test_a_dense_matrix_is_refused_as_crs():
    dense = assemble(HeatProblem(number_of_cells=3)).matrix
    with pytest.raises(TypeError, match="^crs must be a CrsMatrix, got DenseMatrix$"):
        AssembledSystem(**fields(crs=dense))


def test_a_list_is_refused_as_rhs():
    with pytest.raises(TypeError, match="^rhs must be a Vector, got list$"):
        AssembledSystem(**fields(rhs=[0.0, 0.0, 0.0]))


def test_a_tuple_is_refused_as_cell_centers():
    with pytest.raises(TypeError, match="^cell_centers must be a Vector, got tuple$"):
        AssembledSystem(**fields(cell_centers=(0.5, 1.5, 2.5)))


def test_a_row_vector_is_refused_as_rhs():
    rhs = fields()["rhs"].transpose()
    with pytest.raises(ValueError, match="^rhs must be a column vector, got row$"):
        AssembledSystem(**fields(rhs=rhs))


def test_a_row_vector_is_refused_as_cell_centers():
    centers = fields()["cell_centers"].transpose()
    with pytest.raises(ValueError, match="^cell_centers must be a column vector, got row$"):
        AssembledSystem(**fields(cell_centers=centers))


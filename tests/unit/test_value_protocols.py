"""Python protocols of the value types: iteration, hashing, repr, foreign equality."""

import pytest

from heatcg.linalg import CrsMatrix, DenseMatrix, Orientation, Vector
from heatcg.numkit import ComplexNumber


class _EqualsAnything:
    """A foreign value whose reflected __eq__ answers for it."""

    def __eq__(self, other):
        return True


class _AddsFromTheRight:
    def __radd__(self, other):
        return ("radd", other)


def _values():
    return [
        Vector([1.0, 2.0]),
        DenseMatrix(2, 2, [1.0, 2.0, 3.0, 4.0]),
        CrsMatrix(2, 2, [1.0, 2.0], [0, 1], [0, 1, 2]),
    ]


def test_iterating_a_vector_yields_its_components():
    assert list(Vector([1.0, -2.5, 3.0])) == [1.0, -2.5, 3.0]


def test_equal_vectors_hash_equal():
    first, second = Vector([1.0, 2.0]), Vector([1.0, 2.0])
    assert first is not second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_vector_repr_shows_components_and_orientation():
    text = repr(Vector([1.0, 2.0], Orientation.ROW))
    assert text.startswith("Vector([1.0, 2.0], ")
    assert "ROW" in text


@pytest.mark.parametrize("value", _values(), ids=type)
def test_an_unrelated_object_is_unequal(value):
    assert (value == "x") is False
    assert (value != object()) is True


@pytest.mark.parametrize("value", _values(), ids=type)
def test_equality_with_a_foreign_type_defers_to_it(value):
    assert (value == _EqualsAnything()) is True


def test_adding_an_int_to_a_complex_number_is_unsupported():
    with pytest.raises(TypeError, match="unsupported operand"):
        ComplexNumber(1, 2) + 1


def test_adding_a_foreign_type_to_a_complex_number_defers_to_it():
    number = ComplexNumber(1, 2)
    assert number + _AddsFromTheRight() == ("radd", number)

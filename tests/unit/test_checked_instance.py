"""_checks.checked_instance: the one "must be a/an X, got Y" type rule.

It returns the value itself, or raises TypeError with "an" before a
vowel, "a" otherwise, and "string" for str.
"""

import pytest

from heatcg._checks import checked_instance
from heatcg.linalg import Orientation, Vector


@pytest.mark.parametrize("kind, noun", [
    (Orientation, "an Orientation"), (int, "an int"), (Vector, "a Vector"),
    (float, "a float"), (str, "a string"),
])
def test_checked_instance_message(kind, noun):
    with pytest.raises(TypeError, match=f"^label must be {noun}, got bytes$"):
        checked_instance(b"", kind, "label")


def test_checked_instance_returns_the_value_itself():
    v = Vector([1.0])
    assert checked_instance(v, Vector, "v") is v
    assert checked_instance(True, int, "flag") is True

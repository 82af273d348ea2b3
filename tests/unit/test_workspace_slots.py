"""The CG workspace declares __slots__: an instance has no __dict__.

cgsolver._Workspace holds the solve's arrays, its bound product and its
0-d alpha and beta. The loop reads them once into locals, so slots cost
nothing there, and a misspelt attribute fails instead of adding a name.
"""

import numpy as np
import pytest

from heatcg.cgsolver import _Workspace
from heatcg.linalg import DenseMatrix


def workspace() -> _Workspace:
    start = np.array([1.0, -2.0])
    return _Workspace(DenseMatrix.from_rows([[2.0, 0.0], [0.0, 3.0]]), start, start, start)


def test_a_workspace_has_no_instance_dict():
    assert not hasattr(workspace(), "__dict__")


def test_a_workspace_refuses_a_name_it_does_not_declare():
    with pytest.raises(AttributeError):
        workspace().gamma = np.zeros(())

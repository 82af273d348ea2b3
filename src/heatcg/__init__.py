"""heatcg: a small test-driven numerical toolkit.

Vectors and matrices (dense and compressed-row) with pinned accumulation
order, a conjugate gradient solver, a finite volume discretization of the
steady 1D heat equation verified against its analytic solution, and a
test-pyramid manifest auditor, all behind a single CLI (``heatcg``).

Each module's ``__all__`` is its public API; the package re-exports every
one of those names, so a name is declared public in one place only.
"""

from . import cgsolver, heat1d, linalg, numkit, testpyramid
from .cgsolver import *  # noqa: F401,F403
from .heat1d import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .numkit import *  # noqa: F401,F403
from .testpyramid import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *numkit.__all__,
    *linalg.__all__,
    *cgsolver.__all__,
    *heat1d.__all__,
    *testpyramid.__all__,
    "__version__",
]

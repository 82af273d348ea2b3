"""heatcg: a small test-driven numerical toolkit.

Vectors and matrices (dense and compressed-row) with pinned accumulation
order, a conjugate gradient solver, a finite volume discretization of the
steady 1D heat equation verified against its analytic solution, and a
test-pyramid manifest auditor, all behind a single CLI (``heatcg``).

Each module's ``__all__`` is its public API; the package re-exports every
one of those names, so a name is declared public in one place only. The
names load on first use (PEP 562): ``import heatcg`` loads no numpy, so
``python -m heatcg`` sets up its process before numpy loads.
"""

__version__ = "0.1.0"

# a miss on these lets `from heatcg import cli` import that submodule alone
_SUBMODULES = {"cgsolver", "cli", "heat1d", "linalg", "numkit", "testpyramid"}


def __getattr__(name: str) -> object:
    if name == "__all__" or not (name.startswith("_") or name in _SUBMODULES):
        from . import cgsolver, heat1d, linalg, numkit, testpyramid

        modules = (numkit, linalg, cgsolver, heat1d, testpyramid)
        public = [(key, getattr(module, key)) for module in modules for key in module.__all__]
        globals().update(public, __all__=[key for key, _ in public] + ["__version__"])
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

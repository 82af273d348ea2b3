"""The package namespace is derived from each module's __all__."""

import heatcg
from heatcg import cgsolver, heat1d, linalg, numkit, testpyramid

# every name the package exported while __init__ still listed them by hand
HAND_WRITTEN_EXPORTS = {
    "Precision", "FloatCompareSpec", "ComplexNumber", "approx_eq", "complex_add",
    "Orientation", "Vector", "DenseMatrix", "CrsMatrix", "vec_scale", "vec_add",
    "vec_sub", "dot", "l2_norm", "mat_scale", "matvec", "dense_to_crs", "crs_matvec",
    "CgBreakdownError", "CgConfig", "CgState", "CgResult", "cg_init", "cg_step",
    "cg_solve", "HeatProblem", "StencilCoefficients", "AssembledSystem",
    "HeatSolution", "stencil_coefficients", "cell_centers", "assemble",
    "analytic_solution", "solve_heat", "Layer", "TestStatus", "TestRecord",
    "PyramidReport", "ManifestError", "DEFAULT_UNIT_BUDGET_MS", "parse_manifest",
    "render_manifest", "pyramid_report", "render_report", "__version__",
}


def test_all_is_the_union_of_the_module_apis():
    modules = (numkit, linalg, cgsolver, heat1d, testpyramid)
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert sorted(heatcg.__all__) == sorted(expected)
    assert len(set(heatcg.__all__)) == len(heatcg.__all__)


def test_every_exported_name_resolves_to_its_module_object():
    for module in (numkit, linalg, cgsolver, heat1d, testpyramid):
        for name in module.__all__:
            assert getattr(heatcg, name) is getattr(module, name), name
    assert heatcg.__version__ == "0.1.0"


def test_no_previously_exported_name_is_lost():
    assert len(HAND_WRITTEN_EXPORTS) == 45
    assert HAND_WRITTEN_EXPORTS <= set(heatcg.__all__)


def test_manifest_header_is_reachable_from_the_package():
    assert heatcg.MANIFEST_HEADER == ("layer", "name", "duration_ms", "status")
    assert "MANIFEST_HEADER" in heatcg.__all__

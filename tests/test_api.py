"""The public API and the package layering: `finring.__all__` and the
intra-package import graph, frozen."""

import ast
from pathlib import Path

import finring

# Adding or removing a public name is a deliberate edit of this list.
PUBLIC_NAMES = {
    # errors
    "BudgetError", "ConstructionError", "ParseError", "RingMismatchError",
    # rings
    "DEFAULT_ORDER_CAP", "TABLE_CAP", "Elem", "GFRing", "MatrixRing", "ProductRing",
    "QuotientRing", "Ring", "TableRingStructure", "ZnRing", "additive_invariant_factors",
    "least_irreducible", "make_boolean", "make_gf", "make_matrix_ring", "make_product",
    "make_table_ring", "make_triangular_ring", "make_zn", "quotient_ring", "verify_tables",
    # analysis
    "RadicalSummary", "UnitGroupSummary", "characteristic", "gl_order", "inverse_by_scan",
    "inverse_index", "is_boolean", "is_commutative", "is_division_ring", "is_unit",
    "jacobson_radical", "multiplicative_order", "primitive_element", "unit_census",
    "unit_count", "unit_first_column_classes", "unit_group", "unit_sum",
    # enumeration and serialization
    "BEST_EFFORT_MAX_ORDER", "MANDATORY_MAX_ORDER", "AdditiveGroupShape", "CanonicalForm",
    "abelian_automorphism_count", "abelian_group_shapes", "are_isomorphic",
    "canonical_form", "enumerate_unital_rings", "parse_table_ring", "read_ring_file",
    "serialize_table_ring", "write_ring_file",
    # ring expressions
    "BExpr", "GFExpr", "MExpr", "ProdExpr", "RingExpr", "UTExpr", "ZnExpr",
    "build_ring", "parse_ring", "parse_ring_expr", "pretty_expr",
    # checks
    "CHECK_IDS", "TheoremReport", "normalize_check_id", "recheck_counterexample",
    "run_all", "run_check",
    "__version__",
}


def test_public_names_frozen():
    assert sorted(finring.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(finring, name) for name in finring.__all__)


# Each module's imports from the package itself, read from its `from .x
# import` lines.  Adding an edge is a deliberate edit of this map: the
# search and canonical forms (`enumeration`) stand on the ring layer alone.
IMPORT_GRAPH = {
    "__init__": {"analysis", "enumeration", "errors", "expr", "rings", "theorems"},
    "analysis": {"errors", "rings"},
    "cli": {"analysis", "enumeration", "errors", "expr", "rings", "theorems"},
    "enumeration": {"errors", "rings"},
    "errors": set(),
    "expr": {"errors", "rings"},
    "rings": {"errors"},
    "theorems": {"analysis", "enumeration", "errors", "rings"},
}


def _package_imports(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:  # from .x import ...
                imported.add(node.module.split(".")[0])
            else:  # from . import x
                imported.update(alias.name for alias in node.names)
    return imported


def test_import_graph_frozen():
    package = Path(finring.__file__).parent
    graph = {path.stem: _package_imports(path) for path in package.glob("*.py")}
    assert graph == IMPORT_GRAPH

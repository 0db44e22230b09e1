"""The public API and the package layering: `finring.__all__` and the
intra-package import graph, frozen; and the names the benchmark's tracer
wraps."""

import ast
import importlib
import importlib.util
import random
import sys
from pathlib import Path

import finring
from finring import cli, enumeration, make_zn, theorems
from finring.rings import Ring

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


def test_benchmark_ops_answer_their_golden_checks():
    # every op of every perfbench workload, run once and judged by its own
    # golden check, so a pin the library breaks fails here first; the module
    # is loaded by path, and registered before it runs for its dataclasses
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        ops = [op for build in workloads.WORKLOADS.values() for op in build(random.Random(1))]
        assert ops
        for op in ops:
            assert op.check(op.run()) == [], op.id
    finally:
        del sys.modules[spec.name]


def test_tracer_entry_points_resolve():
    # perfbench/spans.py wraps these by name only when run with --trace 1,
    # so a rename must fail here instead; its ENTRY_POINTS are read, not imported
    spans = Path(__file__).parents[1] / "perfbench" / "spans.py"
    entry_points = next(ast.literal_eval(node.value) for node in ast.parse(spans.read_text()).body
                        if isinstance(node, ast.Assign)
                        and getattr(node.targets[0], "id", None) == "ENTRY_POINTS")
    assert entry_points
    for _span, module, attr in entry_points:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for fn in (Ring.tables, enumeration.enumerate_unital_rings, theorems.run_check,
               theorems.normalize_check_id, cli.main):
        assert callable(fn)
    # the tracer spans only a first `tables()` call, told apart by `_tables`
    ring = make_zn(3)
    assert ring._tables is None
    ring.tables()
    assert ring._tables is not None

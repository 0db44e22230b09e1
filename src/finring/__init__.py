"""finring: construction, analysis and exhaustive search of finite unital rings.

Rings are index-arithmetic carriers: elements are integers 0..order-1
with 0 the additive zero, and every construction (modular, field, matrix,
triangular, product, explicit table, quotient) implements add/neg/mul on
those indices.  On top sit structural analysis (characteristic, unit
groups and sums, the radical), exhaustive enumeration of all unital rings
of small order with isomorphism classing, a ring-expression language, a
claim-verification harness, and a CLI front end.
"""

from .errors import BudgetError, ConstructionError, ParseError, RingMismatchError
from .rings import (
    DEFAULT_ORDER_CAP,
    TABLE_CAP,
    Elem,
    GFRing,
    MatrixRing,
    ProductRing,
    QuotientRing,
    Ring,
    TableRingStructure,
    ZnRing,
    additive_invariant_factors,
    least_irreducible,
    make_boolean,
    make_gf,
    make_matrix_ring,
    make_product,
    make_table_ring,
    make_triangular_ring,
    make_zn,
    quotient_ring,
    verify_tables,
)
from .analysis import (
    RadicalSummary,
    UnitGroupSummary,
    characteristic,
    gl_order,
    inverse_by_scan,
    inverse_index,
    is_boolean,
    is_commutative,
    is_division_ring,
    is_unit,
    jacobson_radical,
    multiplicative_order,
    primitive_element,
    unit_census,
    unit_count,
    unit_first_column_classes,
    unit_group,
    unit_sum,
)
from .enumeration import (
    BEST_EFFORT_MAX_ORDER,
    MANDATORY_MAX_ORDER,
    AdditiveGroupShape,
    CanonicalForm,
    abelian_automorphism_count,
    abelian_group_shapes,
    are_isomorphic,
    canonical_form,
    enumerate_unital_rings,
    parse_table_ring,
    read_ring_file,
    serialize_table_ring,
    write_ring_file,
)
from .expr import (
    BExpr,
    GFExpr,
    MExpr,
    ProdExpr,
    RingExpr,
    UTExpr,
    ZnExpr,
    build_ring,
    parse_ring,
    parse_ring_expr,
    pretty_expr,
)
from .theorems import (
    CHECK_IDS,
    TheoremReport,
    normalize_check_id,
    recheck_counterexample,
    run_all,
    run_check,
)

__version__ = "1.0.0"

__all__ = [
    "BudgetError", "ConstructionError", "ParseError", "RingMismatchError",
    "DEFAULT_ORDER_CAP", "TABLE_CAP", "Elem", "GFRing",
    "MatrixRing", "ProductRing", "QuotientRing", "Ring", "TableRingStructure",
    "ZnRing", "additive_invariant_factors",
    "least_irreducible", "make_boolean", "make_gf", "make_matrix_ring",
    "make_product", "make_table_ring", "make_triangular_ring", "make_zn",
    "quotient_ring", "verify_tables",
    "RadicalSummary", "UnitGroupSummary", "characteristic", "gl_order",
    "inverse_by_scan", "inverse_index", "is_boolean", "is_commutative",
    "is_division_ring", "is_unit", "jacobson_radical",
    "multiplicative_order", "primitive_element",
    "unit_census", "unit_count",
    "unit_first_column_classes", "unit_group", "unit_sum",
    "BEST_EFFORT_MAX_ORDER", "MANDATORY_MAX_ORDER", "AdditiveGroupShape",
    "CanonicalForm", "abelian_automorphism_count", "abelian_group_shapes",
    "are_isomorphic", "canonical_form", "enumerate_unital_rings",
    "parse_table_ring", "read_ring_file", "serialize_table_ring",
    "write_ring_file",
    "BExpr", "GFExpr", "MExpr", "ProdExpr", "RingExpr", "UTExpr", "ZnExpr",
    "build_ring", "parse_ring", "parse_ring_expr", "pretty_expr",
    "CHECK_IDS", "TheoremReport", "normalize_check_id",
    "recheck_counterexample", "run_all", "run_check",
    "__version__",
]

"""Exact computations with polyhedral wedge orders over the rationals.

Wedges (convex cones possibly containing lines) induce preorders on Q^n;
this package computes multi-suprema and multi-infima of translated-wedge
families, checks decomposition properties, and evaluates the supremum
formulas for families of positive operators, all in exact rational
arithmetic.
"""

from .errors import (
    InconsistentValues,
    InternalInvariantError,
    InvalidInstance,
    MultiWedgeError,
    NoMultiSupremum,
    NotInSumWedge,
    NotMultiBoundedAbove,
    NotMultiBoundedBelow,
    RDPViolated,
    ZeroSpace,
)
from .linalg import (
    Q,
    QMatrix,
    QVector,
    Solution,
    complement_basis,
    matrix_inverse,
    nullspace,
    qparse,
    rref,
    solve_linear,
    span_contains,
)
from .lp import (
    EQ,
    GE,
    LE,
    Constraint,
    Infeasible,
    LinearProgram,
    LPResult,
    Optimal,
    Unbounded,
    constraint,
    lp_solve,
)
from .multiorder import (
    Counterexample,
    MultiSupSet,
    TranslatedWedge,
    is_multi_upper_bound,
    is_proper,
    minf,
    msup,
    multi_bounded_above,
    multilattice_search,
)
from .operators import (
    LinearOperator,
    OperatorMSupResult,
    ProjectionPair,
    RDPInstance,
    decomposition_ok,
    extend_additive,
    fs_decompose,
    functional_msup,
    op_is_positive,
    op_minf,
    op_msup,
    op_wedge_is_cone,
    op_wedge_lineality,
    projections,
    rdp_check,
    rdp_search,
    rk_value,
)
from .wedges import (
    Wedge,
    dual_wedge,
    hrep_to_vrep,
    intersect,
    is_cone,
    is_generating,
    lineality,
    member,
    vrep_to_hrep,
    wedge_equal,
    wedge_sum,
)

__version__ = "0.1.0"

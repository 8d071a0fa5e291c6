"""Numerical engine for contour-time quantum history measures.

Builds branch propagators from piecewise-constant Hamiltonian schedules,
evaluates history weights as products of conjugate branch amplitudes, and
normalizes them into outcome measures that reproduce the Born and
pre/post-selection (ABL) probability rules, verified against independent
textbook oracles.
"""

from .contour import Branch, PathSegment, build_path
from .dynamics import HamiltonianSchedule, SchedulePiece, compose_check, propagate
from .errors import (
    CoverageError,
    DegenerateNormalizer,
    DimensionMismatch,
    DomainError,
    FpfError,
    ImpossiblePostSelection,
    InstanceTooLarge,
    NonMonotoneTimes,
    NotNormalized,
    NumericalCheckFailure,
    RealnessViolation,
    ScenarioSyntaxError,
    SchemaError,
    TooFewPoints,
    ValidationError,
    ZeroDenominator,
)
from .histories import (
    FixedPoint,
    FixedPointNetwork,
    NetworkEdge,
    NetworkLayer,
    QuantumHistory,
    build_network,
    make_history,
)
from .measure import (
    MeasureResult,
    abl_measure,
    born_measure,
    chain_delta_psi,
    chain_measure,
)
from .scenario import (
    Query,
    ResultReport,
    Scenario,
    parse_scenario,
    random_scenario,
    run,
    serialize_scenario,
)
from .statespace import (
    Basis,
    HermitianOperator,
    StateVector,
    UnitaryMatrix,
    basis_state,
    check_basis,
    expm_hermitian,
    standard_basis,
)
from .tolerances import Tolerances, active_tolerances, tolerance_overrides

__all__ = [name for name in dir() if not name.startswith("_")]

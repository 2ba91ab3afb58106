"""Forward and inverse route assignment for centrally routed vehicle fleets.

The package models a congestion network shared by human-driven vehicles and
a centrally routed fleet, evaluates the fleet's one-day objective across the
behaviour spectrum, computes the forward best-response assignment, and
solves the inverse problem of recovering fleet flows from observed totals,
with uniqueness certificates, stability bounds, discrete recovery, myopic
day-to-day dynamics, and two-route Stackelberg analysis.
"""

from .config import DEFAULT_CONFIG, SolverConfig
from .dynamics import DayState, SimulationConfig, hdv_day_update, simulate
from .errors import (
    ConvergenceError,
    DelayDomainError,
    DimensionMismatchError,
    FleetModelError,
    InfeasibleProblemError,
    ModelInputError,
    NotRealisableError,
    UnsupportedDelayError,
)
from .forward import (
    AssignmentResult,
    Certificate,
    FeasibleSet,
    certify_local_min,
    fleet_assign,
    solve_concave,
    solve_convex,
    solve_general,
)
from .inverse import (
    DiscreteRecovery,
    FiberResult,
    InverseResult,
    LipschitzBound,
    UniquenessCertificate,
    discrete_recover,
    inverse_link_flows,
    lipschitz_bound,
    route_fiber,
    solve_inverse,
    stationarity_map,
)
from .network import (
    AffineDelay,
    BPRDelay,
    CrossAffineDelay,
    Link,
    LinearIndependence,
    Network,
    ODUnit,
    PDCertificate,
    QuadraticDelay,
    Route,
    WebsterDelay,
    single_od_network,
)
from .objective import (
    ConvexityClass,
    ConvexityKind,
    FleetStrategy,
    classify_convexity,
    eval_objective,
    eval_objective_link_form,
    local_convexity_at,
    objective_gradient_in_f,
    objective_hessian_in_f,
)
from .stackelberg import (
    GeneralMixture,
    MixedCornerStrategy,
    compare_routings,
    expected_fleet_objective,
    expected_hdv_time,
    induced_ue,
    optimize_corner_mixture,
    verify_corner_support,
)

__version__ = "0.1.0"

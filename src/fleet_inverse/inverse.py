"""Inverse fleet assignment: recover fleet flows from observed totals.

Given the observed total route flow q, the strategy weights, and the fleet
size, a fleet flow f consistent with the observation is exactly a solution
of the variational inequality

    A(f*) . (f - f*) >= 0  for all feasible f,
    A(f) = lam_crv * t(q) + grad_t(q)^T (lam_hdv * q + L * f),

over {0 <= f <= q, per-unit sums = fleet sizes}, with L = lam_crv -
lam_hdv.  The operator is affine in f because q is fixed by the
observation.  For L > 0 and a travel-time gradient positive definite on
feasible directions the VI is strictly monotone, hence has at most one
solution: that is the uniqueness certificate reported alongside every
result.  A certified VI is solved exactly by a primal active-set walk
from the greedy vertex: each round solves the KKT system of one face, then
puts a route on the first bound the step to that face's point crosses or
frees the bound route with the most wrong-signed multiplier, until the
face point is the solution.  Otherwise, and if the walk stops early, the
extragradient method runs to the gap tolerance and an active-set polish
solves the KKT system of the iterate's face.  At L = 0 the operator is
constant, and its greedy minimizer is exact as it stands.

When the certificate fails, the solution set is enumerated: every
solution solves the KKT system of its face, so that system is solved and
validated on each lower/free/cap labeling that can hold every unit's fleet
(FeasibleSet.labelings, the walk whose one-free-route labelings are the
forward corners).  A face whose KKT system is singular (L = 0, dependent
routes) gives its minimum-norm solution.  Above SolverConfig.vertex_cap
labelings nothing is enumerated (InverseResult.exhaustive = False).

Residuals are reported as VI gap per vehicle of fleet mass,
max_x A(f).(f - x) / max(1, fleet mass), in time units.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, IMAGE_DISTANCE_NORMS, SolverConfig
from .errors import (
    DimensionMismatchError,
    FleetModelError,
    InfeasibleProblemError,
    NotRealisableError,
)
from .forward import FeasibleSet, bounded_factors, fleet_assign
from .network import Network
from .objective import FleetStrategy

__all__ = [
    "UniquenessCertificate",
    "InverseResult",
    "FiberResult",
    "LipschitzBound",
    "DiscreteRecovery",
    "stationarity_map",
    "solve_inverse",
    "inverse_link_flows",
    "route_fiber",
    "lipschitz_bound",
    "discrete_recover",
]

MARGIN_EPS = 1e-12  # margins at or below this are not certified
# a multiplier of the wrong sign by at most this x (1 + max|A(f)|) is rounding
RELEASE_RTOL = 1e-10


# -- result types ---------------------------------------------------------------


@dataclass(frozen=True)
class UniquenessCertificate:
    theorem_applies: bool
    reason: str
    min_rayleigh: float
    margin: float


@dataclass(frozen=True)
class FiberResult:
    """Solution set of route flows producing one fleet link flow.

    The set is (representative + span(basis)) intersected with the flow
    bounds; intervals[j] is the admissible coefficient range along basis
    column j with the other coefficients held at zero.
    """

    representative: np.ndarray
    basis: np.ndarray
    intervals: tuple[tuple[float, float], ...]
    residual: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class InverseResult:
    f_hat: np.ndarray
    h_hat: np.ndarray
    residual: float
    certificate: UniquenessCertificate
    solutions: tuple[np.ndarray, ...]
    converged: bool
    level: str  # "route" or "link"
    fiber: FiberResult | None = None
    # False when the solution set was not enumerated (above the vertex cap)
    exhaustive: bool = True


@dataclass(frozen=True)
class LipschitzBound:
    constant: float      # K in the stability estimate
    rho: float           # min feasible-direction eigenvalue over samples
    margin: float        # L
    grad_norm: float     # sup spectral norm of the travel-time gradient
    hess_norm: float     # sup bound on the gradient's Lipschitz modulus
    bound: float         # K / (L * rho)
    defined: bool
    samples: int


@dataclass(frozen=True)
class DiscreteRecovery:
    inverse: InverseResult
    h_star: np.ndarray
    q_city: np.ndarray
    image_distance: float
    lipschitz_inverse: float
    closeness_bound: float
    integer_candidates: tuple[np.ndarray, ...]


# -- operator and gap ------------------------------------------------------------


def _affine_operator(
    strategy: FleetStrategy, q: np.ndarray, network: Network
) -> tuple[np.ndarray, np.ndarray]:
    """A(f) = a0 + B f in route space at the observed total flow q."""
    t = network.route_times(q)
    grad = network.route_gradient(q)
    a0 = strategy.lam_crv * t + grad.T @ (strategy.lam_hdv * q)
    b = strategy.margin * grad.T
    return a0, b


def stationarity_map(strategy: FleetStrategy, q, f, network: Network) -> np.ndarray:
    """The VI operator at candidate f; contracting with a direction g gives
    the directional derivative of the fleet objective at f with HDV flows
    q - f held fixed."""
    q = np.asarray(q, dtype=float)
    f = np.asarray(f, dtype=float)
    if q.shape != f.shape or q.shape != (network.n_routes,):
        raise DimensionMismatchError("q and f must both be route vectors")
    a0, b = _affine_operator(strategy, q, network)
    return a0 + b @ f


def _linear_minimum(c: np.ndarray, feasible: FeasibleSet) -> tuple[np.ndarray, float]:
    """Exact minimizer of c . x over the box-capped product simplex and its
    value: fill the cheapest routes first, ties broken by ascending route
    index."""
    x = np.zeros(feasible.n_routes)
    for block, total in zip(feasible.blocks, feasible.totals):
        order = np.argsort(c[block], kind="stable")
        remaining = float(total)
        for r in block[order].tolist():
            cap = remaining if feasible.upper is None else min(remaining, float(feasible.upper[r]))
            x[r] = cap
            remaining -= cap
            if remaining <= 0:
                break
    return x, float(c @ x)


def _vi_gap(a0: np.ndarray, b: np.ndarray, f: np.ndarray, feasible: FeasibleSet) -> float:
    """max_x A(f).(f - x) over the feasible set; zero exactly at solutions."""
    c = a0 + b @ f
    _, best = _linear_minimum(c, feasible)
    return float(c @ f) - best


def _residual_scale(feasible: FeasibleSet) -> float:
    return max(1.0, feasible.total_mass)


# -- affine VI: active-set walk, extragradient, polish ----------------------------


def _active_partition(f: np.ndarray, feasible: FeasibleSet) -> np.ndarray:
    """-1 where f is at its lower bound, +1 where it is at its cap, 0 where it
    is free, each within 1e-6 * (1 + fleet mass)."""
    tol_active = 1e-6 * (1.0 + feasible.total_mass)
    lower_active = f <= tol_active
    active = np.where(lower_active, -1, 0)
    if feasible.upper is not None:
        active[(f >= feasible.upper - tol_active) & ~lower_active] = 1
    return active


def _uniform_start(feasible: FeasibleSet) -> np.ndarray:
    f = np.zeros(feasible.n_routes)
    for block, total in zip(feasible.blocks, feasible.totals):
        f[block] = total / len(block)
    return feasible.project(f)


def _extragradient(
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    f0: np.ndarray,
    tol_gap: float,
    config: SolverConfig,
) -> tuple[np.ndarray, int, bool]:
    """Extragradient iterates until the VI gap is at most tol_gap; returns
    (f, iterations, converged)."""
    f = feasible.project(f0)
    step = config.extragradient_safety / float(np.linalg.norm(b, 2))
    for k in range(1, config.max_vi_iter + 1):
        af = a0 + b @ f
        if float(af @ f) - _linear_minimum(af, feasible)[1] <= tol_gap:
            return f, k - 1, True
        y = feasible.project(f - step * af)
        f = feasible.project(f - step * (a0 + b @ y))
    return f, config.max_vi_iter, False


def _diagonal_of(b: np.ndarray) -> np.ndarray | None:
    """The diagonal of b when b is diagonal (a separable network, see
    Network.separable), None otherwise; one check per VI solve, which
    _face_point then takes."""
    diagonal = np.diagonal(b)
    return diagonal if np.count_nonzero(b) == np.count_nonzero(diagonal) else None


def _face_point(
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    active: np.ndarray,
    diagonal: np.ndarray | None = None,
) -> np.ndarray | None:
    """Solve the KKT system on an active partition (see _active_partition):
    free coordinates satisfy A(f)_r = mu_s inside their unit, the others sit
    on their bounds.  None when the solve is not finite; the point is not
    checked against the bounds or the multipliers.

    When b is diagonal (`diagonal`, see _diagonal_of) with free entries
    that are nonzero and share one sign, the system has the closed form of
    the separable resource-allocation problem, O(R): with T_s the mass
    unit s leaves to its free routes F, mu_s = (T_s + sum_F a0 / b) /
    sum_F 1 / b and f_r = (mu_s - a0_r) / b_rr (with a0 and mu_s taken
    relative to one entry of a0_F, see below).  Otherwise a least-squares
    solve of the KKT system gives its unique or, where it is singular, its
    minimum-norm solution."""
    free = active == 0
    fixed = np.zeros(feasible.n_routes)
    if feasible.upper is not None:
        fixed = np.where(active > 0, feasible.upper, fixed)
    if not np.any(free):
        return fixed

    if diagonal is not None and (np.all(diagonal[free] > 0.0) or np.all(diagonal[free] < 0.0)):
        point = fixed.copy()
        for block, total in zip(feasible.blocks, feasible.totals):
            routes = block[free[block]]
            if len(routes):
                # a0 relative to its entry on the flattest route, whose
                # 1 / b dominates the sums: its share of mu's rounding then
                # shrinks with b there instead of growing with 1 / b
                excess = a0[routes] - a0[routes[np.argmin(np.abs(diagonal[routes]))]]
                mass = float(total) - float(np.sum(fixed[block][~free[block]]))
                mu = (mass + np.sum(excess / diagonal[routes])) / np.sum(1.0 / diagonal[routes])
                point[routes] = (mu - excess) / diagonal[routes]
        return point if np.all(np.isfinite(point)) else None

    free_idx = np.flatnonzero(free)
    n_free = len(free_idx)
    unit = np.zeros(feasible.n_routes, dtype=int)
    for s, block in enumerate(feasible.blocks):
        unit[block] = s
    # the units holding a free route, ascending, and the position of each
    # free route's unit among them
    units_with_free, unit_row = np.unique(unit[free_idx], return_inverse=True)
    m = n_free + len(units_with_free)
    rows = np.arange(n_free)
    lhs = np.zeros((m, m))
    lhs[:n_free, :n_free] = b[np.ix_(free_idx, free_idx)]
    lhs[rows, n_free + unit_row] = -1.0
    lhs[n_free + unit_row, rows] = 1.0
    rhs = np.zeros(m)
    # one dot product per row: a single matrix-vector product can round
    # differently
    rhs[:n_free] = [-a0[r] - float(b[r] @ fixed) for r in free_idx]
    for j, s in enumerate(units_with_free):
        block = feasible.blocks[s]
        rhs[n_free + j] = float(feasible.totals[s]) - float(np.sum(fixed[block][~free[block]]))
    solution, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    if not np.all(np.isfinite(solution)):
        return None
    candidate = fixed.copy()
    candidate[free_idx] = solution[:n_free]
    return candidate


def _bound_violations(candidate: np.ndarray, feasible: FeasibleSet) -> np.ndarray:
    """-1 where candidate is below 0 and +1 where it is above its cap, by
    more than 1e-9 * (1 + fleet mass); 0 elsewhere (the labels of
    _active_partition)."""
    tol_feas = 1e-9 * (1.0 + feasible.total_mass)
    out = np.where(candidate < -tol_feas, -1, 0)
    if feasible.upper is not None:
        out[candidate > feasible.upper + tol_feas] = 1
    return out


def _validated(
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    active: np.ndarray,
    candidate: np.ndarray,
) -> np.ndarray | None:
    """The face point of an active partition clipped to its bounds, if it
    lies inside them, on the unit sums, and with coordinates pinned at a
    bound respecting the complementary inequality; None otherwise."""
    scale = 1.0 + feasible.total_mass
    lower_active = active < 0
    upper_active = active > 0
    free = active == 0

    # validate primal feasibility
    if np.any(_bound_violations(candidate, feasible)):
        return None
    candidate = np.clip(candidate, 0.0, None if feasible.upper is None else feasible.upper)
    for block, total in zip(feasible.blocks, feasible.totals):
        if abs(float(np.sum(candidate[block])) - float(total)) > 1e-7 * scale:
            return None

    # validate dual feasibility
    a_val = a0 + b @ candidate
    tol_kkt = 1e-6 * (1.0 + float(np.max(np.abs(a_val))))
    for s, block in enumerate(feasible.blocks):
        free_b = [r for r in block if free[r]]
        lo_b = [r for r in block if lower_active[r]]
        hi_b = [r for r in block if upper_active[r]]
        if free_b:
            mu = float(np.mean(a_val[free_b]))
            if np.max(np.abs(a_val[free_b] - mu)) > tol_kkt:
                return None
        else:
            lo_min = min((a_val[r] for r in lo_b), default=math.inf)
            hi_max = max((a_val[r] for r in hi_b), default=-math.inf)
            if hi_max > lo_min + tol_kkt:
                return None
            mu = min(lo_min, max(hi_max, 0.0))
        if any(a_val[r] < mu - tol_kkt for r in lo_b):
            return None
        if any(a_val[r] > mu + tol_kkt for r in hi_b):
            return None
    return candidate


def _first_crossing(
    x: np.ndarray, point: np.ndarray, active: np.ndarray, feasible: FeasibleSet
) -> tuple[int, int, float] | None:
    """The active-set ratio test: of the free coordinates `point` pushes past
    a bound (see _bound_violations), the one the segment from x to point
    crosses first, as (route, bound label, step along the segment); None
    when it pushes none."""
    pushed = np.where(active == 0, _bound_violations(point, feasible), 0)
    if not np.any(pushed):
        return None
    upper = math.inf if feasible.upper is None else feasible.upper
    bound = np.where(pushed > 0, upper, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = np.where(pushed != 0, (bound - x) / (point - x), np.inf)
    first = int(np.argmin(crossing))
    return first, int(pushed[first]), float(crossing[first])


def _release(a_val: np.ndarray, feasible: FeasibleSet, active: np.ndarray, tol: float) -> int | None:
    """The bound route whose multiplier has the most wrong sign at the
    operator values a_val, lowest index on ties; None when no sign is wrong
    by more than tol.  A route at 0 is wrong when it costs less than its
    unit's multiplier, a route at its cap when it costs more; the multiplier
    is the mean cost of the unit's free routes, or, in a unit with none, the
    interval [max over its cap routes, min over its lower routes]."""
    wrong = np.full(feasible.n_routes, -math.inf)
    for block in feasible.blocks:
        labels = active[block]
        lower, cap = block[labels < 0], block[labels > 0]
        free_costs = a_val[block[labels == 0]]
        if len(free_costs):
            mu_lo = mu_hi = float(np.mean(free_costs))
        else:
            mu_lo = max(a_val[cap], default=-math.inf)
            mu_hi = min(a_val[lower], default=math.inf)
        wrong[lower] = mu_lo - a_val[lower]
        wrong[cap] = a_val[cap] - mu_hi
    worst = int(np.argmax(wrong))
    return worst if wrong[worst] > tol else None


def _active_set_walk(
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    tol_gap: float,
    config: SolverConfig,
    diagonal: np.ndarray | None = None,
) -> tuple[np.ndarray | None, int]:
    """The primal active-set method (Nocedal and Wright 2006, Algorithm
    16.3) for a monotone affine VI, from the greedy vertex of a0.

    Each round solves the KKT system of the working partition's face and
    then takes the first step that applies: step towards the face point up
    to the first bound it crosses and put that route on it (the ratio
    test); put the free routes the point leaves inside the active band on
    their bounds; free the bound route whose multiplier has the most wrong
    sign beyond rounding (RELEASE_RTOL, see _release) and move to the
    point; or return the point, validated, when its VI gap is within
    tol_gap.  A cap inside the active band keeps its cap label, so a route
    may end at a cap that _active_partition calls a lower bound.  Returns
    (solution, rounds); the solution is None when that last check fails, a
    face solve is not finite, a partition repeats or config.vertex_cap
    rounds pass.  `diagonal` is b's diagonal when b is diagonal (see
    _face_point).
    """
    x = _linear_minimum(a0, feasible)[0]
    active = _active_partition(x, feasible)
    seen: set[bytes] = set()
    for rounds in range(1, config.vertex_cap + 1):
        key = active.tobytes()
        if key in seen:
            return None, rounds - 1
        seen.add(key)
        point = _face_point(a0, b, feasible, active, diagonal)
        if point is None:
            return None, rounds
        crossed = _first_crossing(x, point, active, feasible)
        if crossed is not None:
            route, label, step = crossed
            x = x + min(max(step, 0.0), 1.0) * (point - x)
            x[route] = 0.0 if label < 0 else feasible.upper[route]
            active[route] = label
            continue
        labels = _active_partition(point, feasible)
        banded = (active == 0) & (labels != 0)
        if np.any(banded):
            x = point
            active[banded] = labels[banded]
            continue
        a_val = a0 + b @ point
        route = _release(a_val, feasible, active, RELEASE_RTOL * (1.0 + float(np.max(np.abs(a_val)))))
        if route is not None:
            x = point
            active[route] = 0
            continue
        solution = _validated(a0, b, feasible, active, point)
        if solution is not None and _vi_gap(a0, b, solution, feasible) <= tol_gap:
            return solution, rounds
        return None, rounds
    return None, config.vertex_cap


def _solve_affine_vi(
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    tol_gap: float,
    config: SolverConfig,
    unique: bool = False,
) -> tuple[np.ndarray, float, bool]:
    """Solve the affine VI A(f) = a0 + b f over the feasible set; returns
    (f, VI gap, converged).

    When the VI is certified to have one solution (`unique`) the active-set
    walk from the greedy vertex finds it exactly.  Otherwise, or when the
    walk stops, the extragradient runs from the uniform split to tol_gap,
    and the active-set polish then solves the KKT system of the iterate's
    face, relabelling one route a round by the ratio test.  A constant
    operator's greedy minimizer is exact as it stands.
    """
    if float(np.max(np.abs(b), initial=0.0)) <= 1e-300:
        # every minimizer of a0 . f solves the VI
        f = _linear_minimum(a0, feasible)[0]
        return f, _vi_gap(a0, b, f, feasible), True
    diagonal = _diagonal_of(b)
    if unique:
        f, _ = _active_set_walk(a0, b, feasible, tol_gap, config, diagonal)
        if f is not None:
            return f, _vi_gap(a0, b, f, feasible), True
    f, _, converged = _extragradient(a0, b, feasible, _uniform_start(feasible), tol_gap, config)
    gap = _vi_gap(a0, b, f, feasible)
    # relabel the route the segment from f to the face point crosses first,
    # and solve again, at most once per route
    active = _active_partition(f, feasible)
    for _ in range(feasible.n_routes):
        point = _face_point(a0, b, feasible, active, diagonal)
        polished = None if point is None else _validated(a0, b, feasible, active, point)
        if polished is not None or point is None:
            break
        crossed = _first_crossing(f, point, active, feasible)
        if crossed is None:
            break
        route, label, _ = crossed
        active[route] = label
    if polished is not None:
        gap_polished = _vi_gap(a0, b, polished, feasible)
        if gap_polished <= max(gap, 1e-12):
            f, gap = polished, gap_polished
    return f, gap, converged or gap <= tol_gap


# -- face enumeration ----------------------------------------------------------------


def _face_solutions(
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    tol_gap: float,
    config: SolverConfig,
) -> tuple[list[np.ndarray], bool]:
    """Every solution of the affine VI that solves the KKT system of a face.

    Solves and validates the face of every product of the units' labelings
    (see FeasibleSet.labelings) and keeps the validated points whose VI gap
    is within max(tol_gap, 1e-6 * scale).  Returns (solutions, exhaustive);
    with more than config.vertex_cap partitions it enumerates nothing and
    returns ([], False).
    """
    tol = 1e-7 * (1.0 + feasible.total_mass)
    try:
        per_unit = bounded_factors(
            (feasible.labelings(s, tol) for s in range(len(feasible.blocks))), config.vertex_cap, "face"
        )
    except FleetModelError:
        return [], False
    gate = max(tol_gap, 1e-6 * _residual_scale(feasible))
    diagonal = _diagonal_of(b)
    active = np.full(feasible.n_routes, -1)
    found = []
    for combo in itertools.product(*per_unit):
        for block, labels in zip(feasible.blocks, combo):
            active[block] = labels
        point = _face_point(a0, b, feasible, active, diagonal)
        f = None if point is None else _validated(a0, b, feasible, active, point)
        if f is not None and _vi_gap(a0, b, f, feasible) <= gate:
            found.append(f)
    return found, True


# -- route-level inverse -----------------------------------------------------------


def _distinct(solutions: list[np.ndarray], scale: float, tol: float) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for f in solutions:
        if not any(float(np.max(np.abs(f - g))) <= tol * scale for g in out):
            out.append(f)
    return out


def _certificate(
    strategy: FleetStrategy, q: np.ndarray, network: Network, config: SolverConfig
) -> UniquenessCertificate:
    margin = strategy.margin
    pd = network.feasible_direction_pd(q, config.pd_rtol)
    if margin <= MARGIN_EPS:
        reason = (
            "margin lam_crv - lam_hdv is not positive; the assignment operator "
            "is not invertible for this strategy"
        )
        applies = False
    elif not pd.passes:
        reason = (
            "travel-time gradient is not positive definite on feasible "
            f"directions (min pair-swap eigenvalue {pd.min_rayleigh:.3g})"
        )
        applies = False
    else:
        reason = "margin positive and travel-time gradient positive definite on feasible directions"
        applies = True
    return UniquenessCertificate(
        theorem_applies=applies,
        reason=reason,
        min_rayleigh=pd.min_rayleigh,
        margin=margin,
    )


def solve_inverse(
    strategy: FleetStrategy,
    q,
    network: Network,
    sizes=None,
    config: SolverConfig = DEFAULT_CONFIG,
    seed: int | None = None,
) -> InverseResult:
    """Recover the fleet route flow from the observed total flow q.

    Solves the stationarity VI over {0 <= f <= q, per-unit sums = sizes}.
    When the uniqueness certificate fails, `solutions` is f_hat followed by
    the other face solutions (just f_hat, with `exhaustive` False, above
    config.vertex_cap partitions).  `seed` is not read.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (network.n_routes,):
        raise DimensionMismatchError("observed flow must be a route vector")
    if not np.all(np.isfinite(q)):
        raise InfeasibleProblemError("observed flows must be finite")
    if np.any(q < 0):
        raise InfeasibleProblemError("observed flows must be non-negative")
    blocks = network.unit_blocks()
    sizes = network.fleet_sizes() if sizes is None else np.asarray(sizes, dtype=float)
    if not np.all(np.isfinite(sizes)):
        raise InfeasibleProblemError("fleet sizes must be finite")
    for s, block in enumerate(blocks):
        if float(np.sum(q[block])) < sizes[s] - 1e-9 * (1.0 + sizes[s]):
            raise InfeasibleProblemError(
                f"unit {s}: fleet size {sizes[s]} exceeds the observed total "
                f"{float(np.sum(q[block]))} on its routes"
            )
    feasible = FeasibleSet(blocks=blocks, totals=sizes, n_routes=network.n_routes, upper=q)

    certificate = _certificate(strategy, q, network, config)
    a0, b = _affine_operator(strategy, q, network)
    scale = _residual_scale(feasible)
    t_norm = float(np.linalg.norm(network.route_times(q)))
    tol_gap = config.tol_vi * (1.0 + t_norm) * scale

    dependence = network.routes_linearly_independent(config.rank_rtol)

    if feasible.total_mass == 0.0:
        f_hat = np.zeros(network.n_routes)
        return InverseResult(
            f_hat=f_hat,
            h_hat=q.copy(),
            residual=0.0,
            certificate=certificate,
            solutions=(f_hat,),
            converged=True,
            level="route",
        )

    f_hat, gap, converged = _solve_affine_vi(
        a0, b, feasible, tol_gap, config,
        unique=certificate.theorem_applies,
    )
    solutions, exhaustive = [f_hat], True
    if not certificate.theorem_applies:
        faces, exhaustive = _face_solutions(a0, b, feasible, tol_gap, config)
        solutions = _distinct(solutions + faces, scale, config.tol_distinct)

    fiber = None
    if not dependence.independent:
        try:
            fiber = route_fiber(
                network,
                network.route_to_link(f_hat),
                totals=sizes,
                upper=q,
                config=config,
            )
        except NotRealisableError:
            fiber = None

    return InverseResult(
        f_hat=f_hat,
        h_hat=q - f_hat,
        residual=gap / scale,
        certificate=certificate,
        solutions=tuple(solutions),
        converged=converged,
        level="route",
        fiber=fiber,
        exhaustive=exhaustive,
    )


# -- link-level inverse -------------------------------------------------------------


def _link_feasible_basis(network: Network) -> np.ndarray:
    """Orthonormal basis of link-space directions reachable as images of
    feasible route directions."""
    route_basis = network.feasible_direction_basis()
    if route_basis.shape[1] == 0:
        return np.zeros((network.n_links, 0))
    image = network.incidence.T @ route_basis
    u, s, _ = np.linalg.svd(image, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * (s[0] if s.size else 1.0)))
    return u[:, :rank]


def _realisability_check(
    network: Network,
    a: np.ndarray,
    route_totals: np.ndarray,
    config: SolverConfig,
) -> None:
    """Verify some feasible route flow reproduces the observed link flow."""
    fiber = route_fiber(
        network,
        a,
        totals=route_totals,
        upper=None,
        config=config,
        _allow_any=True,
    )
    tol = 1e-6 * (1.0 + float(np.max(np.abs(a))))
    if fiber.residual > tol:
        raise NotRealisableError(
            f"no feasible route flow reproduces the observed link flow "
            f"(best residual {fiber.residual:.3g})"
        )


def inverse_link_flows(
    strategy: FleetStrategy,
    a,
    network: Network,
    sizes=None,
    config: SolverConfig = DEFAULT_CONFIG,
    seed: int | None = None,
) -> InverseResult:
    """Recover the fleet link flow from an observed total link flow.

    The link-space VI is solved through route variables (fleet link flows
    are exactly the images of feasible route flows, a convex set); the
    returned link flow is unique whenever the margin is positive and the
    link-time jacobian is positive definite on realisable directions, even
    if several route flows realize it.  Otherwise `solutions` holds the
    link images of the face solutions, as in solve_inverse.  `seed` is not read.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (network.n_links,):
        raise DimensionMismatchError("observed flow must be a link vector")
    if not np.all(np.isfinite(a)):
        raise InfeasibleProblemError("observed link flows must be finite")
    if np.any(a < 0):
        raise InfeasibleProblemError("observed link flows must be non-negative")
    units = network.units_or_raise()
    sizes = network.fleet_sizes() if sizes is None else np.asarray(sizes, dtype=float)
    if not np.all(np.isfinite(sizes)):
        raise InfeasibleProblemError("fleet sizes must be finite")
    route_totals = np.array([u.q_hdv + u.q_crv for u in units])
    _realisability_check(network, a, route_totals, config)

    blocks = network.unit_blocks()
    feasible = FeasibleSet(blocks=blocks, totals=sizes, n_routes=network.n_routes)

    tau = network.link_travel_times(a)
    jac = network.link_time_jacobian(a)
    margin = strategy.margin
    incidence = network.incidence
    a0 = incidence @ (strategy.lam_crv * tau + jac.T @ (strategy.lam_hdv * a))
    b = margin * incidence @ jac.T @ incidence.T

    scale = _residual_scale(feasible)
    tol_gap = config.tol_vi * (1.0 + float(np.linalg.norm(tau))) * scale
    cert = _link_certificate(margin, jac, network, config)

    if feasible.total_mass == 0.0:
        phi = np.zeros(network.n_links)
        return InverseResult(
            f_hat=phi,
            h_hat=a.copy(),
            residual=0.0,
            certificate=cert,
            solutions=(phi,),
            converged=True,
            level="link",
        )

    f_param, gap, converged = _solve_affine_vi(
        a0, b, feasible, tol_gap, config,
        unique=cert.theorem_applies,
    )
    phi = network.route_to_link(f_param)

    solutions, exhaustive = [phi], True
    if not cert.theorem_applies:
        faces, exhaustive = _face_solutions(a0, b, feasible, tol_gap, config)
        solutions = _distinct(
            [phi] + [network.route_to_link(f) for f in faces], scale, config.tol_distinct
        )

    return InverseResult(
        f_hat=phi,
        h_hat=a - phi,
        residual=gap / scale,
        certificate=cert,
        solutions=tuple(solutions),
        converged=converged,
        level="link",
        exhaustive=exhaustive,
    )


def _link_certificate(
    margin: float, jac: np.ndarray, network: Network, config: SolverConfig
) -> UniquenessCertificate:
    basis = _link_feasible_basis(network)
    if basis.shape[1] == 0:
        min_rayleigh = math.inf
        pd_ok = True
    else:
        sym = 0.5 * (jac + jac.T)
        min_rayleigh = 2.0 * float(np.linalg.eigvalsh(basis.T @ sym @ basis)[0])
        threshold = config.pd_rtol * abs(np.trace(sym)) / max(1, network.n_links)
        pd_ok = min_rayleigh > threshold
    if margin <= MARGIN_EPS:
        applies, reason = False, "margin lam_crv - lam_hdv is not positive"
    elif not pd_ok:
        applies, reason = False, (
            "link-time jacobian is not positive definite on realisable directions"
        )
    else:
        applies, reason = True, (
            "margin positive and link-time jacobian positive definite on realisable directions"
        )
    return UniquenessCertificate(
        theorem_applies=applies,
        reason=reason,
        min_rayleigh=min_rayleigh,
        margin=margin,
    )


# -- route fiber ----------------------------------------------------------------------


def _dykstra_min_norm(
    e: np.ndarray,
    rhs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray | None,
    iterations: int = 4000,
) -> np.ndarray:
    """Projection of the origin onto {x : e x = rhs} intersect the box,
    by Dykstra's alternating projections."""
    pinv = np.linalg.pinv(e)

    def proj_affine(x):
        return x - pinv @ (e @ x - rhs)

    def proj_box(x):
        y = np.maximum(x, lower)
        if upper is not None:
            y = np.minimum(y, upper)
        return y

    x = proj_affine(np.zeros(e.shape[1]))
    p = np.zeros_like(x)
    qc = np.zeros_like(x)
    for _ in range(iterations):
        y = proj_box(x + p)
        p = x + p - y
        x, previous = proj_affine(y + qc), x
        qc = y + qc - x
        scale = 1.0 + float(np.max(np.abs(x)))
        # a cycle can leave x in place while it is still outside the box
        if (
            float(np.max(np.abs(x - previous))) < 1e-13 * scale
            and float(np.max(np.abs(proj_box(x) - x))) <= 1e-12 * scale
        ):
            break
    return x


def route_fiber(
    network: Network,
    phi,
    totals=None,
    upper=None,
    config: SolverConfig = DEFAULT_CONFIG,
    _allow_any: bool = False,
) -> FiberResult:
    """All feasible route flows mapping to the link flow phi.

    Returns the minimum-norm representative, an orthonormal basis of the
    fiber directions (null directions of the conversion that also preserve
    per-unit sums), and the admissible coefficient interval along each
    basis direction.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (network.n_links,):
        raise DimensionMismatchError("phi must be a link vector")
    blocks = network.unit_blocks()
    if totals is None:
        totals = network.fleet_sizes()
    totals = np.asarray(totals, dtype=float)
    upper_arr = None if upper is None else np.asarray(upper, dtype=float)

    rows = [network.incidence.T]
    rhs = [phi]
    indicator = np.zeros((len(blocks), network.n_routes))
    for s, block in enumerate(blocks):
        indicator[s, block] = 1.0
    rows.append(indicator)
    rhs.append(totals)
    e = np.vstack(rows)
    target = np.concatenate(rhs)

    f_p, *_ = np.linalg.lstsq(e, target, rcond=None)
    tol = 1e-7 * (1.0 + float(np.linalg.norm(target)))

    _, s_vals, vt = np.linalg.svd(e)
    rank = int(np.sum(s_vals > config.rank_rtol * (s_vals[0] if s_vals.size else 1.0)))
    basis = vt[rank:].T  # (R, k) orthonormal

    lower = np.zeros(network.n_routes)
    k = basis.shape[1]
    if k == 0:
        rep = f_p
    elif k == 1:
        v = basis[:, 0]
        t_lo, t_hi = _step_interval(f_p, v, lower, upper_arr)
        if t_lo > t_hi:
            t_lo = t_hi = 0.5 * (t_lo + t_hi)
        t_star = float(np.clip(-(f_p @ v), t_lo, t_hi))
        rep = f_p + t_star * v
    else:
        rep = _dykstra_min_norm(e, target, lower, upper_arr)

    # clip into the box so the residual measures constrained realisability
    rep = np.maximum(rep, lower)
    if upper_arr is not None:
        rep = np.minimum(rep, upper_arr)
    rep = np.where(np.abs(rep) < 1e-11 * (1.0 + float(np.max(np.abs(rep)))), 0.0, rep)
    residual = float(np.linalg.norm(e @ rep - target))
    if residual > tol and not _allow_any:
        raise NotRealisableError(
            f"link flow is not realisable by any feasible route flow "
            f"(best residual {residual:.3g})"
        )

    intervals = tuple(
        _step_interval(rep, basis[:, j], lower, upper_arr) for j in range(k)
    )
    return FiberResult(
        representative=rep,
        basis=basis,
        intervals=intervals,
        residual=residual,
    )


def _step_interval(
    point: np.ndarray,
    direction: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray | None,
) -> tuple[float, float]:
    """Admissible coefficient range t with point + t*direction inside the box."""
    t_lo, t_hi = -math.inf, math.inf
    for r in range(len(point)):
        v = direction[r]
        if v > 1e-14:
            t_lo = max(t_lo, (lower[r] - point[r]) / v)
            if upper is not None and math.isfinite(upper[r]):
                t_hi = min(t_hi, (upper[r] - point[r]) / v)
        elif v < -1e-14:
            t_hi = min(t_hi, (lower[r] - point[r]) / v)
            if upper is not None and math.isfinite(upper[r]):
                t_lo = max(t_lo, (upper[r] - point[r]) / v)
    return (t_lo, t_hi)


# -- stability bound -------------------------------------------------------------------


def _hessian_norm_bound(network: Network, q: np.ndarray):
    """Upper bound on the spectral norm of the travel-time second-derivative
    tensor at q (or at each row of a batch): sum over links of
    |tau''| * N^(3/2), N the number of routes through the link."""
    seconds = np.abs(network.delay_table.second_derivatives(network.route_to_link(q)))
    route_counts = np.sum(network.incidence, axis=0)
    total = 0.0
    for link in range(network.n_links):  # accumulated in link order
        total = total + seconds[..., link] * route_counts[link] ** 1.5
    return total


def lipschitz_bound(
    strategy: FleetStrategy,
    network: Network,
    total_demand: float | None = None,
    samples: int = 200,
    seed: int = 0,
) -> LipschitzBound:
    """Stability constant of the inverse map on {|q| = total demand}.

    Samples the demand simplex with independent counter-based substreams,
    estimates the supremum norms of the travel-time gradient and of its
    Lipschitz modulus, the minimum feasible-direction eigenvalue rho, and
    assembles K / (L * rho) bounding |f* - f#| / |q* - q#|.  The samples
    are evaluated as one batch.
    """
    units = network.units_or_raise()
    blocks = network.unit_blocks()
    unit_totals = np.array([u.q_hdv + u.q_crv for u in units])
    if total_demand is not None:
        if len(units) != 1:
            raise ValueError("total_demand override needs a single-unit network")
        unit_totals = np.array([float(total_demand)])
    fleet_mass = float(np.sum(network.fleet_sizes()))
    demand_mass = float(np.sum(unit_totals))

    q = np.zeros((max(samples, 0), network.n_routes))
    for i in range(len(q)):
        # independent counter-based substream per sample
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        for block, total in zip(blocks, unit_totals):
            q[i, block] = rng.dirichlet(np.ones(len(block))) * total
    grad_norms = hess_norms = rhos = []
    if len(q):
        grad_norms = np.linalg.norm(network.route_gradient(q), 2, axis=(1, 2)).tolist()
        hess_norms = _hessian_norm_bound(network, q).tolist()
        rhos = np.broadcast_to(network.restricted_min_eigenvalue(q), len(q)).tolist()
    grad_norm = max(grad_norms, default=0.0)
    hess_norm = max(hess_norms, default=0.0)
    rho = min(rhos, default=math.inf)

    margin = strategy.margin
    constant = (
        max(margin, 0.0) * fleet_mass + abs(strategy.lam_hdv) * demand_mass
    ) * hess_norm + (abs(strategy.lam_crv) + abs(strategy.lam_hdv)) * grad_norm
    defined = margin > 0 and rho > 0 and math.isfinite(rho)
    bound = constant / (margin * rho) if defined else math.inf
    return LipschitzBound(
        constant=constant,
        rho=rho,
        margin=margin,
        grad_norm=grad_norm,
        hess_norm=hess_norm,
        bound=bound,
        defined=defined,
        samples=samples,
    )


# -- discrete pipeline -------------------------------------------------------------------


def _integer_candidates(
    f_hat: np.ndarray, blocks, sizes: np.ndarray, radius: float, cap: int
) -> tuple[np.ndarray, ...]:
    """Nonnegative integer flows within radius of f_hat that round each
    coordinate down or up and keep every unit's size, in ascending
    lexicographic order.

    A unit rounds up exactly as many of its fractional coordinates as its
    size leaves above the sum of the floors, so only those subsets are
    built.  Raises FleetModelError when there are more than cap of them.
    """
    if not np.allclose(sizes, np.round(sizes)) or np.any(f_hat <= -1.0):
        return ()
    # a coordinate in (-1, 0) can only round up to 0; + 0.0 clears -0.0
    low = np.maximum(np.floor(f_hat), 0.0) + 0.0
    ups_per_unit = []
    for block, size in zip(blocks, sizes):
        fractional = block[f_hat[block] > low[block]]
        ups = float(size) - float(np.sum(low[block]))
        k = round(ups)
        if abs(ups - k) >= 1e-9 or not 0 <= k <= len(fractional):
            return ()
        ups_per_unit.append(itertools.combinations(fractional.tolist(), k))
    out = []
    for combo in itertools.product(*bounded_factors(ups_per_unit, cap, "integer candidate")):
        cand = low.copy()
        for ups in combo:
            cand[list(ups)] += 1.0
        # small cushion: f_hat itself carries solver noise
        if float(np.linalg.norm(cand - f_hat)) <= radius * (1.0 + 1e-6) + 1e-6:
            out.append(cand)
    out.sort(key=lambda v: tuple(v))
    return tuple(out)


def discrete_recover(
    strategy: FleetStrategy,
    q,
    network: Network,
    sizes=None,
    config: SolverConfig = DEFAULT_CONFIG,
    seed: int | None = None,
) -> DiscreteRecovery:
    """Recover HDV flows from an integer observation.

    Finds the point of the forward operator's image closest to q (multistart
    projected search over HDV flows with fixed per-unit totals, the forward
    solver evaluated inside), then inverts that nearest image.  Reports the
    achieved distance and the theoretical closeness radius
    2 * Lip(inverse) * rounding radius.
    """
    q = np.asarray(q, dtype=float)
    if not np.allclose(q, np.round(q)):
        raise ValueError("observed flow must be integer-valued for discrete recovery")
    blocks = network.unit_blocks()
    sizes = network.fleet_sizes() if sizes is None else np.asarray(sizes, dtype=float)
    hdv_totals = np.array(
        [float(np.sum(q[block])) - sizes[s] for s, block in enumerate(blocks)]
    )
    if np.any(hdv_totals < -1e-9):
        raise InfeasibleProblemError("fleet sizes exceed the observed unit totals")
    hdv_totals = np.maximum(hdv_totals, 0.0)
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(seed)

    h_set = FeasibleSet(blocks=blocks, totals=hdv_totals, n_routes=network.n_routes)
    forward_set = FeasibleSet(blocks=blocks, totals=sizes, n_routes=network.n_routes)

    def forward(h: np.ndarray) -> np.ndarray:
        return fleet_assign(
            strategy, h, network, feasible=forward_set, config=config, certify=False
        ).f

    norm_order = IMAGE_DISTANCE_NORMS[config.image_distance_norm]

    def distance(h: np.ndarray) -> float:
        return float(np.linalg.norm(h + forward(h) - q, ord=norm_order))

    scale = max(1.0, float(np.sum(hdv_totals)))
    try:
        starts = h_set.vertices(min(64, config.vertex_cap))
    except FleetModelError:
        starts = []
    starts += [h_set.random_point(rng) for _ in range(config.discrete_starts)]

    best_h, best_val = None, math.inf
    for h0 in starts:
        h = h_set.project(h0)
        val = distance(h)
        step = 1.0
        for _ in range(config.max_outer_iter):
            if val <= 1e-10 * scale:
                break
            # follow the image residual: it is per-unit zero-sum, so only the
            # non-negativity clip of the projection can bend it
            residual = q - (h + forward(h))
            improved = False
            trial = step
            while trial > 1e-12:
                h_new = h_set.project(h + trial * residual)
                val_new = distance(h_new)
                if val_new < val - 1e-14 * scale:
                    h, val, improved = h_new, val_new, True
                    step = min(2.0 * trial, 4.0)
                    break
                trial *= 0.5
            if not improved:
                break
        if val < best_val:
            best_h, best_val = h, val
        if best_val <= 1e-10 * scale:
            break

    h_star = best_h if best_h is not None else h_set.project(np.zeros(network.n_routes))
    q_city = h_star + forward(h_star)
    inverse = solve_inverse(strategy, q_city, network, sizes=sizes, config=config, seed=seed)

    lip = lipschitz_bound(strategy, network, samples=100, seed=seed)
    lip_inverse = 1.0 + lip.bound if lip.defined else math.inf
    rounding_radius = math.sqrt(network.n_routes) / 2.0
    closeness = 2.0 * lip_inverse * rounding_radius

    candidates = _integer_candidates(inverse.f_hat, blocks, sizes, rounding_radius, config.vertex_cap)
    return DiscreteRecovery(
        inverse=inverse,
        h_star=h_star,
        q_city=q_city,
        image_distance=best_val,
        lipschitz_inverse=lip_inverse,
        closeness_bound=closeness,
        integer_candidates=candidates,
    )

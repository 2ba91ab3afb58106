"""Inverse fleet assignment: recover fleet flows from observed totals.

Given the observed total route flow q, the strategy weights, and the fleet
sizes (each OD unit's q_crv, read from the network by every entry point),
a fleet flow f consistent with the observation is exactly a solution of
the variational inequality

    A(f*) . (f - f*) >= 0  for all feasible f,
    A(f) = lam_crv * t(q) + grad_t(q)^T (lam_hdv * q + L * f),

over {0 <= f <= q, per-unit sums = fleet sizes}, with L = lam_crv -
lam_hdv.  The operator is affine in f because q is fixed by the
observation.  For L > 0 and a travel-time gradient positive definite on
feasible directions the VI is strictly monotone, hence has at most one
solution: that is the uniqueness certificate reported alongside every
result.  The link level applies the same theorem to an observed link flow
a: the link times and the link-time jacobian at a take the place of t(q)
and its gradient, the route variables are not capped, the jacobian is
tested on realisable link directions, and the answer is the link image of
the route solution.

Both levels run one driver (_recover).  Each entry point validates its
observation and assembles its feasible set, its operator and its
positive-definiteness test (Network.feasible_direction_pd at the route
level, network._pd_certificate on the link level's basis and jacobian);
the driver does the rest, with one method for each class of VI.
Both levels build B = L G^T (_slope_operator) in the form of the route
gradient G that Network._route_gradient_form_at decides at the observed
flow, (R,) or (R, R), and (R,) at L = 0; every step reads it from b.
A certified VI is solved by one least-index pivot (_pivot): each round
solves the KKT system of one lower/free/cap face and flips the
lowest-index route that breaks complementarity there, until the face point
is the solution.  Where b is a positive diagonal, the solution is
clip((mu - a0) / b, 0, u) at each unit's multiplier mu, which the forward's
breakpoint search (FeasibleSet._multiplier_point) finds, and with it the
solution's face, so the pivot's first round confirms it; elsewhere the
pivot starts from the greedy vertex.

When the certificate fails, the solution set is enumerated: every
solution solves the KKT system of its face, so that system is solved on
each lower/free/cap labeling that can hold every unit's fleet
(FeasibleSet.labelings, the walk whose one-free-route labelings are the
forward corners), and its point is kept when the pivot's complementarity
test (_complementarity) finds no broken route there.  Where b is
diagonal each label of a route allows its unit's multiplier only one
interval (_multiplier_windows), so the walk drops every labeling whose
intervals do not meet.  A face whose KKT system is singular (L = 0,
dependent routes) gives its minimum-norm solution.  The listed solution of
least norm is the estimate.  Above SolverConfig.vertex_cap labelings, or
once a unit's walk passes its node budget (3 (routes + 1) (vertex_cap +
1) nodes), the enumeration raises FleetModelError: the solution set is
complete or not given.

Residuals are reported as VI gap per vehicle of fleet mass,
max_x A(f).(f - x) / max(1, fleet mass), in time units.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig, _valid_seed
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    FleetModelError,
    InfeasibleProblemError,
    NotRealisableError,
)
from .forward import FeasibleSet, _assigner, _distinct, _flows, _seeded, _separable_minimum, bounded_factors
from .network import Network, PDCertificate, _pd_certificate, _restricted_min_eigenvalue
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
# discrete recovery's random starts, and its search steps per start
_DISCRETE_STARTS = 20
_MAX_OUTER_ITER = 300


# -- result types ---------------------------------------------------------------


@dataclass(frozen=True)
class UniquenessCertificate:
    """The uniqueness theorem's verdict: it applies when the margin exceeds
    MARGIN_EPS and `pd`, the positive-definiteness test, passes.
    min_rayleigh reads through to pd's, so where the test passed without
    it (see Network.feasible_direction_pd) it is computed only when read."""

    theorem_applies: bool
    reason: str
    pd: PDCertificate
    margin: float

    @property
    def min_rayleigh(self) -> float:
        return self.pd.min_rayleigh


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
    """One inverse at the route or the link level: `solutions` is the whole
    solution set found (one point when the certificate applies), f_hat
    first; a set too large to enumerate raises FleetModelError instead."""

    f_hat: np.ndarray
    h_hat: np.ndarray
    residual: float
    certificate: UniquenessCertificate
    solutions: tuple[np.ndarray, ...]
    converged: bool
    level: str  # "route" or "link"
    fiber: FiberResult | None = None


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
    return _route_operator(strategy, q, network.route_times(q), network.route_gradient(q))


def _route_operator(
    strategy: FleetStrategy, q: np.ndarray, t: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(a0, B) of _affine_operator from the route times t and the route
    gradient grad at q, in the form of Network._route_gradient_form_at:
    the matrix, or its diagonal g (R,), which gives B's diagonal (R,),
    margin g.  Bit for bit the dense operator's a0 and B's diagonal
    wherever each route has one or two links (see _times)."""
    return strategy.lam_crv * t + _times(grad.T, strategy.lam_hdv * q), _slope_operator(strategy.margin, grad)


def _slope_operator(margin: float, grad: np.ndarray) -> np.ndarray:
    """B = margin grad^T at either level, in the form of the route gradient
    grad; a zero margin gives the diagonal (R,) whatever that form."""
    return margin * (np.diagonal(grad) if margin == 0.0 and grad.ndim == 2 else grad.T)


def _times(b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """B f for an operator b given as its diagonal (R,) or as a matrix.
    The + 0.0 makes a zero product +0, as the matrix product's sums do."""
    return b * f + 0.0 if b.ndim == 1 else b @ f


def stationarity_map(strategy: FleetStrategy, q, f, network: Network) -> np.ndarray:
    """The VI operator at candidate f; contracting with a direction g gives
    the directional derivative of the fleet objective at f with HDV flows
    q - f held fixed."""
    q = np.asarray(q, dtype=float)
    f = np.asarray(f, dtype=float)
    if q.shape != f.shape or q.shape != (network.n_routes,):
        raise DimensionMismatchError("q and f must both be route vectors")
    if not np.all(np.isfinite(f)):
        raise InfeasibleProblemError("fleet flows must be finite")
    a0, b = _affine_operator(strategy, q, network)
    return a0 + _times(b, f)


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
    c = a0 + _times(b, f)
    _, best = _linear_minimum(c, feasible)
    return float(c @ f) - best


def _residual_scale(feasible: FeasibleSet) -> float:
    return max(1.0, feasible.total_mass)


# -- affine VI: least-index pivot ------------------------------------------------------


def _active_partition(f: np.ndarray, feasible: FeasibleSet) -> np.ndarray:
    """-1 where f is at its lower bound, +1 where it is at its cap, 0 where it
    is free, each within the route's active band min(1e-6 * (1 + fleet
    mass), 1e-6 * cap), so a tiny cap keeps its own label."""
    band = 1e-6 * (1.0 + feasible.total_mass)
    if feasible.upper is not None:
        band = np.minimum(band, 1e-6 * feasible.upper)
    lower_active = f <= band
    active = np.where(lower_active, -1, 0)
    if feasible.upper is not None:
        active[(f >= feasible.upper - band) & ~lower_active] = 1
    return active


def _face_point(a0: np.ndarray, b: np.ndarray, feasible: FeasibleSet, active: np.ndarray) -> np.ndarray | None:
    """Solve the KKT system on an active partition (see _active_partition):
    free coordinates satisfy A(f)_r = mu_s inside their unit, the others sit
    on their bounds.  None when the solve is not finite; the point is not
    checked against the bounds or the multipliers (see _complementarity).

    When b is a diagonal (R,) with free entries that are nonzero and share
    one sign, each unit's free routes F take forward._separable_minimum(a0_F,
    b_F, T_s), T_s the mass unit s's bound routes leave, O(R).  Otherwise a
    least-squares solve of the KKT system gives its unique or, where it is
    singular, its minimum-norm solution."""
    free = active == 0
    fixed = np.zeros(feasible.n_routes)
    if feasible.upper is not None:
        fixed = np.where(active > 0, feasible.upper, fixed)
    if not np.any(free):
        return fixed
    # the mass each unit's bound routes leave to its free routes
    left = [float(total) - float(np.sum(fixed[block][~free[block]]))
            for block, total in zip(feasible.blocks, feasible.totals)]

    if b.ndim == 1 and (np.all(b[free] > 0.0) or np.all(b[free] < 0.0)):
        point = fixed.copy()
        for block, mass in zip(feasible.blocks, left):
            routes = block[free[block]]
            if len(routes):
                point[routes] = _separable_minimum(a0[routes], b[routes], mass)
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
    lhs[rows, n_free + unit_row] = -1.0
    lhs[n_free + unit_row, rows] = 1.0
    rhs = np.zeros(m)
    if b.ndim == 1:
        # LAPACK reads zero signs.  A diagonal b of one sign comes here only
        # with a zero free entry, and margin * diag(g), the matrix b stands
        # for at either level, gives its off-diagonal zeros that entry's
        # sign.  b couples no free route to a fixed one
        b_free = b[free_idx]
        zeros = b_free[b_free == 0.0]
        lhs[:n_free, :n_free] = zeros[0] if len(zeros) else 0.0
        lhs[rows, rows] = b_free
        rhs[:n_free] = -a0[free_idx]
    else:
        lhs[:n_free, :n_free] = b[np.ix_(free_idx, free_idx)]
        # one dot product per row: a single matrix-vector product can round
        # differently
        rhs[:n_free] = [-a0[r] - float(b[r] @ fixed) for r in free_idx]
    rhs[n_free:] = [left[s] for s in units_with_free]
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


def _kkt_tolerances(a_val: np.ndarray, feasible: FeasibleSet) -> tuple[float, float]:
    """The tolerances of a face point's masses, 1e-9 * (1 + fleet mass), and
    of its multipliers, 1e-10 * (1 + max|A|), A the operator values a_val."""
    return 1e-9 * (1.0 + feasible.total_mass), 1e-10 * (1.0 + float(np.max(np.abs(a_val))))


def _complementarity(
    a_val: np.ndarray, point: np.ndarray, feasible: FeasibleSet, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(broken, crossed): the routes whose label breaks complementarity at
    the face point `point` of the partition `active` (operator values
    a_val), and the bound each free route crossed (see _bound_violations).

    A free route breaks it when it lies outside its bounds.  A bound route
    breaks it when its multiplier has the wrong sign by more than 1e-10 * (1
    + max|A|): a route at 0 that costs less than its unit's multiplier, a
    route at its cap that costs more; the multiplier is the mean cost of
    the unit's free routes or, in a unit with none, the interval [max over
    its cap routes, min over its lower routes].  A route whose cap is 0
    cannot move, so its cost bounds no multiplier.  In a unit with no free
    route whose bounds miss its fleet mass by more than 1e-9 * (1 + fleet
    mass), only the lowest-index route that can close the gap is marked: a
    cap route when the mass is above the total, a lower route when below."""
    tol_mass, tol_dual = _kkt_tolerances(a_val, feasible)
    crossed = np.where(active == 0, _bound_violations(point, feasible), 0)
    broken = crossed != 0
    movable = np.ones(feasible.n_routes, dtype=bool) if feasible.upper is None else feasible.upper > 0.0
    for block, total in zip(feasible.blocks, feasible.totals):
        lower, cap = block[(active[block] < 0) & movable[block]], block[active[block] > 0]
        free_costs = a_val[block[active[block] == 0]]
        mass = float(np.sum(point[block]))
        if len(free_costs):
            mu_lo = mu_hi = float(np.mean(free_costs))
        elif abs(mass - float(total)) > tol_mass:
            broken[np.min(cap if mass > total else lower)] = True
            continue
        else:
            mu_lo = max(a_val[cap], default=-math.inf)
            mu_hi = min(a_val[lower], default=math.inf)
        broken[lower[a_val[lower] < mu_lo - tol_dual]] = True
        broken[cap[a_val[cap] > mu_hi + tol_dual]] = True
    return broken, crossed


def _validated(
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    active: np.ndarray,
    candidate: np.ndarray,
) -> np.ndarray | None:
    """The face point `candidate` of the partition `active` clipped to its
    bounds, if it solves the VI: inside its bounds (see _bound_violations),
    with no route breaking complementarity (see _complementarity), and with
    what a point off a solved face system can also miss, each unit's free
    costs equal within the multipliers' tolerance and its sum within the
    mass tolerance; None otherwise."""
    if np.any(_bound_violations(candidate, feasible)):
        return None
    a_val = a0 + _times(b, candidate)
    if np.any(_complementarity(a_val, candidate, feasible, active)[0]):
        return None
    tol_mass, tol_dual = _kkt_tolerances(a_val, feasible)
    for block, total in zip(feasible.blocks, feasible.totals):
        free_costs = a_val[block[active[block] == 0]]
        if abs(float(np.sum(candidate[block])) - float(total)) > tol_mass or (
            len(free_costs) and float(np.max(np.abs(free_costs - np.mean(free_costs)))) > tol_dual
        ):
            return None
    return np.clip(candidate, 0.0, feasible.upper)


def _pivot(
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    active: np.ndarray,
    tol_gap: float,
    config: SolverConfig,
) -> tuple[np.ndarray | None, int, float | None]:
    """Least-index principal pivoting (Murty 1974; Cottle, Pang and Stone
    1992, section 4.2) on the KKT system of the affine VI, from the
    lower/free/cap partition `active`: the greedy vertex's, or where b is
    a positive diagonal that of the units' multiplier point
    (FeasibleSet._multiplier_point), where the first round finds no broken
    route, barring ties that rounding decides, and only confirms the
    solution.

    Each round solves the face of the working partition (_face_point, in
    closed form when b is a diagonal) and flips the lowest-index
    route that breaks complementarity there (see _complementarity): a free
    route to the bound it crossed, a bound route to free.  When none does,
    the free routes inside their active band (see _active_partition) go
    onto their bounds, and the pivot goes on from there.  It stops when no
    route is inside the band, a partition repeats (as when a banded route's
    multiplier comes out wrong and frees it again), a face solve is not
    finite or config.vertex_cap rounds pass.  Returns (solution, rounds,
    gap): the last face point at which no route broke complementarity,
    clipped to its bounds, if its VI gap is within tol_gap, and None
    otherwise; gap is the solution's VI gap, None without one.

    Finiteness.  On a linear complementarity problem whose matrix is a
    P-matrix, Murty proves that the least-index rule visits no partition
    twice, so it ends within one round per partition.  On the certified
    class b is positive definite on the unit-sum subspace, so every face
    system has one solution and, with the unit multipliers eliminated, the
    routes' complementarity problem has a P-matrix.  The proof does not
    cover the rest: the unit equality rows, a cap as a third label, the
    band step (which moves routes that break no sign) and signs that
    rounding decides inside the tolerances above.  There a repeated
    partition ends the pivot.  It runs only on certified VIs.
    """
    active = active.copy()
    seen: set[bytes] = set()
    found = None  # the last face point where no route broke complementarity
    rounds = 0
    while rounds < config.vertex_cap and active.tobytes() not in seen:
        rounds += 1
        seen.add(active.tobytes())
        point = _face_point(a0, b, feasible, active)
        if point is None:
            break
        broken, crossed = _complementarity(a0 + _times(b, point), point, feasible, active)
        if np.any(broken):
            route = int(np.argmax(broken))
            active[route] = crossed[route]
            continue
        found = np.clip(point, 0.0, feasible.upper)
        labels = _active_partition(point, feasible)
        banded = (active == 0) & (labels != 0)
        if not np.any(banded):
            break
        active[banded] = labels[banded]
    if found is not None:
        gap = _vi_gap(a0, b, found, feasible)
        if gap <= tol_gap:
            return found, rounds, gap
    return None, rounds, None


# -- face enumeration ----------------------------------------------------------------


def _multiplier_windows(a0: np.ndarray, b: np.ndarray, feasible: FeasibleSet) -> np.ndarray:
    """The windows of FeasibleSet.labelings for a diagonal b (R,): route r costs
    A_r = a0_r + b_rr f_r, so its unit's multiplier is at most a0_r when r
    is at 0 (unless its cap is 0: then it bounds none), at least a0_r +
    b_rr u_r when r is at its cap u_r, and between the two when r is free
    (the breakpoints that forward._breakpoint_search sorts).

    The windows are widened by _validated's tolerances, so a labeling whose
    windows do not meet has no face point that _validated accepts: by
    1e-10 * (1 + M), M the largest |A| within tol_feas = 1e-9 * (1 + fleet
    mass) of the bounds, and free routes by a further |b_rr| * tol_feas.
    Such a point puts at most T + k * tol_feas on a route of a unit of k
    routes and fleet T, which stands in for larger (or infinite) caps."""
    tol_feas = 1e-9 * (1.0 + feasible.total_mass)
    most = np.zeros(feasible.n_routes)
    for block, total in zip(feasible.blocks, feasible.totals):
        most[block] = total + len(block) * tol_feas
    caps = math.inf if feasible.upper is None else feasible.upper
    at_cap = a0 + b * np.minimum(caps, most)
    slope = np.abs(b) * tol_feas
    tol = 1e-10 * (1.0 + float(np.max(np.maximum(np.abs(a0), np.abs(at_cap)))) + float(np.max(slope)))
    inf = np.full(feasible.n_routes, math.inf)
    lo = np.column_stack([-inf, np.minimum(a0, at_cap) - slope - tol, at_cap - tol])
    hi = np.column_stack([np.where(caps > 0.0, a0 + tol, math.inf), np.maximum(a0, at_cap) + slope + tol, inf])
    return np.stack([lo, hi], axis=-1)


def _face_solutions(
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    tol_gap: float,
    config: SolverConfig,
) -> list[tuple[np.ndarray, float]]:
    """Every solution of the affine VI that solves the KKT system of a face,
    with its VI gap.

    Solves the face of every product of the units' labelings (see
    FeasibleSet.labelings; where b is a diagonal (R,), only those whose
    multiplier windows meet, see _multiplier_windows) and keeps the points
    that _validated accepts, by the pivot's complementarity test, and whose
    VI gap is within max(tol_gap, 1e-6 * scale), in enumeration order.
    Raises FleetModelError above config.vertex_cap partitions, or when a
    unit's walk passes its node budget at that cap.
    """
    tol = 1e-7 * (1.0 + feasible.total_mass)
    windows = _multiplier_windows(a0, b, feasible) if b.ndim == 1 else None
    per_unit = bounded_factors(
        (feasible.labelings(s, tol, config.vertex_cap, windows=windows) for s in range(len(feasible.blocks))),
        config.vertex_cap, "face",
    )
    gate = max(tol_gap, 1e-6 * _residual_scale(feasible))
    active = np.full(feasible.n_routes, -1)
    found = []
    for combo in itertools.product(*per_unit):
        for block, labels in zip(feasible.blocks, combo):
            active[block] = labels
        point = _face_point(a0, b, feasible, active)
        f = None if point is None else _validated(a0, b, feasible, active, point)
        gap = math.inf if f is None else _vi_gap(a0, b, f, feasible)
        if gap <= gate:
            found.append((f, gap))
    return found


# -- one inverse at either level --------------------------------------------------------


# the certificate's reasons at each level: the margin is not positive; the
# gradient is not positive definite (formatted with its min_rayleigh); the
# theorem applies
_ROUTE_REASONS = (
    "margin lam_crv - lam_hdv is not positive; the assignment operator "
    "is not invertible for this strategy",
    "travel-time gradient is not positive definite on feasible "
    "directions (min pair-swap eigenvalue {:.3g})",
    "margin positive and travel-time gradient positive definite on feasible directions",
)
_LINK_REASONS = (
    "margin lam_crv - lam_hdv is not positive",
    "link-time jacobian is not positive definite on realisable directions",
    "margin positive and link-time jacobian positive definite on realisable directions",
)


def _certificate(
    margin: float, pd: PDCertificate, reasons: tuple[str, str, str]
) -> UniquenessCertificate:
    """The uniqueness theorem applies when the margin exceeds MARGIN_EPS and
    the gradient passes its positive-definiteness test."""
    if margin <= MARGIN_EPS:
        applies, reason = False, reasons[0]
    elif not pd.passes:
        applies, reason = False, reasons[1].format(pd.min_rayleigh)
    else:
        applies, reason = True, reasons[2]
    return UniquenessCertificate(theorem_applies=applies, reason=reason, pd=pd, margin=margin)


def _recover(
    level: str,
    observed: np.ndarray,
    a0: np.ndarray,
    b: np.ndarray,
    feasible: FeasibleSet,
    t_norm: float,
    certificate: UniquenessCertificate,
    config: SolverConfig,
    image=lambda f: f,
    fiber=lambda f_hat: None,
) -> InverseResult:
    """The inverse at one level from its VI a0 + b f over the route
    variables in `feasible`, b a diagonal (R,) or a matrix, with one method
    for each class of VI:

    - certified (at most one solution): the least-index pivot (_pivot)
      from the partition (_active_partition) of the units' multiplier
      point (FeasibleSet._multiplier_point(a0, b), the solution up to
      rounding) when b is a diagonal positive on every route with a
      positive cap, and from the partition of the greedy vertex of a0
      otherwise; that vertex, unconverged, when the pivot stops without a
      solution;
    - any other: the face solutions alone (_face_solutions), first the one
      of least Euclidean norm in the level's flows among those whose gap
      is within the tolerance (among all, if none is; the first such in
      enumeration order on a tie), then the rest in enumeration order; the
      greedy vertex of a0, unconverged, when no face validates.

    Above config.vertex_cap partitions the enumeration raises
    FleetModelError.  The greedy vertex is formed only where one of the
    methods above uses it.

    Each solution is mapped by `image` to the level's flows and listed
    once; f_hat is the first.  The gap tolerance is tol_vi * (1 + t_norm)
    * scale, t_norm the norm of the level's travel times, and the residual
    is f_hat's gap / scale, scale = max(1, fleet mass).  `fiber` maps f_hat
    to the result's fiber."""
    if feasible.total_mass == 0.0:
        f_hat = np.zeros_like(observed)
        return InverseResult(
            f_hat=f_hat, h_hat=observed.copy(), residual=0.0, certificate=certificate,
            solutions=(f_hat,), converged=True, level=level,
        )
    scale = _residual_scale(feasible)
    tol_gap = config.tol_vi * (1.0 + t_norm) * scale
    unique = certificate.theorem_applies

    def greedy() -> np.ndarray:
        return _linear_minimum(a0, feasible)[0]

    # each point with its VI gap, None where no solve has checked it
    if unique:
        movable = np.ones(feasible.n_routes, dtype=bool) if feasible.upper is None else feasible.upper > 0.0
        if b.ndim == 1 and np.all(b[movable] > 0.0):
            start = _active_partition(feasible._multiplier_point(a0, b), feasible)
        else:
            start = _active_partition(greedy(), feasible)
        solution, _, gap = _pivot(a0, b, feasible, start, tol_gap, config)
        found = [(greedy(), None) if solution is None else (solution, gap)]
    else:
        found = _face_solutions(a0, b, feasible, tol_gap, config) or [(greedy(), None)]
    points, gaps = zip(*found)
    images = [image(g) for g in points]
    kept = _distinct(images, scale)
    if not unique and len(kept) > 1:
        # least norm among the solutions within tol_gap, if any is
        first = min(kept, key=lambda i: (gaps[i] > tol_gap, float(np.linalg.norm(images[i]))))
        kept = [first] + [i for i in kept if i != first]
    f_hat = images[kept[0]]
    gap = gaps[kept[0]]
    if gap is None:
        gap = _vi_gap(a0, b, points[kept[0]], feasible)
    return InverseResult(
        f_hat=f_hat,
        h_hat=observed - f_hat,
        residual=gap / scale,
        certificate=certificate,
        solutions=tuple(images[i] for i in kept),
        converged=gap <= tol_gap,
        level=level,
        fiber=fiber(f_hat),
    )


def solve_inverse(
    strategy: FleetStrategy,
    q,
    network: Network,
    config: SolverConfig = DEFAULT_CONFIG,
    seed: int | None = None,
) -> InverseResult:
    """Recover the fleet route flow from the observed total flow q.

    Solves the stationarity VI over {0 <= f <= q, per-unit sums = the
    units' fleet sizes q_crv}.
    One route gradient at q, in Network._route_gradient_form_at's form, gives
    both the operator and the certificate's positive-definiteness test
    (Network.feasible_direction_pd), which on a diagonal gradient mostly
    passes without an eigendecomposition, leaving min_rayleigh to be
    computed when read.  When the uniqueness certificate fails,
    `solutions` lists every face solution, f_hat (the one of least norm,
    see _recover) first; above config.vertex_cap partitions it raises
    FleetModelError.  On linearly dependent routes `fiber` holds the route
    flows that share f_hat's link flow.  `seed` is not read.
    """
    q = _flows(q, network.n_routes, "observed flows")
    feasible = FeasibleSet.from_network(network, upper=q)
    x, t = network._link_flows_and_times(q)
    grad = network._route_gradient_form_at(x)
    pd = network._feasible_direction_pd_at(q, grad, config.pd_rtol)
    a0, b = _route_operator(strategy, q, t, grad)

    def fiber(f_hat: np.ndarray) -> FiberResult | None:
        if network.routes_linearly_independent(config.rank_rtol).independent:
            return None
        try:
            return route_fiber(network, network.route_to_link(f_hat), upper=q, config=config)
        except NotRealisableError:
            return None

    return _recover(
        "route", q, a0, b, feasible, float(np.linalg.norm(t)),
        _certificate(strategy.margin, pd, _ROUTE_REASONS), config, fiber=fiber,
    )


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


def inverse_link_flows(
    strategy: FleetStrategy,
    a,
    network: Network,
    config: SolverConfig = DEFAULT_CONFIG,
) -> InverseResult:
    """Recover the fleet link flow from an observed total link flow.

    The link-space VI is solved through route variables (fleet link flows
    are exactly the images of feasible route flows, a convex set); the
    returned link flow is unique whenever the margin is positive and the
    link-time jacobian is positive definite on realisable directions, even
    if several route flows realize it.  Otherwise `solutions` holds the
    link images of the face solutions, as in solve_inverse (FleetModelError
    above config.vertex_cap partitions).  It draws no random numbers, so
    it takes no seed.

    The route variables are not capped by the observation, so where a is
    off the forward's image f_hat may exceed it on a link and h_hat go
    negative, the certificate applying.  Where a is the link image of a
    forward equilibrium, f_hat is the link image of solve_inverse's.
    """
    a = _flows(a, network.n_links, "observed link flows")
    units = network.units_or_raise()
    feasible = FeasibleSet.from_network(network)
    # a must be the link image of some route flow holding each unit's demand
    demands = np.array([u.q_hdv + u.q_crv for u in units])
    nearest = route_fiber(network, a, totals=demands, config=config, _allow_any=True)
    if nearest.residual > 1e-6 * (1.0 + float(np.max(np.abs(a)))):
        raise NotRealisableError(
            f"no feasible route flow reproduces the observed link flow "
            f"(best residual {nearest.residual:.3g})"
        )

    tau = network.link_travel_times(a)
    jac = network.link_time_jacobian(a)
    a0 = network.incidence @ (strategy.lam_crv * tau + jac.T @ (strategy.lam_hdv * a))
    b = _slope_operator(strategy.margin, network._route_gradient_form_at(a))
    pd = _pd_certificate(_link_feasible_basis(network), jac, config.pd_rtol)
    return _recover(
        "link", a, a0, b, feasible, float(np.linalg.norm(tau)),
        _certificate(strategy.margin, pd, _LINK_REASONS), config, image=network.route_to_link,
    )


# -- route fiber ----------------------------------------------------------------------


def _least_distance(g: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """The least-norm c with g c >= h, None when no c satisfies it (Lawson
    and Hanson 1974, ch. 23): with m = [g^T; h^T], e the last unit vector
    and w >= 0 least in |m w - e|, c = -r[:k] / r[k] for r = m w - e, and
    r = 0 when no c is feasible.  w comes from the Lawson-Hanson active-set
    method, finite in exact arithmetic; ConvergenceError past 3 * len(h)
    steps, SciPy's bound.  Each row [g_i | h_i] is first scaled to unit max
    norm, which keeps its half-space and keeps rows orders of magnitude
    apart from making the active set add and drop one row at every step."""
    k, n = g.shape[1], len(h)
    rows = np.column_stack([g, h])
    norms = np.max(np.abs(rows), axis=1)
    m = (rows / np.where(norms > 0.0, norms, 1.0)[:, None]).T
    e = np.eye(k + 1)[k]
    tol = 10.0 * max(k + 1, n) * np.finfo(float).eps
    w = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        gradient = np.where(passive, -np.inf, m.T @ (e - m @ w))
        # the gradient carries rounding in proportion to the weights
        if np.max(gradient) <= tol * (1.0 + float(np.sum(w))):
            break
        passive[np.argmax(gradient)] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(m[:, passive], e, rcond=None)[0]
            blocking = np.flatnonzero(passive & (s < 0.0))
            if not len(blocking):
                break
            # step from w toward s until the first passive weight reaches 0
            ratios = w[blocking] / (w[blocking] - s[blocking])
            w = w + float(np.min(ratios)) * (s - w)
            passive &= w > tol
            passive[blocking[np.argmin(ratios)]] = False
        w = s
    else:
        raise ConvergenceError(f"least-distance solve exceeded {3 * n} active-set steps")
    r = m @ w - e
    # -r[k] = |r|^2 at the optimum, zero exactly when no c is feasible
    if -r[k] <= tol * (1.0 + float(np.sum(w))):
        return None
    return -r[:k] / r[k]


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
    basis direction.  The representative f_p + basis c is exact: f_p, the
    least-squares flow, is orthogonal to the fiber, so c is the least
    coefficient vector keeping it inside the box (f_p when none does).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (network.n_links,):
        raise DimensionMismatchError("phi must be a link vector")
    if not np.all(np.isfinite(phi)):
        raise InfeasibleProblemError("link flow must be finite")
    # FeasibleSet checks the totals and the caps
    feasible = FeasibleSet.from_network(network, totals, upper)
    blocks, totals = feasible.blocks, feasible.totals
    box = np.full(network.n_routes, math.inf) if feasible.upper is None else feasible.upper

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

    k = basis.shape[1]
    if k == 0:
        rep = f_p
    elif k == 1:
        v = basis[:, 0]
        t_lo, t_hi = _step_interval(f_p, v, box)
        if t_lo > t_hi:
            t_lo = t_hi = 0.5 * (t_lo + t_hi)
        t_star = float(np.clip(-(f_p @ v), t_lo, t_hi))
        rep = f_p + t_star * v
    else:
        capped = np.isfinite(box)
        g, h = np.vstack([basis, -basis[capped]]), np.concatenate([-f_p, f_p[capped] - box[capped]])
        c = _least_distance(g, h)
        rep = f_p if c is None else f_p + basis @ c

    # clip into the box so the residual measures constrained realisability
    rep = np.minimum(np.maximum(rep, 0.0), box)
    rep = np.where(np.abs(rep) < 1e-11 * (1.0 + float(np.max(np.abs(rep)))), 0.0, rep)
    residual = float(np.linalg.norm(e @ rep - target))
    if residual > tol and not _allow_any:
        raise NotRealisableError(
            f"link flow is not realisable by any feasible route flow "
            f"(best residual {residual:.3g})"
        )

    intervals = tuple(
        _step_interval(rep, basis[:, j], box) for j in range(k)
    )
    return FiberResult(
        representative=rep,
        basis=basis,
        intervals=intervals,
        residual=residual,
    )


def _step_interval(point: np.ndarray, direction: np.ndarray, upper: np.ndarray) -> tuple[float, float]:
    """Admissible coefficient range t with point + t*direction inside the
    box [0, upper]."""
    t_lo, t_hi = -math.inf, math.inf
    for p, v, u in zip(point, direction, upper):
        if abs(v) > 1e-14:
            to_lower, to_upper = (0.0 - p) / v, (u - p) / v
            lo, hi = (to_lower, to_upper) if v > 0 else (to_upper, to_lower)
            t_lo, t_hi = max(t_lo, lo), min(t_hi, hi)
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
    samples: int = 200,
    seed: int = 0,
) -> LipschitzBound:
    """Stability constant of the inverse map on {|q| = total demand}.

    Samples the demand simplex with independent counter-based substreams,
    estimates the supremum norms of the travel-time gradient and of its
    Lipschitz modulus, the minimum feasible-direction eigenvalue rho, and
    assembles K / (L * rho) bounding |f* - f#| / |q* - q#|.  The samples
    (at least 1) are evaluated as one batch.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if not _valid_seed(seed):
        raise ValueError(f"seed must lie in [0, 2**63), got {seed!r}")
    units = network.units_or_raise()
    blocks = network.unit_blocks()
    unit_totals = np.array([u.q_hdv + u.q_crv for u in units])
    fleet_mass = float(np.sum(network.fleet_sizes()))
    demand_mass = float(np.sum(unit_totals))

    q = np.zeros((samples, network.n_routes))
    # sample i's own counter-based substream: Philox at key (seed, i), set as
    # Philox(key=...) starts it but without drawing OS entropy
    rng = np.random.Generator(np.random.Philox(0))
    start = rng.bit_generator.state
    for i in range(samples):
        key = {"counter": np.zeros(4, np.uint64), "key": np.array([seed, i], np.uint64)}
        rng.bit_generator.state = {**start, "state": key}
        for block, total in zip(blocks, unit_totals):
            q[i, block] = rng.dirichlet(np.ones(len(block))) * total
    grad = network.route_gradient(q)
    grad_norm = max(np.linalg.norm(grad, 2, axis=(1, 2)).tolist())
    hess_norm = max(_hessian_norm_bound(network, q).tolist())
    basis = network.feasible_direction_basis()
    rho = min(_restricted_min_eigenvalue(basis, grad).tolist()) if basis.shape[1] else math.inf

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
    config: SolverConfig = DEFAULT_CONFIG,
    seed: int = 0,
) -> DiscreteRecovery:
    """Recover HDV flows from an integer observation.

    Finds the point of the forward operator's image closest to q (multistart
    projected search over HDV flows with fixed per-unit totals, the forward
    solver evaluated inside), then inverts that nearest image.  It starts
    from q - f for each solution f of solve_inverse(q), so an observation in
    the image stops at its first start, then from the vertices and random
    points.  Reports the achieved distance and the theoretical closeness radius
    2 * Lip(inverse) * rounding radius; the rounding radius sqrt(R)/2 is an
    l2 radius, so the distance is l2 too.  The units' fleet sizes q_crv
    serve the search, the inverse and the Lipschitz bound alike.
    """
    q = _flows(q, network.n_routes, "observed flows")
    if not np.allclose(q, np.round(q)):
        raise ValueError("observed flow must be integer-valued for discrete recovery")
    blocks, sizes = network.unit_blocks(), network.fleet_sizes()
    hdv_totals = np.array([float(np.sum(q[block])) - size for block, size in zip(blocks, sizes)])
    if np.any(hdv_totals < -1e-9):
        raise InfeasibleProblemError("fleet sizes exceed the observed unit totals")
    hdv_totals = np.maximum(hdv_totals, 0.0)
    rng = np.random.default_rng(_seeded(seed))

    h_set = FeasibleSet(blocks=blocks, totals=hdv_totals, n_routes=network.n_routes)

    def image(h: np.ndarray) -> tuple[float, np.ndarray]:
        """The l2 distance from q of the total flow h + (the forward's f at
        h), and that flow."""
        total = h + assign(h, 0, False).f  # fleet_assign's default seed
        return float(np.linalg.norm(total - q)), total

    scale = max(1.0, float(np.sum(hdv_totals)))
    # each group of starts is optional: the search runs without it
    starts = []
    with contextlib.suppress(FleetModelError):
        starts += [q - f for f in solve_inverse(strategy, q, network, config=config).solutions]
    with contextlib.suppress(FleetModelError):
        starts += h_set.vertices(min(64, config.vertex_cap))
    starts += [h_set.random_point(rng) for _ in range(_DISCRETE_STARTS)]

    # the forward's dispatch, decided once for the search (the points of
    # h_set are checked HDV flows)
    assign = _assigner(strategy, network, config)
    best_h, best_val, best_total = None, math.inf, None
    for h0 in starts:
        h = h_set.project(h0)
        val, total = image(h)
        step = 1.0
        for _ in range(_MAX_OUTER_ITER):
            if val <= 1e-10 * scale:
                break
            # follow the image residual: it is per-unit zero-sum, so only the
            # non-negativity clip of the projection can bend it
            residual = q - total
            improved = False
            trial = step
            while trial > 1e-12:
                h_new = h_set.project(h + trial * residual)
                val_new, total_new = image(h_new)
                if val_new < val - 1e-14 * scale:
                    h, val, total, improved = h_new, val_new, total_new, True
                    step = min(2.0 * trial, 4.0)
                    break
                trial *= 0.5
            if not improved:
                break
        if val < best_val:
            best_h, best_val, best_total = h, val, total
        if best_val <= 1e-10 * scale:
            break

    h_star = best_h if best_h is not None else h_set.project(np.zeros(network.n_routes))
    q_city = best_total if best_h is not None else image(h_star)[1]
    inverse = solve_inverse(strategy, q_city, network, config=config)

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

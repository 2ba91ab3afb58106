"""Forward fleet assignment: minimize the fleet objective over the
feasible polytope, with the solver picked by convexity class.

The feasible set is a product of per-unit simplices (fleet mass of each OD
unit distributed over its routes), optionally intersected with upper
bounds.  The class is decided from the network's structure
(`classify_convexity`), which covers power-family, Webster and
affine/cross-affine networks.  Convex objectives are solved by one
projected Newton descent: Newton steps on the analytic Hessian over the
free face of each unit, with Barzilai-Borwein projected-gradient steps
where the reduced Hessian is not positive semidefinite or the Newton arc
fails.  Concave ones (linear ones included) are solved by corner
enumeration.  Only indefinite objectives run the descent from many starts,
the corners plus random interior points.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import (
    DimensionMismatchError,
    FleetModelError,
    InfeasibleProblemError,
)
from .network import Network
from .objective import (
    ConvexityKind,
    FleetStrategy,
    _gradient_in_f,
    _hessian_in_f,
    classify_convexity,
    eval_objective,
    objective_gradient_in_f,
)
from .parallel import ordered_map

__all__ = [
    "FeasibleSet",
    "AssignmentResult",
    "Certificate",
    "SolverTrace",
    "solve_convex",
    "solve_concave",
    "solve_general",
    "fleet_assign",
    "certify_local_min",
]


# -- feasible set -------------------------------------------------------------


def bounded_factors(factors: Iterable[Iterable], cap: int, what: str) -> list[list]:
    """Each factor as a list, read no deeper than a product of at most cap
    members needs; raises FleetModelError, naming `what`, when the product
    of the factors has more than cap members."""
    lists: list[list] = []
    count = 1
    for factor in factors:
        lists.append(list(itertools.islice(factor, cap // max(count, 1) + 1)))
        count *= len(lists[-1])
        if count > cap:
            raise FleetModelError(f"{what} enumeration exceeded the cap of {cap}; raise vertex_cap")
    return lists


def _project_block_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = total} by the sorting
    method (descending partial means locate the active support)."""
    if total <= 0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    js = np.arange(1, len(v) + 1)
    candidates = u - (css - total) / js
    rho = int(np.nonzero(candidates > 0)[0][-1])
    theta = (css[rho] - total) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _project_block_capped(v: np.ndarray, total: float, upper: np.ndarray) -> np.ndarray:
    """Projection onto {0 <= x <= upper, sum(x) = total} via the shifted clip
    clip(v - theta, 0, upper).

    The mass as a function of theta is piecewise linear and non-increasing
    with breakpoints at v_i and v_i - u_i, so the exact shift is found on the
    bracketing segment."""
    cap_sum = float(np.sum(upper))
    if total >= cap_sum:
        return upper.copy()
    if total <= 0:
        return np.zeros_like(v)
    # caps at or above the block total never bind (each coordinate <= total)
    upper = np.minimum(upper, total)
    bps = np.unique(np.concatenate([v, v - upper]))
    masses = np.sum(np.clip(v[None, :] - bps[:, None], 0.0, upper[None, :]), axis=1)
    # masses is non-increasing along bps; locate the bracketing segment
    idx = int(np.searchsorted(-masses, -total, side="left"))
    if idx == 0:
        theta = bps[0]
    else:
        j = idx - 1
        lo_bp = bps[j]
        hi_bp = bps[min(idx, len(bps) - 1)]
        m_lo = masses[j]
        # slope = number of coordinates strictly between their bounds here
        mid = 0.5 * (lo_bp + hi_bp)
        active = int(np.sum((v - upper < mid) & (mid < v)))
        if active == 0:
            theta = hi_bp
        else:
            theta = lo_bp + (m_lo - total) / active
    return np.clip(v - theta, 0.0, upper)


@dataclass(frozen=True)
class FeasibleSet:
    """Per-unit simplex constraints with optional upper bounds.

    blocks[s] holds the route indices of unit s; totals[s] the fleet mass
    that must be placed on them.  upper is a full-length cap vector or None.
    """

    blocks: tuple[np.ndarray, ...]
    totals: np.ndarray
    n_routes: int
    upper: np.ndarray | None = None

    def __post_init__(self):
        if np.any(self.totals < 0):
            raise InfeasibleProblemError("negative fleet mass")
        if self.upper is not None:
            for block, total in zip(self.blocks, self.totals):
                if float(np.sum(self.upper[block])) < total - 1e-9 * (1.0 + total):
                    raise InfeasibleProblemError(
                        "upper bounds leave too little capacity for the unit's fleet mass"
                    )

    @classmethod
    def from_network(
        cls,
        network: Network,
        totals=None,
        upper=None,
    ) -> "FeasibleSet":
        blocks = network.unit_blocks()
        if totals is None:
            totals = network.fleet_sizes()
        totals = np.asarray(totals, dtype=float)
        if totals.shape != (len(blocks),):
            raise DimensionMismatchError(
                f"expected one fleet total per unit ({len(blocks)}), got {totals.shape}"
            )
        if upper is not None:
            upper = np.asarray(upper, dtype=float)
            if upper.shape != (network.n_routes,):
                raise DimensionMismatchError("upper bound vector has wrong length")
        return cls(
            blocks=blocks,
            totals=totals,
            n_routes=network.n_routes,
            upper=upper,
        )

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.totals))

    def project(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_routes,):
            raise DimensionMismatchError(
                f"expected vector of length {self.n_routes}, got {v.shape}"
            )
        out = np.zeros(self.n_routes)
        for block, total in zip(self.blocks, self.totals):
            if self.upper is None:
                out[block] = _project_block_simplex(v[block], float(total))
            else:
                out[block] = _project_block_capped(v[block], float(total), self.upper[block])
        return out

    def contains(self, f, tol: float = 1e-8) -> bool:
        f = np.asarray(f, dtype=float)
        scale = 1.0 + self.total_mass
        if np.any(f < -tol * scale):
            return False
        if self.upper is not None and np.any(f > self.upper + tol * scale):
            return False
        for block, total in zip(self.blocks, self.totals):
            if abs(float(np.sum(f[block])) - total) > tol * scale:
                return False
        return True

    def _caps(self, s: int) -> list[float]:
        if self.upper is None:
            return [math.inf] * len(self.blocks[s])
        return self.upper[self.blocks[s]].tolist()

    def labelings(self, s: int, tol: float, max_free: float = math.inf) -> Iterator[tuple[int, ...]]:
        """Lower (-1) / free (0) / cap (+1) labelings of unit s's routes, at
        most max_free of them free, that can hold its fleet mass within tol:
        capped mass equal to the total, or below it with free routes whose
        caps reach above it (a free route that must sit at a bound names a
        point another labeling names).  Free and cap labels need a positive
        cap.  Depth first, lower before free before cap at each route, and
        lazily, so a caller may stop early."""
        total = float(self.totals[s])
        caps = self._caps(s)
        # the largest mass routes i.. can hold
        reach = list(itertools.accumulate(caps[::-1]))[::-1] + [0.0]
        stack: list[tuple[tuple[int, ...], float, float]] = [((), 0.0, 0.0)]
        while stack:
            labels, fixed, room = stack.pop()
            i = len(labels)
            if fixed > total + tol or fixed + room + reach[i] < total - tol:
                continue
            if i == len(caps):
                if room > 0.0:
                    keep = fixed < total - tol and fixed + room > total + tol
                else:
                    keep = abs(fixed - total) <= tol
                if keep:
                    yield labels
                continue
            cap = caps[i]
            if cap > 0.0:
                if math.isfinite(cap):
                    stack.append((labels + (1,), fixed + cap, room))
                if labels.count(0) < max_free:
                    stack.append((labels + (0,), fixed, room + cap))
            stack.append((labels + (-1,), fixed, room))

    def vertices(self, cap: int) -> list[np.ndarray]:
        """Every vertex of the set.  A unit's vertices are its labelings with
        at most one free route (see labelings), the free route taking the
        mass its capped routes leave; each unit's are in canonical order
        (mass on the lowest route index first, so e_0 first on an uncapped
        unit), and the units combine in itertools.product order.  Raises
        FleetModelError above cap vertices."""
        totals = self.totals.tolist()
        per_unit = bounded_factors(
            (self.labelings(s, 1e-12 * (1.0 + total), max_free=1) for s, total in enumerate(totals)),
            cap, "vertex",
        )
        points = []
        for s, labelings in enumerate(per_unit):
            caps = self._caps(s)
            unit_points = []
            for labels in labelings:
                x = [c if label > 0 else 0.0 for label, c in zip(labels, caps)]
                if 0 in labels:
                    # the capped mass summed in route order, as the walk sums it
                    x[labels.index(0)] = totals[s] - list(itertools.accumulate(x))[-1]
                unit_points.append(np.array(x))
            points.append(_canonical_order(unit_points))
        out = []
        for combo in itertools.product(*points):
            f = np.zeros(self.n_routes)
            for block, values in zip(self.blocks, combo):
                f[block] = values
            out.append(f)
        return out

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        f = np.zeros(self.n_routes)
        for block, total in zip(self.blocks, self.totals):
            f[block] = rng.dirichlet(np.ones(len(block))) * total
        if self.upper is not None:
            f = self.project(f)
        return f

    def max_step(self, f: np.ndarray, g: np.ndarray) -> float:
        """Largest alpha with f + alpha*g still feasible (g must preserve the
        per-unit sums)."""
        alpha = math.inf
        for r in range(self.n_routes):
            if g[r] < -1e-15:
                alpha = min(alpha, f[r] / -g[r])
            if self.upper is not None and g[r] > 1e-15 and math.isfinite(self.upper[r]):
                alpha = min(alpha, (self.upper[r] - f[r]) / g[r])
        return max(0.0, alpha)


# -- results -------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    is_local_min: bool
    min_directional_derivative: float


@dataclass(frozen=True)
class SolverTrace:
    method: str
    iterations: int
    starts: int
    converged: bool


@dataclass(frozen=True)
class AssignmentResult:
    f: np.ndarray
    objective: float
    certificate: Certificate | None
    trace: SolverTrace
    minimizer_set: tuple[np.ndarray, ...]


# -- certificates ---------------------------------------------------------------


def _centred(grad: np.ndarray, feasible: FeasibleSet) -> np.ndarray:
    """The gradient minus its mean over each unit: the same derivative along
    every feasible direction."""
    out = grad.copy()
    for block in feasible.blocks:
        out[block] -= np.mean(grad[block])
    return out


def _feasible_pair_directions(f: np.ndarray, feasible: FeasibleSet) -> list[np.ndarray]:
    dirs = []
    move_tol = 1e-12 * (1.0 + feasible.total_mass)
    for block in feasible.blocks:
        for j in block:
            if f[j] <= move_tol:
                continue
            for i in block:
                if i == j:
                    continue
                if feasible.upper is not None and f[i] >= feasible.upper[i] - move_tol:
                    continue
                g = np.zeros(feasible.n_routes)
                g[i] = 1.0
                g[j] = -1.0
                dirs.append(g)
    return dirs


def certify_local_min(
    strategy: FleetStrategy,
    h,
    f,
    network: Network,
    feasible: FeasibleSet,
    config: SolverConfig = DEFAULT_CONFIG,
    seed: int | None = None,
) -> Certificate:
    """First-order check that f is a local minimizer of F(h, .) on the set.

    Samples all pair-swap edge directions at f plus n_dirs random feasible
    directions and verifies the directional derivative is >= -tol_dd.  Along
    flat directions (derivative within tolerance of zero) a one-sided second
    difference must not reveal strict descent, which rejects concave interior
    saddle/maximum points that are first-order stationary.
    """
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float)
    rng = np.random.default_rng(config.seed if seed is None else seed)

    directions = _feasible_pair_directions(f, feasible)
    for _ in range(config.n_dirs):
        x = feasible.random_point(rng)
        g = x - f
        norm = float(np.max(np.abs(g)))
        if norm > 1e-12 * (1.0 + feasible.total_mass):
            directions.append(g / norm)

    if not directions:
        return Certificate(is_local_min=True, min_directional_derivative=math.inf)

    grad = objective_gradient_in_f(strategy, h, f, network)
    f_val = eval_objective(strategy, h, f, network)
    tol_dd = config.tol_dd * (1.0 + float(np.max(np.abs(grad))))
    # the directions are zero-sum per unit: centring the gradient per unit
    # keeps the derivatives and drops the rounding of the directions' sums
    centred = _centred(grad, feasible)

    min_dd = math.inf
    ok = True
    eps = float(np.finfo(float).eps)
    for g in directions:
        d1 = float(centred @ g)
        min_dd = min(min_dd, d1)
        if d1 < -tol_dd:
            ok = False
            continue
        if abs(d1) <= tol_dd:
            span = feasible.max_step(f, g)
            delta = min(1e-3 * (1.0 + float(np.max(np.abs(f)))), span / 2.0)
            if delta <= 1e-12:
                continue
            f1 = eval_objective(strategy, h, f + delta * g, network)
            f2 = eval_objective(strategy, h, f + 2.0 * delta * g, network)
            d2 = (f2 - 2.0 * f1 + f_val) / (delta * delta)
            # cancellation noise of the one-sided second difference
            noise = 16.0 * eps * (1.0 + abs(f_val)) / (delta * delta)
            tol_d2 = 10.0 * noise + config.tol_curv * (1.0 + abs(d2))
            if d2 < -tol_d2:
                ok = False
    return Certificate(is_local_min=ok, min_directional_derivative=min_dd)


# -- solvers --------------------------------------------------------------------


def _newton_direction(
    strategy: FleetStrategy,
    h: np.ndarray,
    network: Network,
    feasible: FeasibleSet,
    f: np.ndarray,
    grad: np.ndarray,
    route_grad: np.ndarray,
    p: np.ndarray,
    eps: float,
    pd_rtol: float,
) -> np.ndarray | None:
    """Projected Newton direction on the free face (Bertsekas 1982).

    A coordinate within eps of a bound that the unit gradient projection p
    keeps on that bound is eps-active: the direction puts it exactly on the
    bound and spreads the mass this frees over its unit's free coordinates.
    On the free face it takes the minimum-norm minimizer of the quadratic
    model, with the reduced Hessian Q^T H Q on an orthonormal basis Q of
    each unit's zero-sum free directions, so it never moves along the flat
    directions of linearly dependent routes; the Hessian is built from the
    route gradient route_grad at h + f.  None when the reduced Hessian is not
    positive semidefinite.

    A diagonal route_grad (a separable network, see _gradient_in_f) gives
    a diagonal H.  When every free entry of a unit with two or more free
    routes exceeds pd_rtol times the largest, the step is the closed form
    of the separable resource-allocation problem, O(R): with b = grad + H d
    and one multiplier per unit, mu = sum(b_F / H_F) / sum(1 / H_F), each
    free coordinate moves by -(b_F - mu) / H_F (with b_F and mu taken
    relative to one entry of b_F, see below).  By Cauchy interlacing every
    eigenvalue of the reduced Hessian then lies above the cutoff the
    eigendecomposition would apply, so both give the same step.  Any other
    face, indefinite ones included, takes the eigendecomposition.
    """
    active = (f <= eps) & (p <= 0.0)
    d = np.where(active, -f, 0.0)
    if feasible.upper is not None:
        at_cap = (f >= feasible.upper - eps) & (p >= feasible.upper) & ~active
        d[at_cap] = feasible.upper[at_cap] - f[at_cap]
        active |= at_cap
    faces = []
    for block in feasible.blocks:
        free = block[~active[block]]
        if len(free) == 0:
            continue
        d[free] = -np.sum(d[block]) / len(free)
        if len(free) > 1:
            faces.append(free)
    if not faces:
        return d
    hess = _hessian_in_f(strategy, h, f, network, route_grad)
    if hess.ndim == 1:
        # H and b scaled by the power of 2 that brings the largest free
        # curvature into [0.5, 1): exact, and with subnormal strategy
        # weights it keeps pd_rtol * max and 1 / H_F finite
        curvature = hess[np.concatenate(faces)]
        exponent = -int(np.frexp(np.max(curvature))[1])
        curvature = np.ldexp(curvature, exponent)
        if np.all(curvature > pd_rtol * np.max(curvature)):
            b = np.ldexp(grad + hess * d, exponent)
            hess = np.ldexp(hess, exponent)
            for free in faces:
                # b_F relative to its entry on the flattest route: near a
                # minimum these differences are exact, and the multiplier
                # is then a small correction whose rounding 1 / H_F does
                # not magnify
                excess = b[free] - b[free[np.argmin(hess[free])]]
                mu = np.sum(excess / hess[free]) / np.sum(1.0 / hess[free])
                d[free] -= (excess - mu) / hess[free]
            return d
        hess = np.diag(hess)
    columns = []
    for free in faces:
        # Helmert basis: column k is (1, ..., 1, -k, 0, ...) / sqrt(k (k + 1))
        k = np.arange(1, len(free))
        basis = np.zeros((feasible.n_routes, len(k)))
        helmert = np.triu(np.ones((len(free), len(k)))) - np.diag(k, -1)[:, :-1]
        basis[free] = helmert / np.sqrt(k * (k + 1.0))
        columns.append(basis)
    q = np.hstack(columns)
    w, v = np.linalg.eigh(q.T @ hess @ q)
    cutoff = pd_rtol * float(np.max(np.abs(w)))
    if w[0] < -cutoff:
        return None
    keep = w > cutoff
    return d - q @ (v[:, keep] @ ((v[:, keep].T @ (q.T @ (grad + hess @ d))) / w[keep]))


def _descend(
    strategy: FleetStrategy,
    h: np.ndarray,
    network: Network,
    feasible: FeasibleSet,
    f0: np.ndarray,
    config: SolverConfig,
) -> tuple[np.ndarray, int, bool]:
    """Projected Newton descent from f0; returns (f, iterations, converged).

    Each iteration takes the Newton direction on the free face (see
    _newton_direction) and backtracks along the projection arc P(f + a d).
    Where the reduced Hessian is not positive semidefinite or that arc
    fails, it takes a projected-gradient step whose first trial is the
    Barzilai-Borwein quotient s.s / s.y of the last two iterates (Birgin,
    Martinez and Raydan 2000), at most the step that moves the steepest
    centred gradient entry by 1 + the fleet mass.  It stops when
    max|f - P(f - grad)| <= tol_pg * (1 + max|grad|) and the Newton step is
    at rounding level; that last step is taken, so eps-active coordinates
    end exactly on their bounds.
    """
    scale = 1.0 + feasible.total_mass
    upper = math.inf if feasible.upper is None else feasible.upper

    def arc(x: np.ndarray) -> np.ndarray:
        return x if np.all((x >= 0.0) & (x <= upper)) else feasible.project(x)

    f = feasible.project(f0)
    f_val = eval_objective(strategy, h, f, network)
    previous = None
    converged = False
    iterations = 0
    for iterations in range(1, config.max_pg_iter + 1):
        grad, route_grad = _gradient_in_f(strategy, h, f, network)
        p = feasible.project(f - grad)
        residual = float(np.max(np.abs(f - p)))
        stationary = residual <= config.tol_pg * (1.0 + float(np.max(np.abs(grad))))
        d = _newton_direction(
            strategy, h, network, feasible, f, grad, route_grad, p,
            min(1e-7 * scale, residual), config.pd_rtol,
        )
        if d is not None and float(np.max(np.abs(d))) <= 1e-13 * scale:
            # at rounding level: taken whole only at a stationary point
            f, d = (arc(f + d) if stationary else f), None
        if d is None and stationary:
            converged = True
            break
        step = scale / float(np.max(np.abs(_centred(grad, feasible))))
        if previous is not None:
            s, y = f - previous[0], grad - previous[1]
            if float(s @ y) > 0.0:
                step = min(step, float(s @ s) / float(s @ y))
        arcs = [] if d is None else [lambda a: arc(f + a * d)]
        if not stationary:
            arcs.append(lambda a: feasible.project(f - a * step * grad))
        # Armijo backtracking, with slack for the objective's rounding near
        # a minimum
        f_ref = f_val + 16.0 * np.finfo(float).eps * (1.0 + abs(f_val))
        accepted = None
        for point in arcs:
            a = 1.0
            while accepted is None and a > 1e-16:
                x = point(a)
                x_val = eval_objective(strategy, h, x, network)
                if x_val <= f_ref + config.armijo_c1 * float(grad @ (x - f)):
                    accepted = x, x_val
                a *= config.armijo_factor
        if accepted is None or float(np.max(np.abs(accepted[0] - f))) <= 1e-15 * scale:
            converged = stationary
            break
        previous = (f, grad)
        f, f_val = accepted
    return f, iterations, converged


def solve_convex(
    strategy: FleetStrategy,
    h,
    network: Network,
    feasible: FeasibleSet,
    config: SolverConfig = DEFAULT_CONFIG,
    certify: bool = True,
) -> AssignmentResult:
    """Projected Newton descent (see _descend) for convex objectives; the
    minimizer is unique when the objective is strictly convex."""
    h = np.asarray(h, dtype=float)
    f0 = feasible.project(np.full(feasible.n_routes, feasible.total_mass / max(1, feasible.n_routes)))
    f, iterations, converged = _descend(strategy, h, network, feasible, f0, config)
    cert = certify_local_min(strategy, h, f, network, feasible, config) if certify else None
    return AssignmentResult(
        f=f,
        objective=eval_objective(strategy, h, f, network),
        certificate=cert,
        trace=SolverTrace("projected_gradient", iterations, 1, converged),
        minimizer_set=(f,),
    )


def _canonical_order(candidates: list[np.ndarray]) -> list[np.ndarray]:
    # lexicographically largest first: mass concentrated on the lowest route
    # index becomes the canonical representative
    return sorted(candidates, key=lambda v: tuple(-v))


def solve_concave(
    strategy: FleetStrategy,
    h,
    network: Network,
    feasible: FeasibleSet,
    config: SolverConfig = DEFAULT_CONFIG,
    certify: bool = True,
) -> AssignmentResult:
    """Corner enumeration for concave objectives: minimizers sit at vertices
    of the feasible polytope.  Returns the full tie set."""
    h = np.asarray(h, dtype=float)
    vertices = feasible.vertices(config.vertex_cap)
    values = [eval_objective(strategy, h, v, network) for v in vertices]
    best = min(values)
    window = config.tol_tie * (1.0 + abs(best))
    ties = [v for v, val in zip(vertices, values) if val <= best + window]
    ties = _canonical_order(ties)
    f = ties[0]
    cert = certify_local_min(strategy, h, f, network, feasible, config) if certify else None
    return AssignmentResult(
        f=f,
        objective=eval_objective(strategy, h, f, network),
        certificate=cert,
        trace=SolverTrace("corner_enumeration", len(vertices), len(vertices), True),
        minimizer_set=tuple(ties),
    )


def solve_general(
    strategy: FleetStrategy,
    h,
    network: Network,
    feasible: FeasibleSet,
    seed: int | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
    certify: bool = True,
) -> AssignmentResult:
    """Multistart descent (see _descend) for objectives that are neither
    convex nor concave.  Starts from every vertex plus n_starts random
    interior points; returns the best local minimizer found and all
    distinct ones."""
    h = np.asarray(h, dtype=float)
    rng = np.random.default_rng(config.seed if seed is None else seed)
    try:
        starts = feasible.vertices(config.vertex_cap)
    except FleetModelError:
        starts = []
    starts = starts + [feasible.random_point(rng) for _ in range(config.n_starts)]

    def run_start(f0):
        f, iterations, converged = _descend(strategy, h, network, feasible, f0, config)
        return f, iterations, converged, eval_objective(strategy, h, f, network)

    # reduction stays ordered by start index, so the outcome is independent
    # of the worker count
    outcomes = ordered_map(run_start, starts, config.max_threads)

    scale = 1.0 + feasible.total_mass
    found: list[tuple[np.ndarray, float]] = []
    total_iter = 0
    any_converged = False
    for f, iterations, converged, val in outcomes:
        total_iter += iterations
        any_converged = any_converged or converged
        for g, _ in found:
            if float(np.max(np.abs(g - f))) <= config.tol_distinct * scale:
                break
        else:
            found.append((f, val))
    found.sort(key=lambda pair: pair[1])
    best_f, best_val = found[0]
    cert = certify_local_min(strategy, h, best_f, network, feasible, config) if certify else None
    return AssignmentResult(
        f=best_f,
        objective=best_val,
        certificate=cert,
        trace=SolverTrace("multistart_projected_gradient", total_iter, len(starts), any_converged),
        minimizer_set=tuple(f for f, _ in found),
    )


def fleet_assign(
    strategy: FleetStrategy,
    h,
    network: Network,
    seed: int | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
    feasible: FeasibleSet | None = None,
    certify: bool = True,
) -> AssignmentResult:
    """The forward assignment operator: best response of the fleet to HDV
    flows h, dispatched on the objective's convexity class.

    The total-flow operator is h + fleet_assign(...).f.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise InfeasibleProblemError("HDV flows must be finite")
    if np.any(h < 0):
        raise InfeasibleProblemError("HDV flows must be non-negative")
    if feasible is None:
        feasible = FeasibleSet.from_network(network)

    if feasible.total_mass == 0.0:
        f = np.zeros(feasible.n_routes)
        return AssignmentResult(
            f=f,
            objective=eval_objective(strategy, h, f, network),
            certificate=Certificate(True, math.inf),
            trace=SolverTrace("empty_fleet", 0, 0, True),
            minimizer_set=(f,),
        )

    kind = classify_convexity(strategy, network, config.pd_rtol).kind
    if kind is ConvexityKind.CONVEX_EVERYWHERE:
        return solve_convex(strategy, h, network, feasible, config, certify=certify)
    if kind is ConvexityKind.CONCAVE_EVERYWHERE:
        return solve_concave(strategy, h, network, feasible, config, certify=certify)
    return solve_general(strategy, h, network, feasible, seed=seed, config=config, certify=certify)

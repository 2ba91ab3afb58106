"""Forward fleet assignment: minimize the fleet objective over the
feasible polytope, with the solver picked by convexity class.

Every entry point builds its feasible set from the network's OD units: a
product of per-unit simplices, each unit's fleet size q_crv distributed
over its routes.  (FeasibleSet also takes upper bounds, with which the
inverse caps the set by the observation.)  The class is decided from the
network's structure (the kind of `classify_convexity`), which covers
power-family, Webster and affine/cross-affine networks.  Convex
objectives are solved by one projected Newton descent: Newton steps on
the analytic Hessian over the free face of each unit, with
Barzilai-Borwein projected-gradient steps where the reduced Hessian is not
positive semidefinite or the Newton arc fails.  Concave ones (linear ones
included) are solved by corner enumeration.  Only indefinite objectives
run the descent from many starts, the corners plus random interior points.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

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
    _evaluate,
    _gradient_in_f,
    _hessian_in_f,
    _convexity_kind,
    _Point,
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

# method constants (relative thresholds, scaled where used)
_TOL_PG = 1e-9         # max|f - P(f - grad F)| target, x (1 + max|grad F|)
_TOL_TIE = 1e-9        # tie window for minima, x (1 + |best|)
_TOL_DD = 1e-8         # directional-derivative slack in certificates, x (1 + max|grad F|)
_TOL_DISTINCT = 1e-6   # minimizers distinct if max|df| exceeds this x (1 + fleet mass)
# Armijo sufficient-decrease constant and backtracking factor (Nocedal and
# Wright 2006, section 3.1)
_ARMIJO_C1 = 1e-4
_ARMIJO_FACTOR = 0.5


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
    css = u.cumsum()
    js = np.arange(1, len(v) + 1)
    candidates = u - (css - total) / js
    candidates[0] = total  # its exact value, which rounding can zero
    rho = int((candidates > 0).nonzero()[0][-1])
    theta = (css[rho] - total) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _breakpoint_search(lo: np.ndarray, slope: np.ndarray, upper: np.ndarray, total: float) -> np.ndarray:
    """The point x(mu) = clip((mu - lo) / slope, 0, upper) whose sum is
    total, for positive slopes and positive (possibly infinite) caps, by one
    sorted breakpoint search (Pardalos and Kovoor 1990), O(k log k): the
    mass of x(mu) is piecewise linear and nondecreasing in mu, with
    breakpoints lo_r and lo_r + slope_r upper_r, where route r leaves 0 and
    reaches its cap.  Sorted, they give the mass at each breakpoint from the
    running sum of 1 / slope; mu solves the linear piece that reaches
    total, or is the last breakpoint when the caps hold less."""
    hi = lo + slope * upper
    finite = np.isfinite(hi)
    points = np.concatenate([lo, hi[finite]])
    order = np.argsort(points, kind="stable")
    points = points[order]
    # the mass's slope right of each breakpoint, and the mass at each
    rate = np.cumsum(np.concatenate([1.0 / slope, -1.0 / slope[finite]])[order])
    mass = np.concatenate([[0.0], np.cumsum(rate[:-1] * np.diff(points))])
    # the last breakpoint whose mass is below total
    j = int(np.searchsorted(mass, total)) - 1
    mu = points[j] + (total - mass[j]) / rate[j] if rate[j] > 0.0 else points[j]
    return np.clip((mu - lo) / slope, 0.0, upper)


@dataclass(frozen=True)
class FeasibleSet:
    """Per-unit simplex constraints with optional upper bounds.

    blocks[s] holds the route indices of unit s; totals[s] the fleet mass
    that must be placed on them.  upper is None or a cap vector of length
    n_routes, with no NaN or negative cap.  totals and upper are taken as
    float arrays, and total_mass, the sum of the totals, once, at
    construction.
    """

    blocks: tuple[np.ndarray, ...]
    totals: np.ndarray
    n_routes: int
    upper: np.ndarray | None = None
    total_mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "totals", np.asarray(self.totals, dtype=float))
        if self.upper is not None:
            object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
            if self.upper.shape != (self.n_routes,):
                raise DimensionMismatchError(
                    f"upper bound vector has wrong length: expected {self.n_routes}, "
                    f"got shape {self.upper.shape}"
                )
        if self.totals.shape != (len(self.blocks),):
            raise DimensionMismatchError(
                f"expected one fleet total per unit ({len(self.blocks)}), got {self.totals.shape}"
            )
        if not np.all(np.isfinite(self.totals)):
            raise InfeasibleProblemError("fleet sizes must be finite")
        if np.any(self.totals < 0):
            raise InfeasibleProblemError("negative fleet mass")
        object.__setattr__(self, "total_mass", float(np.sum(self.totals)))
        if self.upper is not None:
            if not np.all(self.upper >= 0.0):  # NaN fails the test too
                nan = np.any(np.isnan(self.upper))
                raise InfeasibleProblemError(f"upper bounds must {'not be NaN' if nan else 'be non-negative'}")
            for s, (block, total) in enumerate(zip(self.blocks, self.totals)):
                capacity = float(np.sum(self.upper[block]))
                if capacity < total - 1e-9 * (1.0 + total):
                    raise InfeasibleProblemError(
                        f"unit {s}: fleet size {total} exceeds the observed total "
                        f"{capacity} on its routes"
                    )

    @classmethod
    def from_network(cls, network: Network, totals=None, upper=None) -> "FeasibleSet":
        return cls(
            blocks=network.unit_blocks(),
            totals=network.fleet_sizes() if totals is None else totals,
            n_routes=network.n_routes,
            upper=upper,
        )

    def project(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_routes,):
            raise DimensionMismatchError(
                f"expected vector of length {self.n_routes}, got {v.shape}"
            )
        if self.upper is None and len(self.blocks) == 1 and len(self.blocks[0]) == self.n_routes:
            # one uncapped unit over every route: v's own simplex projection,
            # which does not depend on the order the unit lists its routes in
            return _project_block_simplex(v, float(self.totals[0]))
        if self.upper is not None:
            # clip(v - theta, 0, upper) per unit, theta = -mu
            return self._multiplier_point(-v, np.ones(self.n_routes))
        out = np.zeros(self.n_routes)
        for block, total in zip(self.blocks, self.totals):
            out[block] = _project_block_simplex(v[block], float(total))
        return out

    def _multiplier_point(self, lo: np.ndarray, slope: np.ndarray) -> np.ndarray:
        """Per unit, the point clip((mu - lo) / slope, 0, upper) that holds
        its total on its routes with a positive cap, where slope must be
        positive (_breakpoint_search); routes with cap 0 stay at 0.  At lo =
        -v and unit slopes it is v's projection; at the affine VI's a0 and
        diagonal b, the VI's solution, mu the units' multipliers."""
        caps = np.full(self.n_routes, math.inf) if self.upper is None else self.upper
        x = np.zeros(self.n_routes)
        for block, total in zip(self.blocks, self.totals):
            routes = block[caps[block] > 0.0]
            if total > 0.0 and len(routes):
                x[routes] = _breakpoint_search(lo[routes], slope[routes], caps[routes], float(total))
        return x

    def contains(self, f, tol: float = 1e-8) -> bool:
        """Whether f is finite and within tol * (1 + fleet mass) of its
        bounds and of each unit's total."""
        f = np.asarray(f, dtype=float)
        slack = tol * (1.0 + self.total_mass)
        upper = math.inf if self.upper is None else self.upper
        sums = np.array([np.sum(f[block]) for block in self.blocks])
        inside = np.all((f >= -slack) & (f <= upper + slack))
        return bool(inside and np.all(np.abs(sums - self.totals) <= slack))

    def _caps(self, s: int) -> list[float]:
        if self.upper is None:
            return [math.inf] * len(self.blocks[s])
        return self.upper[self.blocks[s]].tolist()

    def labelings(
        self, s: int, tol: float, cap: int, max_free: float = math.inf, windows: np.ndarray | None = None
    ) -> Iterator[tuple[int, ...]]:
        """Lower (-1) / free (0) / cap (+1) labelings of unit s's routes, at
        most max_free of them free, that can hold its fleet mass within tol:
        capped mass equal to the total, or below it with free routes whose
        caps reach above it (a free route that must sit at a bound names a
        point another labeling names).  Free and cap labels need a positive
        cap.  With `windows`, an (n_routes, 3, 2) array of the interval
        [lo, hi] of the unit's multiplier that each route's label (-1, 0,
        +1) allows, a branch ends once its labels' intervals do not meet.
        Depth first, lower before free before cap at each route, and
        lazily, so a caller may stop early.

        The walk pops at most 3 (routes + 1) (cap + 1) nodes, room for cap
        + 1 root-to-leaf paths of routes + 1 nodes and the up to three
        children each node pushes; past that it raises FleetModelError,
        naming the walk, however few labelings it has yielded."""
        total = float(self.totals[s])
        caps = self._caps(s)
        budget = 3 * (len(caps) + 1) * (cap + 1)
        # the largest mass routes i.. can hold
        reach = list(itertools.accumulate(caps[::-1]))[::-1] + [0.0]
        allowed = None if windows is None else windows[self.blocks[s]].tolist()
        # (labels, capped mass, free routes' cap sum, multiplier interval)
        stack = [((), 0.0, 0.0, (-math.inf, math.inf))]
        for _ in range(budget):
            if not stack:
                return
            labels, fixed, room, mu = stack.pop()
            i = len(labels)
            if fixed > total + tol or fixed + room + reach[i] < total - tol or mu[0] > mu[1]:
                continue
            if i == len(caps):
                if room > 0.0:
                    keep = fixed < total - tol and fixed + room > total + tol
                else:
                    keep = abs(fixed - total) <= tol
                if keep:
                    yield labels
                continue
            route_cap = caps[i]
            lower = free = capped = mu
            if allowed is not None:
                lower, free, capped = ((max(mu[0], lo), min(mu[1], hi)) for lo, hi in allowed[i])
            if route_cap > 0.0:
                if math.isfinite(route_cap):
                    stack.append((labels + (1,), fixed + route_cap, room, capped))
                if labels.count(0) < max_free:
                    stack.append((labels + (0,), fixed, room + route_cap, free))
            stack.append((labels + (-1,), fixed, room, lower))
        if stack:
            raise FleetModelError(
                f"the labeling walk of unit {s} passed its budget of {budget} nodes, "
                f"3 (routes + 1) (cap + 1) at the cap of {cap}; raise vertex_cap"
            )

    def vertices(self, cap: int) -> list[np.ndarray]:
        """Every vertex of the set.  A unit's vertices are its labelings with
        at most one free route (see labelings), the free route taking the
        mass its capped routes leave; each unit's are in canonical order
        (mass on the lowest route index first, so e_0 first on an uncapped
        unit), and the units combine in itertools.product order.  Raises
        FleetModelError above cap vertices, or when a capped unit's walk
        passes its node budget at cap (see labelings)."""
        totals = self.totals.tolist()
        tols = [1e-12 * (1.0 + total) for total in totals]
        if self.upper is None:
            # every labeling has one free route: total * e_i in route order,
            # or none and the origin alone when the total is within tol of 0
            points = bounded_factors(
                (
                    [np.zeros(len(block))] if total <= tol else total * np.eye(len(block))
                    for block, total, tol in zip(self.blocks, totals, tols)
                ),
                cap, "vertex",
            )
        else:
            per_unit = bounded_factors(
                (self.labelings(s, tol, cap, max_free=1) for s, tol in enumerate(tols)), cap, "vertex"
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


# -- results -------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """certify_local_min's verdict.  min_directional_derivative is the
    least derivative along a feasible pair swap e_i - e_j (inf when no pair
    is feasible); is_local_min holds when that is at least -tol_dd and the
    objective has no negative curvature on the critical span (see
    certify_local_min)."""

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


def _zero_sum_basis(faces: list[np.ndarray], n_routes: int) -> np.ndarray:
    """Orthonormal basis (n_routes, sum(len(face) - 1)) of the directions
    that move mass only among the routes of each face and keep each face's
    sum: one Helmert block per face, whose column k is
    (1, ..., 1, -k, 0, ...) / sqrt(k (k + 1))."""
    columns = []
    for face in faces:
        k = np.arange(1, len(face))
        basis = np.zeros((n_routes, len(k)))
        helmert = np.triu(np.ones((len(face), len(k)))) - np.diag(k, -1)[:, :-1]
        basis[face] = helmert / np.sqrt(k * (k + 1.0))
        columns.append(basis)
    return np.hstack(columns)


def _flows(x, n: int, what: str = "HDV flows") -> np.ndarray:
    """The flows x (what names them) as a float vector of length n, finite
    and non-negative."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatchError(f"{what} must be a vector of length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InfeasibleProblemError(f"{what} must be finite")
    if np.any(x < 0):
        raise InfeasibleProblemError(f"{what} must be non-negative")
    return x


def certify_local_min(
    strategy: FleetStrategy,
    h,
    f,
    network: Network,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Certificate:
    """First- and second-order test that f is a local minimizer of F(h, .)
    on the network's feasible set, from one gradient and at most one
    Hessian.

    First order: the pair swaps e_i - e_j within a unit, with route j above
    zero, generate the set's tangent cone at f,
    so f is stationary exactly when the least pair derivative c_i - c_j
    (c the gradient centred per unit) is at least -tol_dd.  Second order:
    the pairs whose derivative lies within tol_dd of zero span the critical
    directions; on the zero-sum span of the routes they touch in each unit
    the reduced Hessian may have no eigenvalue below -pd_rtol times its
    largest |eigenvalue|, the cutoff of _newton_direction (no negative
    curvature on the critical cone, Nocedal and Wright 2006, Thm 12.5).
    The span contains that cone, so the test may reject a degenerate
    minimum, but it never passes a point with a descending pair or with
    negative curvature along a critical direction.  It checks these
    necessary conditions and is no proof of strict minimality.

    Raises DimensionMismatchError unless h and f are vectors of the set's
    length, and InfeasibleProblemError unless h is finite and non-negative
    and f is a finite point of the set (FeasibleSet.contains).
    """
    feasible = FeasibleSet.from_network(network)
    return _certify(strategy, _flows(h, network.n_routes), f, network, feasible, config)


def _certify(strategy, h, f, network, feasible, config, point: _Point | None = None) -> Certificate:
    """certify_local_min at checked HDV flows h, its checks of f included,
    at f's point (evaluated here when None)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (feasible.n_routes,):
        raise DimensionMismatchError(f"fleet flows must be a vector of length {feasible.n_routes}")
    if not feasible.contains(f):
        raise InfeasibleProblemError("fleet flows must be finite and lie in the feasible set")
    if point is None:
        point = _evaluate(strategy, h, f, network)
    grad, route_grad = _gradient_in_f(strategy, point, network)
    tol_dd = _TOL_DD * (1.0 + float(np.max(np.abs(grad))))
    move_tol = 1e-12 * (1.0 + feasible.total_mass)
    centred = _centred(grad, feasible)
    min_dd = math.inf
    faces = []
    for block in feasible.blocks:
        c = centred[block]
        # pairs[i, j]: mass may move from route j to route i
        pairs = np.tile(f[block] > move_tol, (len(block), 1))
        np.fill_diagonal(pairs, False)
        if not pairs.any():
            continue
        derivative = c[:, None] - c[None, :]
        min_dd = min(min_dd, float(np.min(derivative[pairs])))
        flat = pairs & (np.abs(derivative) <= tol_dd)
        if flat.any():
            faces.append(block[flat.any(axis=0) | flat.any(axis=1)])
    ok = min_dd >= -tol_dd
    if ok and faces:
        hess = _hessian_in_f(strategy, point, network, route_grad)
        if hess.ndim == 1:
            hess = np.diag(hess)
        q = _zero_sum_basis(faces, feasible.n_routes)
        w = np.linalg.eigvalsh(q.T @ hess @ q)
        ok = w[0] >= -config.pd_rtol * float(np.max(np.abs(w)))
    return Certificate(is_local_min=bool(ok), min_directional_derivative=min_dd)


# -- solvers --------------------------------------------------------------------


def _separable_minimum(c: np.ndarray, curvature: np.ndarray, mass: float) -> np.ndarray:
    """The stationary point x of sum(c x + curvature x^2 / 2) on sum(x) =
    mass, its minimizer when the curvatures are positive; all of them must
    share one sign.  This is the closed form of the separable
    resource-allocation problem (Patriksson 2008), O(R): x = (mu - c) /
    curvature with mu = (mass + sum(c / curvature)) / sum(1 / curvature)."""
    # c relative to its entry on the flattest route, whose 1 / curvature
    # dominates the sums: near a solution these differences are exact, and
    # mu is then a small correction whose rounding 1 / curvature does not
    # magnify
    excess = c - c[np.abs(curvature).argmin()]
    mu = (mass + (excess / curvature).sum()) / (1.0 / curvature).sum()
    return (mu - excess) / curvature


def _newton_direction(
    strategy: FleetStrategy,
    point: _Point,
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

    A coordinate within eps of zero that the unit gradient projection p
    keeps at zero is eps-active: the direction puts it exactly at zero and
    spreads the mass this frees over its unit's free coordinates.
    On the free face it takes the minimum-norm minimizer of the quadratic
    model, with the reduced Hessian Q^T H Q on an orthonormal basis Q of
    each unit's zero-sum free directions, so it never moves along the flat
    directions of linearly dependent routes; the Hessian is built, only
    when a unit has two or more free routes, from f's evaluated point and
    the route gradient route_grad there.  None when the reduced Hessian is
    not positive semidefinite.

    A diagonal route_grad (see Network._route_gradient_form_at) gives
    a diagonal H.  When every free entry of a unit with two or more free
    routes exceeds pd_rtol times the largest, H and b = grad + H d are
    scaled by one power of 2 and each unit's free coordinates move by
    _separable_minimum(b_F, H_F, 0), the O(R) closed form.  By Cauchy
    interlacing every eigenvalue of the reduced Hessian then lies above the
    cutoff the eigendecomposition would apply, so both give the same step.
    Any other face, indefinite ones included, takes the eigendecomposition.
    """
    active = (f <= eps) & (p <= 0.0)
    d = np.where(active, -f, 0.0)
    faces = []
    for block in feasible.blocks:
        free = block[~active[block]]
        if len(free) == 0:
            continue
        d[free] = -d[block].sum() / len(free)
        if len(free) > 1:
            faces.append(free)
    if not faces:
        return d
    hess = _hessian_in_f(strategy, point, network, route_grad)
    if hess.ndim == 1:
        # H and b scaled by the power of 2 that brings the largest free
        # curvature into [0.5, 1): exact, and with subnormal strategy
        # weights it keeps pd_rtol * max and 1 / H_F finite
        curvature = hess[faces[0] if len(faces) == 1 else np.concatenate(faces)]
        exponent = -math.frexp(curvature.max())[1]
        curvature = np.ldexp(curvature, exponent)
        if (curvature > pd_rtol * curvature.max()).all():
            b = np.ldexp(grad + hess * d, exponent)
            hess = np.ldexp(hess, exponent)
            for free in faces:
                d[free] += _separable_minimum(b[free], hess[free], 0.0)
            return d
        hess = np.diag(hess)
    q = _zero_sum_basis(faces, feasible.n_routes)
    w, v = np.linalg.eigh(q.T @ hess @ q)
    cutoff = pd_rtol * float(np.max(np.abs(w)))
    if w[0] < -cutoff:
        return None
    keep = w > cutoff
    return d - q @ (v[:, keep] @ ((v[:, keep].T @ (q.T @ (grad + hess @ d))) / w[keep]))


def _backtrack(a: float, f_val: float, slope: float, x_val: float, factor: float) -> float:
    """The next Armijo trial step after step a was rejected: the minimizer
    a* of the quadratic in the step with value f_val at 0, derivative slope
    / a there (slope = grad . (x - f), x the rejected trial point) and value
    x_val at a, safeguarded as min(factor a, max(0.1 a, a*)); factor a
    when that quadratic has no positive curvature (Nocedal and Wright 2006,
    section 3.5).  With factor <= 0.1 the result is always factor a."""
    curvature = x_val - f_val - slope
    if not curvature > 0.0:
        return factor * a
    return min(factor * a, max(0.1 * a, -slope * a / (2.0 * curvature)))


def _descend(
    strategy: FleetStrategy,
    h: np.ndarray,
    network: Network,
    feasible: FeasibleSet,
    f0: np.ndarray,
    config: SolverConfig,
) -> tuple[np.ndarray, int, bool, _Point]:
    """Projected Newton descent from f0; returns (f, iterations, converged,
    point), point f's evaluation (objective._evaluate), of value F(h, f).

    Each iteration takes the Newton direction on the free face (see
    _newton_direction) and backtracks along the projection arc P(f + a d).
    Where the reduced Hessian is not positive semidefinite or that arc
    fails, it takes a projected-gradient step whose first trial is the
    Barzilai-Borwein quotient s.s / s.y of the last two iterates (Birgin,
    Martinez and Raydan 2000), at most the step that moves the steepest
    centred gradient entry by 1 + the fleet mass; that step is computed
    only when this arc is tried.  Each arc first tries a = 1; after a
    rejected trial the next a interpolates (see _backtrack), and an arc
    fails once a falls to 1e-16 (each rejection multiplies a by at most
    _ARMIJO_FACTOR = 0.5: within 54 trials).  Each point is evaluated once
    (objective._evaluate, at checked HDV flows h): the accepted
    trial's link flows, weights and travel times give the next iteration's
    gradient, and its link flows and weights the Hessian, which is built
    only when a face needs it.  It stops when max|f - P(f - grad)| <=
    _TOL_PG * (1 + max|grad|) and the Newton step is at rounding level; that
    last step is taken, so eps-active coordinates end exactly on their
    bounds.  f's point is the last evaluated one, evaluated once more only
    when that last step moved f.
    """
    scale = 1.0 + feasible.total_mass
    rounding = 16.0 * np.finfo(float).eps

    def arc(x: np.ndarray) -> np.ndarray:
        # x.min() is NaN when an entry is, and NaN fails the test
        return x if x.min() >= 0.0 else feasible.project(x)

    def search(path) -> tuple[np.ndarray, _Point] | None:
        # Armijo backtracking along path(a), with slack for the objective's
        # rounding near a minimum; the accepted trial's point, or None
        f_ref = here.value + rounding * (1.0 + abs(here.value))
        a = 1.0
        while a > 1e-16:
            x = path(a)
            trial = _evaluate(strategy, h, x, network)
            slope = float(grad @ (x - f))
            if trial.value <= f_ref + _ARMIJO_C1 * slope:
                return x, trial
            a = _backtrack(a, here.value, slope, trial.value, _ARMIJO_FACTOR)
        return None

    f = feasible.project(f0)
    here = _evaluate(strategy, h, f, network)
    previous = None
    converged = False
    iterations = 0
    for iterations in range(1, config.max_pg_iter + 1):
        grad, route_grad = _gradient_in_f(strategy, here, network)
        p = feasible.project(f - grad)
        residual = float(np.abs(f - p).max())
        stationary = residual <= _TOL_PG * (1.0 + float(np.abs(grad).max()))
        d = _newton_direction(
            strategy, here, network, feasible, f, grad, route_grad, p,
            min(1e-7 * scale, residual), config.pd_rtol,
        )
        if d is not None and float(np.abs(d).max()) <= 1e-13 * scale:
            # at rounding level: taken whole only at a stationary point
            if stationary:
                f, here = arc(f + d), None
            d = None
        if d is None and stationary:
            converged = True
            break
        accepted = None if d is None else search(lambda a: arc(f + a * d))
        if accepted is None and not stationary:
            step = scale / float(np.abs(_centred(grad, feasible)).max())
            if previous is not None:
                s, y = f - previous[0], grad - previous[1]
                if float(s @ y) > 0.0:
                    step = min(step, float(s @ s) / float(s @ y))
            accepted = search(lambda a: feasible.project(f - a * step * grad))
        if accepted is None or float(np.abs(accepted[0] - f).max()) <= 1e-15 * scale:
            converged = stationary
            break
        previous = (f, grad)
        f, here = accepted
    if here is None:
        here = _evaluate(strategy, h, f, network)
    return f, iterations, converged, here


def solve_convex(
    strategy: FleetStrategy,
    h,
    network: Network,
    config: SolverConfig = DEFAULT_CONFIG,
    certify: bool = True,
) -> AssignmentResult:
    """Projected Newton descent (see _descend) for convex objectives; the
    minimizer is unique when the objective is strictly convex."""
    h = _flows(h, network.n_routes)
    feasible = FeasibleSet.from_network(network)
    f0 = feasible.project(np.full(feasible.n_routes, feasible.total_mass / max(1, feasible.n_routes)))
    f, iterations, converged, point = _descend(strategy, h, network, feasible, f0, config)
    cert = _certify(strategy, h, f, network, feasible, config, point) if certify else None
    return AssignmentResult(
        f=f,
        objective=point.value,
        certificate=cert,
        trace=SolverTrace("projected_gradient", iterations, 1, converged),
        minimizer_set=(f,),
    )


def _ties(values: list[float]) -> list[int]:
    """The indices of the values within _TOL_TIE * (1 + |best|) of the best
    one, ascending: the tie set."""
    best = min(values)
    window = _TOL_TIE * (1.0 + abs(best))
    return [i for i, value in enumerate(values) if value <= best + window]


def _distinct(points: Sequence[np.ndarray], scale: float) -> list[int]:
    """The indices of the points more than _TOL_DISTINCT * scale (max norm)
    from every earlier point kept, ascending.  Each point is compared with
    all kept ones in one array operation (|a - b| = |b - a| exactly, and a
    NaN entry is never within the window)."""
    window = _TOL_DISTINCT * scale
    indices: list[int] = []
    for i, f in enumerate(points):
        if not indices:
            kept = np.empty((len(points), len(f)))  # the first point is always kept
        elif (np.abs(kept[: len(indices)] - f).max(axis=1) <= window).any():
            continue
        kept[len(indices)] = f
        indices.append(i)
    return indices


def _canonical_order(candidates: list[np.ndarray]) -> list[np.ndarray]:
    # lexicographically largest first: mass concentrated on the lowest route
    # index becomes the canonical representative
    return sorted(candidates, key=lambda v: tuple(-v))


def solve_concave(
    strategy: FleetStrategy,
    h,
    network: Network,
    config: SolverConfig = DEFAULT_CONFIG,
    certify: bool = True,
) -> AssignmentResult:
    """Corner enumeration for concave objectives: minimizers sit at vertices
    of the feasible polytope.  Returns the full tie set."""
    return _corner_solver(strategy, network, config)(_flows(h, network.n_routes), certify)


def _corner_solver(
    strategy: FleetStrategy, network: Network, config: SolverConfig
) -> Callable[[np.ndarray, bool], AssignmentResult]:
    """solve_concave with the network's vertices enumerated once, as a
    function of (h, certify) for checked HDV flows h: each call evaluates
    every vertex in one batched objective._evaluate, whose rows are
    bit-identical to one evaluation each, and reports the chosen vertex's
    value from it.  Of the tie set, the vertex first in canonical order is
    f."""
    vertices = np.array(FeasibleSet.from_network(network).vertices(config.vertex_cap))

    def solve(h: np.ndarray, certify: bool) -> AssignmentResult:
        batch = np.broadcast_to(h, (len(vertices),) + h.shape)
        values = _evaluate(strategy, batch, vertices, network).value.tolist()
        # the tied rows in the canonical order of _canonical_order, copied
        ties = sorted(_ties(values), key=lambda i: tuple(-vertices[i]))
        tied = tuple(vertices[ties])
        cert = certify_local_min(strategy, h, tied[0], network, config) if certify else None
        return AssignmentResult(
            f=tied[0],
            objective=values[ties[0]],
            certificate=cert,
            trace=SolverTrace("corner_enumeration", len(vertices), len(vertices), True),
            minimizer_set=tied,
        )

    return solve


def _seeded(seed: int) -> int:
    """The seed, refused when None: numpy would draw fresh OS entropy for
    it, and the run would not repeat."""
    if seed is None:
        raise ValueError("seed must lie in [0, 2**63), got None")
    return seed


def solve_general(
    strategy: FleetStrategy,
    h,
    network: Network,
    seed: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
    certify: bool = True,
) -> AssignmentResult:
    """Multistart descent (see _descend) for objectives that are neither
    convex nor concave.  Starts from every vertex plus n_starts random
    interior points drawn from `seed`; returns the best local minimizer
    found, with the converged flag of the start that found it, and all
    distinct ones.  Above config.vertex_cap vertices only the random points
    start, and with n_starts = 0 the vertex enumeration's FleetModelError
    is raised."""
    h = _flows(h, network.n_routes)
    feasible = FeasibleSet.from_network(network)
    rng = np.random.default_rng(_seeded(seed))
    try:
        starts = feasible.vertices(config.vertex_cap)
    except FleetModelError:
        if config.n_starts == 0:
            raise
        starts = []
    starts = starts + [feasible.random_point(rng) for _ in range(config.n_starts)]

    points, iterations, converged, finals = zip(
        *ordered_map(lambda f0: _descend(strategy, h, network, feasible, f0, config), starts)
    )
    kept = sorted(_distinct(points, 1.0 + feasible.total_mass), key=lambda i: finals[i].value)
    best = kept[0]
    cert = _certify(strategy, h, points[best], network, feasible, config, finals[best]) if certify else None
    return AssignmentResult(
        f=points[best],
        objective=finals[best].value,
        certificate=cert,
        trace=SolverTrace("multistart_projected_gradient", sum(iterations), len(starts), converged[best]),
        minimizer_set=tuple(points[kept[i]] for i in _ties([finals[i].value for i in kept])),
    )


def _assigner(
    strategy: FleetStrategy, network: Network, config: SolverConfig
) -> Callable[[np.ndarray, int, bool], AssignmentResult]:
    """fleet_assign's dispatch, decided once for a strategy and a network:
    the solver of its convexity class, as a function of (h, seed, certify)
    for checked HDV flows h."""
    if not network.fleet_sizes().any():
        def empty(h, seed, certify):
            f = np.zeros(network.n_routes)
            return AssignmentResult(
                f=f,
                objective=_evaluate(strategy, h, f, network).value,
                certificate=Certificate(True, math.inf),
                trace=SolverTrace("empty_fleet", 0, 0, True),
                minimizer_set=(f,),
            )
        return empty

    kind = _convexity_kind(strategy, network, config.pd_rtol)
    if kind is ConvexityKind.CONVEX_EVERYWHERE:
        return lambda h, seed, certify: solve_convex(strategy, h, network, config, certify=certify)
    if kind is ConvexityKind.CONCAVE_EVERYWHERE:
        corners = _corner_solver(strategy, network, config)
        return lambda h, seed, certify: corners(h, certify)
    return lambda h, seed, certify: solve_general(strategy, h, network, seed=seed, config=config, certify=certify)


def fleet_assign(
    strategy: FleetStrategy,
    h,
    network: Network,
    seed: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
    certify: bool = True,
) -> AssignmentResult:
    """The forward assignment operator: best response of the fleet to HDV
    flows h, dispatched on the objective's convexity class, on the
    network's feasible set.  `seed` draws the random starts of an
    indefinite objective.

    The total-flow operator is h + fleet_assign(...).f.
    """
    h = _flows(h, network.n_routes)
    return _assigner(strategy, network, config)(h, _seeded(seed), certify)

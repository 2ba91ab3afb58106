"""Forward fleet assignment: minimize the fleet objective over the
feasible polytope, with the solver picked by convexity class.

The feasible set is a product of per-unit simplices (fleet mass of each OD
unit distributed over its routes), optionally intersected with upper
bounds.  The class is decided from the network's structure
(`classify_convexity`), which covers power-family, Webster and
affine/cross-affine networks.  Strictly convex objectives are solved by
projected gradient with Armijo backtracking and a Newton polish on the
analytic Hessian; concave ones (linear ones included) by corner
enumeration.  Only indefinite objectives fall to multistart projected
gradient seeded from the corners plus random interior points.
"""

from __future__ import annotations

import itertools
import math
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
    classify_convexity,
    eval_objective,
    objective_gradient_in_f,
    objective_hessian_in_f,
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

    def block_vertices(self, s: int, cap: int) -> list[np.ndarray]:
        """Vertices of unit s's feasible block (at most one coordinate away
        from its bounds)."""
        block = self.blocks[s]
        total = float(self.totals[s])
        k = len(block)
        if self.upper is None:
            if total == 0.0:
                return [np.zeros(k)]
            return [total * np.eye(k)[i] for i in range(k)]
        upper = self.upper[block]
        tol = 1e-12 * (1.0 + total)
        out: list[np.ndarray] = []

        def rec(i: int, assigned: float, values: list[float], frac: int | None):
            if len(out) > cap:
                raise FleetModelError(
                    f"vertex enumeration exceeded the cap of {cap}; raise vertex_cap"
                )
            if assigned > total + tol:
                return
            if i == k:
                if frac is None:
                    if abs(assigned - total) <= tol:
                        out.append(np.asarray(values))
                else:
                    v = total - assigned
                    if tol < v < upper[frac] - tol:
                        vals = list(values)
                        vals[frac] = v
                        out.append(np.asarray(vals))
                return
            rec(i + 1, assigned, values + [0.0], frac)
            if math.isfinite(upper[i]) and upper[i] > tol:
                rec(i + 1, assigned + float(upper[i]), values + [float(upper[i])], frac)
            if frac is None:
                rec(i + 1, assigned, values + [0.0], i)

        rec(0, 0.0, [], None)
        # deduplicate corners that were reached through several branches
        unique: list[np.ndarray] = []
        for v in out:
            if not any(np.allclose(v, w, atol=10 * tol) for w in unique):
                unique.append(v)
        return unique

    def vertices(self, cap: int) -> list[np.ndarray]:
        per_block = [self.block_vertices(s, cap) for s in range(len(self.blocks))]
        count = 1
        for vs in per_block:
            count *= max(1, len(vs))
            if count > cap:
                raise FleetModelError(
                    f"vertex enumeration exceeded the cap of {cap}; raise vertex_cap"
                )
        out = []
        for combo in itertools.product(*per_block):
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
    centred = grad.copy()
    for block in feasible.blocks:
        centred[block] -= np.mean(grad[block])

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


def _projected_gradient(
    strategy: FleetStrategy,
    h: np.ndarray,
    network: Network,
    feasible: FeasibleSet,
    f0: np.ndarray,
    config: SolverConfig,
) -> tuple[np.ndarray, int, bool]:
    """Projected gradient descent with Armijo backtracking from f0.

    The accepted step is carried over (doubled) between iterations; a
    reduced-space Newton polish afterwards removes the remaining truncation
    error on the final active support.
    """
    f = feasible.project(f0)
    f_val = eval_objective(strategy, h, f, network)
    converged = False
    iterations = 0
    step_init = config.armijo_initial_step
    for iterations in range(1, config.max_pg_iter + 1):
        grad = objective_gradient_in_f(strategy, h, f, network)
        tol_stat = config.tol_pg * (1.0 + float(np.max(np.abs(grad))))
        residual = f - feasible.project(f - grad)
        if float(np.max(np.abs(residual))) <= tol_stat:
            converged = True
            break
        step = step_init
        accepted = False
        while step > 1e-16:
            f_new = feasible.project(f - step * grad)
            decrease = float(grad @ (f_new - f))
            f_new_val = eval_objective(strategy, h, f_new, network)
            if f_new_val <= f_val + config.armijo_c1 * decrease:
                accepted = True
                break
            step *= config.armijo_factor
        if not accepted or float(np.max(np.abs(f_new - f))) <= 1e-15 * (1.0 + feasible.total_mass):
            break
        step_init = min(config.armijo_initial_step, 2.0 * step)
        f, f_val = f_new, f_new_val
    f, polished = _newton_polish(strategy, h, network, feasible, f, config)
    if not converged:
        grad = objective_gradient_in_f(strategy, h, f, network)
        tol_stat = config.tol_pg * (1.0 + float(np.max(np.abs(grad))))
        residual = float(np.max(np.abs(f - feasible.project(f - grad))))
        converged = residual <= (tol_stat if polished else 10.0 * tol_stat)
    return f, iterations, converged


def _newton_polish(
    strategy: FleetStrategy,
    h: np.ndarray,
    network: Network,
    feasible: FeasibleSet,
    f: np.ndarray,
    config: SolverConfig,
) -> tuple[np.ndarray, bool]:
    """Newton steps on the zero-sum subspace of the free coordinates.

    The reduced Hessian D^T H D comes from the analytic objective Hessian;
    the steps drive the interior stationarity residual to rounding level.
    Aborts on any sign of trouble and returns the input unchanged.
    """
    scale = 1.0 + feasible.total_mass
    atol = 1e-7 * scale
    columns = []
    for block in feasible.blocks:
        free = [
            r
            for r in block
            if f[r] > atol
            and (feasible.upper is None or f[r] < feasible.upper[r] - atol)
        ]
        for i in range(1, len(free)):
            g = np.zeros(feasible.n_routes)
            g[free[0]] = 1.0
            g[free[i]] = -1.0
            columns.append(g)
    if not columns:
        return f, True
    d = np.column_stack(columns)
    f_val = eval_objective(strategy, h, f, network)
    current = f
    for _ in range(3):
        grad = objective_gradient_in_f(strategy, h, current, network)
        reduced_grad = d.T @ grad
        hess = d.T @ objective_hessian_in_f(strategy, h, current, network) @ d
        hess = 0.5 * (hess + hess.T)
        try:
            delta = np.linalg.solve(hess, -reduced_grad)
        except np.linalg.LinAlgError:
            return f, False
        if not np.all(np.isfinite(delta)):
            return f, False
        candidate = current + d @ delta
        if not feasible.contains(candidate, tol=1e-9):
            return f, False
        candidate = feasible.project(candidate)
        candidate_val = eval_objective(strategy, h, candidate, network)
        if candidate_val > f_val + 1e-9 * (1.0 + abs(f_val)):
            return f, False
        current = candidate
        if float(np.max(np.abs(d @ delta))) <= 1e-13 * scale:
            break
    return current, True


def _snap_to_support(
    strategy: FleetStrategy,
    h: np.ndarray,
    f: np.ndarray,
    network: Network,
    feasible: FeasibleSet,
) -> np.ndarray:
    """Zero out vanishing coordinates and rescale the remaining support so
    per-unit sums are exact; kept only when the objective does not degrade."""
    atol = 1e-7 * (1.0 + feasible.total_mass)
    snapped = f.copy()
    if feasible.upper is not None:
        near_cap = snapped >= feasible.upper - atol
        snapped[near_cap] = feasible.upper[near_cap]
    snapped[snapped < atol] = 0.0
    for block, total in zip(feasible.blocks, feasible.totals):
        live = block[snapped[block] > 0]
        s = float(np.sum(snapped[block]))
        if s <= 0 or len(live) == 0:
            continue
        snapped[live] *= total / s
    if not feasible.contains(snapped):
        return f
    old = eval_objective(strategy, h, f, network)
    new = eval_objective(strategy, h, snapped, network)
    if new <= old + 1e-9 * (1.0 + abs(old)):
        return snapped
    return f


def solve_convex(
    strategy: FleetStrategy,
    h,
    network: Network,
    feasible: FeasibleSet,
    config: SolverConfig = DEFAULT_CONFIG,
    certify: bool = True,
) -> AssignmentResult:
    """Projected gradient descent for convex objectives; the minimizer is
    unique when the objective is strictly convex."""
    h = np.asarray(h, dtype=float)
    f0 = feasible.project(np.full(feasible.n_routes, feasible.total_mass / max(1, feasible.n_routes)))
    f, iterations, converged = _projected_gradient(strategy, h, network, feasible, f0, config)
    f = _snap_to_support(strategy, h, f, network, feasible)
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
    """Multistart projected gradient for objectives that are neither convex
    nor concave.  Starts from every vertex plus n_starts random interior
    points; returns the best local minimizer found and all distinct ones."""
    h = np.asarray(h, dtype=float)
    rng = np.random.default_rng(config.seed if seed is None else seed)
    try:
        starts = feasible.vertices(config.vertex_cap)
    except FleetModelError:
        starts = []
    starts = starts + [feasible.random_point(rng) for _ in range(config.n_starts)]

    def run_start(f0):
        f, iterations, converged = _projected_gradient(strategy, h, network, feasible, f0, config)
        f = _snap_to_support(strategy, h, f, network, feasible)
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

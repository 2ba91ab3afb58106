"""Two-route Stackelberg analysis for a fleet committing to a mixed strategy.

The game is played on a two-route network's OD unit, whose HDV demand and
fleet size Q_c every function reads.  The fleet announces a probability
mixture over assignments (alpha*Q_c on route 1, the rest on route 2); HDVs
equilibrate their *expected* costs knowing the commitment.  For the
malicious objective (maximize expected total HDV travel time) the optimum
is supported on the two corner assignments, which this module verifies by
brute force, and the optimal mixing probability is found by golden-section
search plus a verification grid.  A best-response check on the two corners shows when no
pure-strategy Nash point exists: corner 0 or 1 answers itself, or the
two answer each other.  A day-to-day simulation supplies the myopic
comparison, averaged over its days after the first quarter.

Grids of mixtures are solved as one batch: each mixture is a row of split
fractions and weights, and one vectorized Illinois iterate finds every
row's induced equilibrium, evaluating only the rows still active.  Each
row is bit-identical to the single-mixture solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig
from .dynamics import SimulationConfig, simulate
from .errors import FleetModelError
from .forward import _corner_solver
from .network import Network
from .objective import PRESETS, FleetStrategy, eval_objective

__all__ = [
    "MixedCornerStrategy",
    "GeneralMixture",
    "induced_ue",
    "expected_fleet_objective",
    "expected_hdv_time",
    "optimize_corner_mixture",
    "verify_corner_support",
    "compare_routings",
    "MixtureOptimum",
    "CornerSupportReport",
    "RoutingComparison",
]

MALICIOUS = PRESETS["malicious"]

# method constants
_UE_TOL = 1e-10        # Illinois residual target on equal expected costs
_TOL_P = 1e-6          # golden-section tolerance on the mixing probability
_MIXTURE_GRID = 1001   # verification grid for global optima in p


@dataclass(frozen=True)
class MixedCornerStrategy:
    """Play (q_crv, 0) with probability p, (0, q_crv) otherwise."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")

    def as_mixture(self) -> "GeneralMixture":
        return GeneralMixture(points=((1.0, self.p), (0.0, 1.0 - self.p)))


@dataclass(frozen=True)
class GeneralMixture:
    """Finite mixture over split fractions: play (alpha*q_crv, (1-alpha)*q_crv)
    with the given weight."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        _check_mixtures(*_mixture_arrays([self]))


def _mixture_arrays(mixtures) -> tuple[np.ndarray, np.ndarray]:
    """Split fractions and weights of mixtures with equally many points,
    one row per mixture."""
    if any(len(point) != 2 for m in mixtures for point in m.points):
        raise ValueError("mixture points must be (split fraction, weight) pairs")
    points = np.array([m.points for m in mixtures], dtype=float).reshape(len(mixtures), -1, 2)
    return points[..., 0], points[..., 1]


def _check_mixtures(alphas: np.ndarray, weights: np.ndarray) -> None:
    if np.any(weights < 0) or np.any(np.abs(np.sum(weights, axis=1) - 1.0) > 1e-9):
        raise ValueError("mixture weights must be non-negative and sum to one")
    if not np.all((0.0 <= alphas) & (alphas <= 1.0)):
        raise ValueError("split fractions must lie in [0, 1]")


def _demands(network: Network) -> tuple[float, float]:
    """The HDV demand and the fleet size of the network's OD unit; raises
    FleetModelError unless the network has two routes, both in one unit."""
    if network.n_routes != 2:
        raise FleetModelError(
            f"Stackelberg analysis covers two-route networks, got {network.n_routes}"
        )
    units = network.units_or_raise()
    if len(units) != 1:
        raise FleetModelError(
            f"Stackelberg analysis covers one OD unit holding both routes, got {len(units)} units"
        )
    return float(units[0].q_hdv), float(units[0].q_crv)


def _expected_cost_gap(alphas, weights, h1, q_hdv, q_crv, network) -> np.ndarray:
    """Expected route-1 minus route-2 cost of each row's mixture when HDVs
    put h1 on route 1, from one batched route_times call.  Each row's
    points are summed in their order (np.nonzero is row-major and
    np.add.at adds in index order)."""
    h2 = q_hdv - h1
    rows, points = np.nonzero(weights)  # zero-weight points are never evaluated
    alpha = alphas[rows, points]
    q = np.column_stack((h1[rows] + alpha * q_crv, h2[rows] + (1.0 - alpha) * q_crv))
    costs = np.zeros((len(weights), 2))
    np.add.at(costs, rows, weights[rows, points][:, None] * network.route_times(q))
    return costs[:, 0] - costs[:, 1]


def _induced_ue_batch(
    alphas: np.ndarray,
    weights: np.ndarray,
    q_hdv: float,
    q_crv: float,
    network: Network,
) -> np.ndarray:
    """HDV flows (S, 2) equilibrating each row's expected costs.

    Illinois false position on h1 (Dowell and Jarratt 1971), row by row in
    lockstep: the expected cost difference is strictly increasing in h1 for
    increasing delays, so either a one-sided corner applies or the interior
    root is bracketed.  Superlinear on the smooth difference, and lands
    exactly on symmetric roots.  Rows leave the iterate as they converge.
    """
    x = np.zeros(len(alphas))
    if q_hdv == 0.0:
        return np.column_stack((x, q_hdv - x))

    def gap(rows, h1):
        return _expected_cost_gap(alphas[rows], weights[rows], h1, q_hdv, q_crv, network)

    rows = np.arange(len(alphas))
    fa = gap(rows, np.zeros(len(rows)))
    rows, fa = rows[~(fa >= 0.0)], fa[~(fa >= 0.0)]  # fa >= 0: all HDVs on route 2
    fb = gap(rows, np.full(len(rows), q_hdv))
    x[rows[fb <= 0.0]] = q_hdv  # all HDVs on route 1
    keep = ~(fb <= 0.0)
    rows, fa, fb = rows[keep], fa[keep], fb[keep]

    a = np.zeros(len(rows))
    b = np.full(len(rows), q_hdv)
    xr = 0.5 * (a + b)
    side = np.zeros(len(rows), dtype=int)
    for _ in range(200):
        if not rows.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            xr = np.where(fb != fa, (a * fb - b * fa) / (fb - fa), xr)
        outside = ~np.isfinite(xr) | ~((a <= xr) & (xr <= b))
        xr = np.where(outside, 0.5 * (a + b), xr)
        fx = gap(rows, xr)
        done = (np.abs(fx) <= _UE_TOL) | ((b - a) <= 1e-15 * q_hdv)
        x[rows[done]] = xr[done]
        go = ~done
        rows, a, b, fa, fb, xr, fx, side = (
            v[go] for v in (rows, a, b, fa, fb, xr, fx, side)
        )
        left = fx < 0.0
        # the retained endpoint's value halves when the same side moves twice
        fb = np.where(left & (side == -1), 0.5 * fb, fb)
        fa = np.where(~left & (side == 1), 0.5 * fa, fa)
        a, fa = np.where(left, xr, a), np.where(left, fx, fa)
        b, fb = np.where(left, b, xr), np.where(left, fb, fx)
        side = np.where(left, -1, 1)
    x[rows] = xr  # rows out of iterations keep their last iterate
    return np.column_stack((x, q_hdv - x))


def induced_ue(mixture: GeneralMixture, network: Network) -> np.ndarray:
    """HDV flows equilibrating expected costs under the announced mixture
    (the one-row case of the batched Illinois solve)."""
    q_hdv, q_crv = _demands(network)
    alphas, weights = _mixture_arrays([mixture])
    return _induced_ue_batch(alphas, weights, q_hdv, q_crv, network)[0]


def _expected_objectives(
    strategy: FleetStrategy, alphas, weights, h: np.ndarray, network: Network, q_crv: float
) -> np.ndarray:
    """Each row's expected fleet objective over its mixture points, at the
    row's HDV flows h (S, 2), summed in point order as in _expected_cost_gap."""
    rows, points = np.nonzero(weights)
    alpha = alphas[rows, points]
    f = np.column_stack((alpha * q_crv, (1.0 - alpha) * q_crv))
    total = np.zeros(len(weights))
    np.add.at(total, rows, weights[rows, points] * eval_objective(strategy, h[rows], f, network))
    return total


def expected_fleet_objective(strategy: FleetStrategy, mixture: GeneralMixture, h, network: Network) -> float:
    """Expectation of the fleet objective over the mixture support, at the
    induced HDV flows h."""
    _, q_crv = _demands(network)
    alphas, weights = _mixture_arrays([mixture])
    h = np.asarray(h, dtype=float)[None]
    return float(_expected_objectives(strategy, alphas, weights, h, network, q_crv)[0])


def expected_hdv_time(mixture: GeneralMixture, h, network: Network) -> float:
    """Expected total HDV travel time under the mixture; the malicious
    fleet maximizes this quantity."""
    return -expected_fleet_objective(MALICIOUS, mixture, h, network)


def _mixture_values(
    strategy: FleetStrategy,
    alphas: np.ndarray,
    weights: np.ndarray,
    q_hdv: float,
    q_crv: float,
    network: Network,
) -> np.ndarray:
    """Expected fleet objective of each row's mixture at its induced
    equilibrium."""
    h = _induced_ue_batch(alphas, weights, q_hdv, q_crv, network)
    return _expected_objectives(strategy, alphas, weights, h, network, q_crv)


def _corner_mixtures(ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MixedCornerStrategy(p).as_mixture() for each p, as arrays."""
    alphas = np.tile([1.0, 0.0], (len(ps), 1))
    return alphas, np.column_stack((ps, 1.0 - ps))


@functools.lru_cache(maxsize=1)
def _corner_grid(strategy: FleetStrategy, network: Network) -> np.ndarray:
    """The expected objective of the corner mixture at each of the
    _MIXTURE_GRID probabilities evenly spaced on [0, 1], read-only: one
    evaluation for optimize_corner_mixture and verify_corner_support."""
    q_hdv, q_crv = _demands(network)
    grid = _corner_mixtures(np.linspace(0.0, 1.0, _MIXTURE_GRID))
    values = _mixture_values(strategy, *grid, q_hdv, q_crv, network)
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class MixtureOptimum:
    p_best: float
    objective_best: float
    optima: tuple[float, ...]    # all global optima found on the verification grid
    degenerate: bool             # objective independent of p (no fleet mass)


def _golden_section(fun, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def optimize_corner_mixture(strategy: FleetStrategy, network: Network) -> MixtureOptimum:
    """Best corner mixture for the fleet: minimize the expected objective
    over the mixing probability p.

    Golden-section search refines the best grid cell; all global optima on
    the verification grid are reported, which exposes symmetric pairs
    {p, 1-p} when they occur.
    """
    q_hdv, q_crv = _demands(network)

    def value(p: float) -> float:
        corner = _corner_mixtures(np.array([p]))
        return float(_mixture_values(strategy, *corner, q_hdv, q_crv, network)[0])

    if q_crv == 0.0:
        v = value(0.5)
        return MixtureOptimum(p_best=0.5, objective_best=v, optima=(0.5,), degenerate=True)

    grid = np.linspace(0.0, 1.0, _MIXTURE_GRID)
    values = _corner_grid(strategy, network)
    v_min = float(np.min(values))
    window = 1e-9 * (1.0 + abs(v_min))
    near = values <= v_min + window

    # refine each contiguous run of near-optimal grid points
    optima: list[float] = []
    i = 0
    n = len(grid)
    while i < n:
        if not near[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and near[j + 1]:
            j += 1
        lo = grid[max(0, i - 1)]
        hi = grid[min(n - 1, j + 1)]
        optima.append(_golden_section(value, lo, hi, _TOL_P))
        i = j + 1

    refined = [(p, value(p)) for p in optima]
    best_p, best_v = min(refined, key=lambda pv: pv[1])
    keep = tuple(
        round(p, 12) for p, v in refined if v <= best_v + 1e-9 * (1.0 + abs(best_v))
    )
    return MixtureOptimum(p_best=best_p, objective_best=best_v, optima=keep, degenerate=False)


@dataclass(frozen=True)
class CornerSupportReport:
    worst_margin: float
    worst_mixture: tuple[float, float, float]   # (alpha1, alpha2, weight)
    best_corner_value: float
    mixtures_checked: int


def verify_corner_support(network: Network, resolution: float = 0.05) -> CornerSupportReport:
    """Brute-force check that some corner mixture weakly dominates every
    two-point mixture for expected HDV travel time.

    Sweeps (alpha1, alpha2, weight) on a grid, computes each mixture's
    induced equilibrium and expected HDV time and compares against the best
    corner mixture; the worst margin should never be materially negative.
    The grid step resolution lies in (0, 1].
    """
    if not 0.0 < resolution <= 1.0:
        raise ValueError(f"resolution must lie in (0, 1], got {resolution!r}")
    q_hdv, q_crv = _demands(network)
    best_corner = max((-_corner_grid(MALICIOUS, network)).tolist())

    # a step that does not divide 1 may end past it (0.15 ends at 1.05)
    grid = np.minimum(np.arange(0.0, 1.0 + resolution / 2.0, resolution), 1.0)
    # cells (alpha1, alpha2, weight) in nested-loop order
    a1, a2, w = (c.ravel() for c in np.meshgrid(grid, grid, grid, indexing="ij"))
    alphas = np.column_stack((a1, a2))
    weights = np.column_stack((w, 1.0 - w))
    _check_mixtures(alphas, weights)
    hdv_times = -_mixture_values(MALICIOUS, alphas, weights, q_hdv, q_crv, network)
    margins = best_corner - hdv_times
    i = int(np.argmin(margins))  # the first worst cell
    return CornerSupportReport(
        worst_margin=float(margins[i]),
        worst_mixture=(float(a1[i]), float(a2[i]), float(w[i])),
        best_corner_value=best_corner,
        mixtures_checked=len(margins),
    )


@dataclass(frozen=True)
class RoutingComparison:
    stackelberg: MixtureOptimum
    stackelberg_hdv_time: float
    myopic_mean_hdv_time: float
    myopic_days: int
    burn_in: int
    nash_exists: bool
    nash_cycle: tuple[int, ...]   # fleet corner indices along the detected cycle
    trivial: bool                 # no fleet mass, both routings coincide


def _nash_cycle(network: Network, config: SolverConfig) -> tuple[bool, tuple[int, ...]]:
    """The fleet's best corner against the HDV equilibrium of each pure
    corner: a corner that answers itself is a pure-strategy Nash point,
    and corners that answer each other form the cycle (0, 1) that rules
    one out.  The fleet's corner is the one that minimizes the malicious
    objective, among the corners enumerated once for the call."""
    best_corner = _corner_solver(MALICIOUS, network, config)

    def respond(corner: int) -> int:
        mixture = GeneralMixture(points=((1.0 if corner == 0 else 0.0, 1.0),))
        h = induced_ue(mixture, network)
        return int(np.argmax(best_corner(h, False).f))

    if respond(0) == 0:
        return True, (0,)
    if respond(1) == 1:
        return True, (1,)
    return False, (0, 1)


def compare_routings(
    network: Network,
    days: int = 200,
    mu: float = 0.2,
    seed: int = 0,
    config: SolverConfig = DEFAULT_CONFIG,
) -> RoutingComparison:
    """Stackelberg corner mixture versus myopic day-to-day routing for the
    malicious objective, plus pure-strategy Nash existence.

    The myopic time average discards the first days // 4 days.  Reports
    both objectives side by side; which routing is better on average is
    left to the reader of the report.
    """
    q_hdv, q_crv = _demands(network)
    burn_in = days // 4

    optimum = optimize_corner_mixture(MALICIOUS, network)
    # with no fleet the game is trivial: HDVs start on route 0 and no Nash
    # search runs
    trivial = q_crv == 0.0
    sim_config = SimulationConfig(days=days, mu=mu, seed=seed, strategy=MALICIOUS)
    initial = np.array([q_hdv, 0.0] if trivial else [0.6 * q_hdv, 0.4 * q_hdv])
    states = simulate(sim_config, initial, network, config)
    nash_exists, cycle = (True, ()) if trivial else _nash_cycle(network, config)
    return RoutingComparison(
        stackelberg=optimum,
        stackelberg_hdv_time=-optimum.objective_best,
        myopic_mean_hdv_time=float(np.mean([s.t_hdv for s in states[burn_in:]])),
        myopic_days=days,
        burn_in=burn_in,
        nash_exists=nash_exists,
        nash_cycle=cycle,
        trivial=trivial,
    )

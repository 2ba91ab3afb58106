"""Day-to-day dynamics of the mixed HDV/fleet system.

Each day the fleet best-responds to the current HDV flows (perfect one-day
prediction), then HDVs adapt to the realized travel times, either by a
smoothed best response h <- (1-mu)*h + mu*BR(t) or by a logit share model.
Per-unit totals are conserved on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, SolverConfig, _valid_seed
from .forward import _assigner, _flows
from .network import Network
from .objective import FleetStrategy

__all__ = ["SimulationConfig", "DayState", "hdv_day_update", "simulate"]


@dataclass(frozen=True)
class SimulationConfig:
    days: int = 100
    mu: float = 0.2                  # HDV adaptation rate in [0, 1]
    model: str = "smoothed"          # "smoothed" best response or "logit"
    theta: float = 1.0               # logit sensitivity, > 0
    seed: int = 0
    strategy: FleetStrategy = field(default_factory=lambda: FleetStrategy(0.0, 1.0))

    def __post_init__(self):
        if self.days < 1:
            raise ValueError("days must be at least 1")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if self.model not in ("smoothed", "logit"):
            raise ValueError(f"unknown HDV model {self.model!r}")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError("logit theta must be finite and positive")
        if not _valid_seed(self.seed):
            raise ValueError(f"seed must lie in [0, 2**63), got {self.seed!r}")


@dataclass(frozen=True)
class DayState:
    day: int
    h: np.ndarray
    f: np.ndarray
    route_times: np.ndarray
    t_hdv: float     # h . t(h + f)
    t_crv: float     # f . t(h + f)


def _best_response_target(network: Network, times: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """All of each unit's demand on its minimum-time routes, ties split equally."""
    target = np.zeros(network.n_routes)
    for block, demand in zip(network.unit_blocks(), demands):
        t_block = times[block]
        best = np.min(t_block)
        winners = block[np.abs(t_block - best) <= 1e-12 * (1.0 + abs(best))]
        target[winners] = demand / len(winners)
    return target


def _logit_target(
    network: Network, times: np.ndarray, demands: np.ndarray, theta: float
) -> np.ndarray:
    target = np.zeros(network.n_routes)
    for block, demand in zip(network.unit_blocks(), demands):
        w = np.exp(-theta * (times[block] - np.min(times[block])))
        target[block] = demand * w / np.sum(w)
    return target


def hdv_day_update(config: SimulationConfig, state: DayState, network: Network) -> np.ndarray:
    """Next-day HDV flows from the realized travel times of `state`."""
    demands = np.array(
        [float(np.sum(state.h[block])) for block in network.unit_blocks()]
    )
    if config.model == "smoothed":
        target = _best_response_target(network, state.route_times, demands)
    else:
        target = _logit_target(network, state.route_times, demands, config.theta)
    return (1.0 - config.mu) * state.h + config.mu * target


def simulate(
    config: SimulationConfig,
    initial_h,
    network: Network,
    solver_config: SolverConfig = DEFAULT_CONFIG,
) -> list[DayState]:
    """Run the day-to-day loop and record one state per day.

    Each day the fleet solves as fleet_assign(strategy, h, network,
    seed=config.seed + day, certify=False) does, with the solver chosen
    once for the run.  Deterministic given the seed: the fleet side uses
    the canonical representative when its minimizer is a tie set.
    """
    h = _flows(initial_h, network.n_routes)  # each later day's flows are a mix of valid ones
    # one convexity class and one feasible set serve every day
    assign = _assigner(config.strategy, network, solver_config)
    states: list[DayState] = []
    for day in range(config.days):
        f = assign(h, config.seed + day, False).f
        times = network.route_times(h + f)
        states.append(
            DayState(
                day=day,
                h=h.copy(),
                f=f,
                route_times=times,
                t_hdv=float(h @ times),
                t_crv=float(f @ times),
            )
        )
        h = hdv_day_update(config, states[-1], network)
    return states

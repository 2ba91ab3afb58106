"""Numerical knobs with scale-aware defaults.

SolverConfig holds the tolerances, caps and counts that scenario files may
override (their `tolerances` section).  It holds no seed: a scenario's one
seed is its `simulation` section's (dynamics.SimulationConfig.seed), and the
library's seeded functions take theirs as an argument, 0 by default.  Others
are method constants, fixed in code and documented where used:

* network.py: the relative thresholds PD_RTOL = 1e-9 of the dense
  positive-definiteness tests (also of the forward's Newton cutoff, its
  local-minimum test and the convexity classifier) and RANK_RTOL = 1e-9 of
  the incidence's rank, so no setting decides a certificate;
* forward.py: the projected-gradient target _TOL_PG = 1e-9, the tie window
  _TOL_TIE = 1e-9, the certificate's directional-derivative slack
  _TOL_DD = 1e-8, the window _TOL_DISTINCT = 1e-6 that tells minimizers
  apart, and the Armijo constants _ARMIJO_C1 = 1e-4 and backtracking
  factor _ARMIJO_FACTOR = 0.5 (Nocedal and Wright 2006, section 3.1);
* inverse.py: discrete recovery's _DISCRETE_STARTS = 20 random starts and
  _MAX_OUTER_ITER = 300 steps per start, with the l2 image distance (the
  closeness radius sqrt(R)/2 is an l2 radius); the 1e-6 active band, the
  1e-9 and 1e-10 KKT tolerances, and the 1e-7 mass tolerance of the
  labeling walk (_labelings), relative to 1 + fleet mass;
* stackelberg.py: the equilibrium residual _UE_TOL = 1e-10, the
  golden-section tolerance _TOL_P = 1e-6 on the mixing probability, the
  _MIXTURE_GRID = 1001-point verification grid, and the 1e-9 window of the
  optima.

Thresholds marked "relative" are multiplied by a problem scale at the point
of use (documented next to each consumer).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

# the counts and caps that have a lower bound (tol_* are finite and positive)
_MINIMUM = {"n_starts": 0, "vertex_cap": 1, "max_pg_iter": 1}


def _valid_seed(seed) -> bool:
    """Seeds lie in [0, 2**63): numpy's generators take no negative seed,
    and a Philox key word holds 64 bits."""
    return 0 <= seed < 2**63


@dataclass(frozen=True)
class SolverConfig:
    # forward solvers
    n_starts: int = 20             # random multistart points (on top of vertices)
    vertex_cap: int = 20000        # refuse to enumerate more vertices or faces than this
    max_pg_iter: int = 5000        # descent iterations per start
    # inverse solver
    tol_vi: float = 1e-8           # VI gap target, x (1 + ||t(q)||_2)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            name, value = f.name, getattr(self, f.name)
            if name.startswith("tol_"):
                if not (math.isfinite(value) and value > 0.0):
                    raise ValueError(f"{name} must be finite and positive, got {value!r}")
            elif name in _MINIMUM and value < _MINIMUM[name]:
                raise ValueError(f"{name} must be at least {_MINIMUM[name]}, got {value!r}")

    def replace(self, **overrides) -> "SolverConfig":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(f"unknown tolerance fields: {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)


DEFAULT_CONFIG = SolverConfig()

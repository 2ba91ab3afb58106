"""Numerical knobs with scale-aware defaults.

SolverConfig holds the tolerances, caps and counts that scenario files may
override (their `tolerances` section).  Others are fixed in code and
documented where used: the inverse's 1e-6 active band, its 1e-9 and 1e-10
KKT tolerances and its 1e-7 labeling tolerance, and the 1e-9 window of the
Stackelberg optima.  Thresholds marked "relative" are multiplied by a
problem scale at the point of use (documented next to each consumer).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

# image_distance_norm name -> the `ord` of numpy.linalg.norm
IMAGE_DISTANCE_NORMS = {"l2": 2, "l1": 1, "linf": math.inf}


# fields outside the tolerances (*_rtol, tol_*, ue_tol: finite and positive)
# that have a range
_OPEN_UNIT_INTERVAL = ("armijo_factor", "armijo_c1")
_MINIMUM = {
    "n_starts": 0, "discrete_starts": 0,
    "vertex_cap": 1, "max_pg_iter": 1, "max_outer_iter": 1,
    "mixture_grid": 2,
}


def _valid_seed(seed) -> bool:
    """Seeds lie in [0, 2**63): numpy's generators take no negative seed,
    and a Philox key word holds 64 bits."""
    return 0 <= seed < 2**63


@dataclass(frozen=True)
class SolverConfig:
    # rank / positive-definiteness gates (relative thresholds)
    rank_rtol: float = 1e-9        # x largest singular value of the incidence matrix
    pd_rtol: float = 1e-9          # x trace(sym gradient)/R
    # forward solvers
    tol_pg: float = 1e-9           # max|f - P(f - grad F)| target, x (1 + max|grad F|)
    tol_tie: float = 1e-9          # relative tie window for corner minima
    tol_dd: float = 1e-8           # directional-derivative slack in certificates
    tol_distinct: float = 1e-6     # minimizers distinct if max|df| exceeds this x scale
    n_starts: int = 20             # random multistart points (on top of vertices)
    vertex_cap: int = 20000        # refuse to enumerate more vertices or faces than this
    max_pg_iter: int = 5000        # descent iterations per start
    armijo_factor: float = 0.5
    armijo_c1: float = 1e-4
    # inverse solver
    tol_vi: float = 1e-8           # VI gap target, x (1 + ||t(q)||_2)
    # discrete recovery
    discrete_starts: int = 20
    max_outer_iter: int = 300
    image_distance_norm: str = "l2"   # a key of IMAGE_DISTANCE_NORMS
    # two-route equilibrium and mixture search
    ue_tol: float = 1e-10          # bisection residual target on equal expected costs
    tol_p: float = 1e-6            # golden-section tolerance on the mixing probability
    mixture_grid: int = 1001       # verification grid for global optima in p
    # misc
    seed: int = 0

    def __post_init__(self):
        if self.image_distance_norm not in IMAGE_DISTANCE_NORMS:
            raise ValueError(
                f"image_distance_norm must be one of {', '.join(IMAGE_DISTANCE_NORMS)}, "
                f"got {self.image_distance_norm!r}"
            )
        for f in dataclasses.fields(self):
            name, value = f.name, getattr(self, f.name)
            if name.endswith("_rtol") or name.startswith("tol_") or name == "ue_tol":
                if not (math.isfinite(value) and value > 0.0):
                    raise ValueError(f"{name} must be finite and positive, got {value!r}")
            elif name in _OPEN_UNIT_INTERVAL and not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")
            elif name in _MINIMUM and value < _MINIMUM[name]:
                raise ValueError(f"{name} must be at least {_MINIMUM[name]}, got {value!r}")
        if not _valid_seed(self.seed):
            raise ValueError(f"seed must lie in [0, 2**63), got {self.seed!r}")

    def replace(self, **overrides) -> "SolverConfig":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(f"unknown tolerance fields: {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)


DEFAULT_CONFIG = SolverConfig()

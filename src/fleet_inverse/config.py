"""Numerical knobs with scale-aware defaults.

Every tolerance lives here so that scenario files can override them
uniformly.  Thresholds marked "relative" are multiplied by a problem
scale at the point of use (documented next to each consumer).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

# image_distance_norm name -> the `ord` of numpy.linalg.norm
IMAGE_DISTANCE_NORMS = {"l2": 2, "l1": 1, "linf": math.inf}


# fields outside the tolerances (*_rtol, tol_*, ue_tol: finite and positive)
# that have a range
_OPEN_UNIT_INTERVAL = ("armijo_factor", "armijo_c1", "extragradient_safety")
_MINIMUM = {
    "n_starts": 0, "n_dirs": 0, "discrete_starts": 0,
    "vertex_cap": 1, "max_pg_iter": 1, "max_vi_iter": 1, "max_outer_iter": 1, "max_threads": 1,
    "mixture_grid": 2,
}


@dataclass(frozen=True)
class SolverConfig:
    # rank / positive-definiteness gates (relative thresholds)
    rank_rtol: float = 1e-9        # x largest singular value of the incidence matrix
    pd_rtol: float = 1e-9          # x trace(sym gradient)/R
    # forward solvers
    tol_pg: float = 1e-9           # max|f - P(f - grad F)| target, x (1 + max|grad F|)
    tol_tie: float = 1e-9          # relative tie window for corner minima
    tol_dd: float = 1e-8           # directional-derivative slack in certificates
    tol_curv: float = 1e-8         # curvature slack for flat directions, x (1 + |d2|)
    tol_distinct: float = 1e-6     # minimizers distinct if max|df| exceeds this x scale
    n_starts: int = 20             # random multistart points (on top of vertices)
    n_dirs: int = 50               # random directions sampled by the certificate
    vertex_cap: int = 20000        # refuse to enumerate more vertices or faces than this
    max_pg_iter: int = 5000        # descent iterations per start
    armijo_factor: float = 0.5
    armijo_c1: float = 1e-4
    # inverse solver
    tol_vi: float = 1e-8           # VI gap target, x (1 + ||t(q)||_2)
    max_vi_iter: int = 20000
    extragradient_safety: float = 0.9
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
    max_threads: int = 1

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

    def replace(self, **overrides) -> "SolverConfig":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(f"unknown tolerance fields: {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)


def _threads_from_env() -> int:
    raw = os.environ.get("FLEET_INVERSE_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


DEFAULT_CONFIG = SolverConfig(max_threads=_threads_from_env())

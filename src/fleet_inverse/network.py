"""Network model: links with delay functions, routes, OD units, travel times.

Conventions used throughout the package:

* Flows are vehicles per period, times are in a consistent time unit, so
  objective values carry vehicle-time units.
* Route flow vectors are the concatenation of per-unit blocks; each OD unit
  owns a contiguous-by-construction subset of the route list.
* The incidence matrix has one row per route and one column per link.
* Background traffic never appears as a flow variable; it is folded into
  the delay-function parameters.
* Signalized (Webster-type) links take the degree of saturation x in [0, 1)
  as their flow argument; callers scale flows accordingly.

All types are immutable values after construction and every operation here
is pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    DelayDomainError,
    DimensionMismatchError,
    FleetModelError,
)

__all__ = [
    "BPRDelay",
    "AffineDelay",
    "QuadraticDelay",
    "WebsterDelay",
    "CrossAffineDelay",
    "Delay",
    "Link",
    "Route",
    "ODUnit",
    "Network",
    "LinearIndependence",
    "PDCertificate",
]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BPRDelay:
    """Polynomial volume-delay function t0 * (1 + d * (x / capacity) ** power)."""

    t0: float
    d: float
    capacity: float
    power: float

    def __post_init__(self):
        for name in ("t0", "d", "capacity", "power"):
            _require_finite(name, getattr(self, name))
        if self.t0 <= 0 or self.d <= 0 or self.capacity <= 0 or self.power <= 0:
            raise ValueError("BPR parameters t0, d, capacity, power must be positive")

    def value(self, x: float) -> float:
        return self.t0 * (1.0 + self.d * (x / self.capacity) ** self.power)

    def derivative(self, x: float) -> float:
        g = self.power
        if g < 1.0 and x <= 0.0:
            raise DelayDomainError(f"BPR power {g} < 1 has no derivative at zero flow")
        return self.t0 * self.d * g * x ** (g - 1.0) / self.capacity**g

    def second_derivative(self, x: float) -> float:
        g = self.power
        if g == 1.0:
            return 0.0
        if g < 2.0 and x <= 0.0:
            raise DelayDomainError(f"BPR power {g} < 2 has no second derivative at zero flow")
        return self.t0 * self.d * g * (g - 1.0) * x ** (g - 2.0) / self.capacity**g


@dataclass(frozen=True)
class AffineDelay:
    """intercept + slope * x with strictly positive slope."""

    intercept: float
    slope: float

    def __post_init__(self):
        _require_finite("intercept", self.intercept)
        _require_finite("slope", self.slope)
        if self.slope <= 0:
            raise ValueError("affine delay slope must be positive")

    def value(self, x: float) -> float:
        return self.intercept + self.slope * x

    def derivative(self, x: float) -> float:
        return self.slope

    def second_derivative(self, x: float) -> float:
        return 0.0


@dataclass(frozen=True)
class QuadraticDelay:
    """intercept + coefficient * x**2 with strictly positive coefficient."""

    intercept: float
    coefficient: float

    def __post_init__(self):
        _require_finite("intercept", self.intercept)
        _require_finite("coefficient", self.coefficient)
        if self.coefficient <= 0:
            raise ValueError("quadratic delay coefficient must be positive")

    def value(self, x: float) -> float:
        return self.intercept + self.coefficient * x * x

    def derivative(self, x: float) -> float:
        return 2.0 * self.coefficient * x

    def second_derivative(self, x: float) -> float:
        return 2.0 * self.coefficient


@dataclass(frozen=True)
class WebsterDelay:
    """Signalized-intersection delay as a function of degree of saturation.

    value(x) = 0.9 * ( cycle*(1-g)^2 / (2*(1-g*x)) + x / (2*g*s*(1-x)) )

    with g the green ratio and s the saturation flow.  The second summand is
    the x^2/(2*g*s*x*(1-x)) term with the common x cancelled, which extends
    the function continuously to x = 0.  Defined for 0 <= x < 1 and strictly
    increasing there.
    """

    green_ratio: float
    saturation_flow: float
    cycle: float

    def __post_init__(self):
        for name in ("green_ratio", "saturation_flow", "cycle"):
            _require_finite(name, getattr(self, name))
        if not 0.0 < self.green_ratio < 1.0:
            raise ValueError("green_ratio must lie strictly between 0 and 1")
        if self.saturation_flow <= 0 or self.cycle <= 0:
            raise ValueError("saturation_flow and cycle must be positive")

    def _check_domain(self, x: float) -> None:
        if not 0.0 <= x < 1.0:
            raise DelayDomainError(
                f"signalized link requires degree of saturation in [0, 1), got {x!r}"
            )

    def value(self, x: float) -> float:
        self._check_domain(x)
        g, s, c = self.green_ratio, self.saturation_flow, self.cycle
        return 0.9 * (c * (1.0 - g) ** 2 / (2.0 * (1.0 - g * x)) + x / (2.0 * g * s * (1.0 - x)))

    def derivative(self, x: float) -> float:
        self._check_domain(x)
        g, s, c = self.green_ratio, self.saturation_flow, self.cycle
        return 0.9 * (c * (1.0 - g) ** 2 * g / (2.0 * (1.0 - g * x) ** 2) + 1.0 / (2.0 * g * s * (1.0 - x) ** 2))

    def second_derivative(self, x: float) -> float:
        self._check_domain(x)
        g, s, c = self.green_ratio, self.saturation_flow, self.cycle
        return 0.9 * (c * (1.0 - g) ** 2 * g * g / (1.0 - g * x) ** 3 + 1.0 / (g * s * (1.0 - x) ** 3))


@dataclass(frozen=True)
class CrossAffineDelay:
    """Affine delay whose value also depends on flows of other links.

    value = intercept + own_slope * x_own + sum(cross[j] * x_j).  Jointly the
    network gradient may lose monotonicity, so no positivity is enforced
    beyond finiteness of the parameters.
    """

    intercept: float
    own_slope: float
    cross: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _require_finite("intercept", self.intercept)
        _require_finite("own_slope", self.own_slope)
        for key, coef in self.cross.items():
            _require_finite(f"cross[{key}]", coef)
        object.__setattr__(self, "cross", dict(self.cross))

    def __hash__(self):
        return hash((self.intercept, self.own_slope, tuple(sorted(self.cross.items()))))


Delay = Union[BPRDelay, AffineDelay, QuadraticDelay, WebsterDelay, CrossAffineDelay]


@dataclass(frozen=True)
class Link:
    id: str
    delay: Delay


@dataclass(frozen=True)
class Route:
    id: str
    link_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "link_ids", tuple(self.link_ids))
        if not self.link_ids:
            raise ValueError(f"route {self.id!r} has no links")


@dataclass(frozen=True)
class ODUnit:
    """A demand unit: origin, destination, fleet size, HDV demand, route set."""

    origin: str
    destination: str
    q_hdv: float
    q_crv: float
    route_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "route_ids", tuple(self.route_ids))
        if not self.route_ids:
            raise ValueError("OD unit must reference at least one route")
        for name in ("q_hdv", "q_crv"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class LinearIndependence:
    independent: bool
    null_basis: np.ndarray  # (R, k) orthonormal basis of {v : incidence^T v = 0}

    @property
    def fiber_dimension(self) -> int:
        return self.null_basis.shape[1]


@dataclass(frozen=True)
class PDCertificate:
    """Outcome of the feasible-direction positive-definiteness test.

    min_rayleigh is the smallest eigenvalue of the travel-time gradient
    restricted to feasible directions, normalized so that a unit pair swap
    (one vehicle moved between two routes, direction (1, -1)) has unit
    scale.  +inf marks a vacuous pass (no feasible direction exists).
    """

    passes: bool
    min_rayleigh: float
    threshold: float


class Network:
    """Immutable network with delay functions, routes, and OD units.

    Parameters
    ----------
    links, routes : link and route definitions; every route references
        existing links.
    units : OD units partitioning the route list.  Optional; operations that
        need demand data raise if units are missing.
    """

    def __init__(
        self,
        links: Sequence[Link],
        routes: Sequence[Route],
        units: Sequence[ODUnit] | None = None,
    ):
        self.links = tuple(links)
        self.routes = tuple(routes)
        if not self.links:
            raise ValueError("network needs at least one link")
        if not self.routes:
            raise ValueError("network needs at least one route")

        self._link_index = {link.id: i for i, link in enumerate(self.links)}
        if len(self._link_index) != len(self.links):
            raise ValueError("duplicate link ids")
        self._route_index = {route.id: i for i, route in enumerate(self.routes)}
        if len(self._route_index) != len(self.routes):
            raise ValueError("duplicate route ids")

        incidence = np.zeros((len(self.routes), len(self.links)))
        for r, route in enumerate(self.routes):
            for link_id in route.link_ids:
                if link_id not in self._link_index:
                    raise ValueError(f"route {route.id!r} references unknown link {link_id!r}")
                incidence[r, self._link_index[link_id]] = 1.0
        incidence.setflags(write=False)
        self.incidence = incidence

        # resolve cross-dependence columns once
        self._cross_rows: dict[int, np.ndarray] = {}
        for a, link in enumerate(self.links):
            if isinstance(link.delay, CrossAffineDelay):
                row = np.zeros(len(self.links))
                row[a] = link.delay.own_slope
                for other_id, coef in link.delay.cross.items():
                    if other_id not in self._link_index:
                        raise ValueError(
                            f"link {link.id!r} cross-references unknown link {other_id!r}"
                        )
                    if other_id == link.id:
                        raise ValueError(f"link {link.id!r} cross-references itself")
                    row[self._link_index[other_id]] = coef
                row.setflags(write=False)
                self._cross_rows[a] = row

        self.units: tuple[ODUnit, ...] | None = None
        self._unit_blocks: tuple[np.ndarray, ...] | None = None
        if units is not None:
            units = tuple(units)
            blocks = []
            seen: set[int] = set()
            for u, unit in enumerate(units):
                idx = []
                for rid in unit.route_ids:
                    if rid not in self._route_index:
                        raise ValueError(f"unit {u} references unknown route {rid!r}")
                    idx.append(self._route_index[rid])
                if set(idx) & seen:
                    raise ValueError("units must not share routes")
                seen.update(idx)
                blocks.append(np.asarray(idx, dtype=int))
            if seen != set(range(len(self.routes))):
                missing = sorted(set(range(len(self.routes))) - seen)
                names = [self.routes[i].id for i in missing]
                raise ValueError(f"routes not covered by any unit: {names}")
            self.units = units
            self._unit_blocks = tuple(blocks)

    # -- basic shape ---------------------------------------------------------

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def link_additive(self) -> bool:
        """True when every link delay depends only on its own flow."""
        return not self._cross_rows

    def unit_blocks(self) -> tuple[np.ndarray, ...]:
        if self._unit_blocks is None:
            raise FleetModelError("this operation needs OD units, but none were declared")
        return self._unit_blocks

    def fleet_sizes(self) -> np.ndarray:
        return np.array([u.q_crv for u in self.units_or_raise()])

    def hdv_demands(self) -> np.ndarray:
        return np.array([u.q_hdv for u in self.units_or_raise()])

    def units_or_raise(self) -> tuple[ODUnit, ...]:
        if self.units is None:
            raise FleetModelError("this operation needs OD units, but none were declared")
        return self.units

    def _check_route_dim(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n_routes,):
            raise DimensionMismatchError(
                f"expected route vector of length {self.n_routes}, got shape {q.shape}"
            )
        return q

    def _check_link_dim(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if a.shape != (self.n_links,):
            raise DimensionMismatchError(
                f"expected link vector of length {self.n_links}, got shape {a.shape}"
            )
        return a

    # -- flow conversion and travel times -------------------------------------

    def route_to_link(self, q) -> np.ndarray:
        """Aggregate a route flow into the induced link flow (linear)."""
        q = self._check_route_dim(q)
        return self.incidence.T @ q

    def link_travel_times(self, a) -> np.ndarray:
        a = self._check_link_dim(a)
        # NaN fails both comparisons, inf the second
        if not (a.min() >= 0 and a.max() < np.inf):
            raise DelayDomainError("link flows must be finite and non-negative")
        tau = np.empty(self.n_links)
        for i, link in enumerate(self.links):
            if i in self._cross_rows:
                tau[i] = link.delay.intercept + float(self._cross_rows[i] @ a)
            else:
                tau[i] = link.delay.value(float(a[i]))
        return tau

    def link_time_jacobian(self, a) -> np.ndarray:
        """d tau / d a, an (A, A) matrix; diagonal unless cross-dependence."""
        a = self._check_link_dim(a)
        jac = np.zeros((self.n_links, self.n_links))
        for i, link in enumerate(self.links):
            if i in self._cross_rows:
                jac[i] = self._cross_rows[i]
            else:
                jac[i, i] = link.delay.derivative(float(a[i]))
        return jac

    def link_second_derivatives(self, a) -> np.ndarray:
        """d^2 tau_a / d a_a^2 on every link carrying flow; 0 on cross-affine
        links, whose delays are linear in the link flows.

        Links without flow report 0: the curvature may be unbounded there
        (BPR powers below 2), and the objective weights it by a link flow
        that vanishes with it.
        """
        a = self._check_link_dim(a)
        return np.array(
            [
                link.delay.second_derivative(float(a[i]))
                if a[i] > 0 and i not in self._cross_rows
                else 0.0
                for i, link in enumerate(self.links)
            ]
        )

    def route_times(self, q) -> np.ndarray:
        """Travel time on every route at total flow q (route travel times are
        sums of the member links' delays)."""
        q = self._check_route_dim(q)
        if not (q.min() >= 0 and q.max() < np.inf):
            raise DelayDomainError("route flows must be finite and non-negative")
        return self.incidence @ self.link_travel_times(self.route_to_link(q))

    def route_gradient(self, q, method: str = "analytic") -> np.ndarray:
        """Gradient matrix of route travel times with respect to route flows.

        The analytic form composes the incidence matrix with the link-time
        jacobian.  method="fd" falls back to central finite differences on
        route_times (one-sided at the q >= 0 boundary).
        """
        q = self._check_route_dim(q)
        if method == "analytic":
            jac = self.link_time_jacobian(self.route_to_link(q))
            return self.incidence @ jac @ self.incidence.T
        if method == "fd":
            return self._fd_gradient(q)
        raise ValueError(f"unknown gradient method {method!r}")

    def _fd_gradient(self, q: np.ndarray, step_scale: float = 1e-6) -> np.ndarray:
        grad = np.zeros((self.n_routes, self.n_routes))
        for j in range(self.n_routes):
            h = max(step_scale, step_scale * abs(q[j]))
            qp = q.copy()
            qp[j] += h
            if q[j] - h >= 0:
                qm = q.copy()
                qm[j] -= h
                grad[:, j] = (self.route_times(qp) - self.route_times(qm)) / (2 * h)
            else:
                grad[:, j] = (self.route_times(qp) - self.route_times(q)) / h
        return grad

    # -- structure certificates ------------------------------------------------

    def routes_linearly_independent(self, rank_rtol: float = 1e-9) -> LinearIndependence:
        """Rank test of the incidence matrix via singular values.

        When dependent, returns an orthonormal basis of route-space vectors
        whose induced link flows vanish.
        """
        u, s, _ = np.linalg.svd(self.incidence, full_matrices=True)
        threshold = rank_rtol * (s[0] if s.size else 0.0)
        rank = int(np.sum(s > threshold))
        basis = u[:, rank:].copy()
        basis.setflags(write=False)
        return LinearIndependence(independent=rank == self.n_routes, null_basis=basis)

    def feasible_direction_basis(self) -> np.ndarray:
        """Orthonormal basis of directions with zero sum inside every unit block."""
        columns = []
        for block in self.unit_blocks():
            k = len(block)
            if k < 2:
                continue
            _, _, vt = np.linalg.svd(np.ones((1, k)))
            for row in vt[1:]:
                col = np.zeros(self.n_routes)
                col[block] = row
                columns.append(col)
        if not columns:
            return np.zeros((self.n_routes, 0))
        return np.column_stack(columns)

    def restricted_min_eigenvalue(self, q, pair_normalized: bool = False) -> float:
        """Smallest eigenvalue of sym(route gradient) on feasible directions.

        With pair_normalized=True the value is scaled so that a single pair
        swap (1, -1) has unit weight (twice the unit-norm Rayleigh quotient).
        Returns +inf when the feasible subspace is trivial.
        """
        basis = self.feasible_direction_basis()
        if basis.shape[1] == 0:
            return math.inf
        grad = self.route_gradient(np.asarray(q, dtype=float))
        sym = 0.5 * (grad + grad.T)
        reduced = basis.T @ sym @ basis
        value = float(np.linalg.eigvalsh(reduced)[0])
        return 2.0 * value if pair_normalized else value

    def feasible_direction_pd(self, q, pd_rtol: float = 1e-9) -> PDCertificate:
        """Positive definiteness of the travel-time gradient on feasible
        directions, the gate for inverse uniqueness."""
        q = self._check_route_dim(q)
        min_rayleigh = self.restricted_min_eigenvalue(q, pair_normalized=True)
        if math.isinf(min_rayleigh):
            return PDCertificate(passes=True, min_rayleigh=math.inf, threshold=0.0)
        grad = self.route_gradient(q)
        threshold = pd_rtol * abs(np.trace(grad)) / self.n_routes
        return PDCertificate(
            passes=bool(min_rayleigh > threshold),
            min_rayleigh=min_rayleigh,
            threshold=float(threshold),
        )


def single_od_network(
    delays: Sequence[Delay],
    q_hdv: float,
    q_crv: float,
) -> Network:
    """Convenience builder: one OD pair, one single-link route per delay."""
    links = [Link(id=f"l{i}", delay=d) for i, d in enumerate(delays)]
    routes = [Route(id=f"r{i}", link_ids=(f"l{i}",)) for i in range(len(delays))]
    unit = ODUnit(
        origin="O",
        destination="D",
        q_hdv=q_hdv,
        q_crv=q_crv,
        route_ids=tuple(r.id for r in routes),
    )
    return Network(links, routes, units=[unit])

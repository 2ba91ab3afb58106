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
from dataclasses import dataclass, field, fields
from typing import ClassVar, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DelayDomainError,
    DimensionMismatchError,
    FleetModelError,
    UnsupportedDelayError,
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
    "DelayTable",
    "LinearIndependence",
    "PDCertificate",
]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _first(mask, values) -> float:
    """The first entry of values (broadcast to mask's shape) where mask holds."""
    return float(np.broadcast_to(values, np.shape(mask))[mask][0])


def _constant(x, c) -> np.ndarray:
    """c broadcast to the shape of x (a derivative that does not depend on x)."""
    out = np.empty(np.shape(x))
    out[...] = c
    return out


# -- kernels: each delay kind's formulas, written once ------------------------
#
# A kernel object holds the parameters of one link (numpy scalars) or of
# every link of its kind in a network (arrays), plus the factors of each
# formula that do not depend on the flow, computed once and in the same
# left-to-right order as the full product.  Its methods take flows that
# broadcast against the parameters: a scalar, a vector over the kind's
# links, or a batch (S, n) of such vectors.  Float exponents go through
# np.float_power, which rounds like the C library's pow (numpy's SIMD
# power does not), so the arrays and the scalar methods agree bit for bit.


def _raise_at_zero_flow(kind_mask, any_kind: bool, x, power, what: str) -> None:
    if any_kind:
        undefined = kind_mask & (x <= 0.0)
        if undefined.any():
            raise DelayDomainError(f"BPR power {_first(undefined, power)} {what} at zero flow")


class _BPRKernels:
    def __init__(self, t0, d, capacity, power):
        self.t0, self.d, self.capacity, self.power = t0, d, capacity, power
        self.capacity_power = np.float_power(capacity, power)
        self.slope = t0 * d * power
        self.curvature = self.slope * (power - 1.0)
        self.slope_power = power - 1.0
        self.curvature_power = power - 2.0
        self.linear = power == 1.0
        self.any_linear = bool(np.any(self.linear))
        self.no_slope = power < 1.0
        self.any_no_slope = bool(np.any(self.no_slope))
        self.no_curvature = ~self.linear & (power < 2.0)
        self.any_no_curvature = bool(np.any(self.no_curvature))

    def values(self, x):
        return self.t0 * (1.0 + self.d * np.float_power(x / self.capacity, self.power))

    def derivatives(self, x):
        _raise_at_zero_flow(self.no_slope, self.any_no_slope, x, self.power, "< 1 has no derivative")
        return self.slope * np.float_power(x, self.slope_power) / self.capacity_power

    def second_derivatives(self, x):
        _raise_at_zero_flow(
            self.no_curvature, self.any_no_curvature, x, self.power, "< 2 has no second derivative"
        )
        if not self.any_linear:
            return self.curvature * np.float_power(x, self.curvature_power) / self.capacity_power
        # power 1 is linear; its formula reads 0 * inf at zero flow
        with np.errstate(divide="ignore", invalid="ignore"):
            second = self.curvature * np.float_power(x, self.curvature_power) / self.capacity_power
        return np.where(self.linear, 0.0, second)


class _AffineKernels:
    def __init__(self, intercept, slope):
        self.intercept, self.slope = intercept, slope

    def values(self, x):
        return self.intercept + self.slope * x

    def derivatives(self, x):
        return _constant(x, self.slope)

    def second_derivatives(self, x):
        return _constant(x, 0.0)


class _QuadraticKernels:
    def __init__(self, intercept, coefficient):
        self.intercept, self.coefficient = intercept, coefficient
        self.slope = 2.0 * coefficient

    def values(self, x):
        return self.intercept + self.coefficient * x * x

    def derivatives(self, x):
        return self.slope * x

    def second_derivatives(self, x):
        return _constant(x, self.slope)


def _check_saturation(x) -> None:
    # NaN fails both comparisons
    if x.size and not (np.minimum.reduce(x, axis=None) >= 0.0 and np.maximum.reduce(x, axis=None) < 1.0):
        outside = ~((0.0 <= x) & (x < 1.0))
        raise DelayDomainError(
            f"signalized link requires degree of saturation in [0, 1), got {_first(outside, x)!r}"
        )


class _WebsterKernels:
    def __init__(self, green_ratio, saturation_flow, cycle):
        g, s = green_ratio, saturation_flow
        self.g = g
        self.queue = cycle * np.float_power(1.0 - g, 2.0)  # c (1-g)^2
        self.queue_slope = self.queue * g
        self.queue_curvature = self.queue_slope * g
        self.random = 2.0 * g * s
        self.random_curvature = g * s

    def values(self, x):
        _check_saturation(x)
        return 0.9 * (self.queue / (2.0 * (1.0 - self.g * x)) + x / (self.random * (1.0 - x)))

    def derivatives(self, x):
        _check_saturation(x)
        return 0.9 * (
            self.queue_slope / (2.0 * np.float_power(1.0 - self.g * x, 2.0))
            + 1.0 / (self.random * np.float_power(1.0 - x, 2.0))
        )

    def second_derivatives(self, x):
        _check_saturation(x)
        return 0.9 * (
            self.queue_curvature / np.float_power(1.0 - self.g * x, 3.0)
            + 1.0 / (self.random_curvature * np.float_power(1.0 - x, 3.0))
        )


class _KernelDelay:
    """Scalar methods of a link-additive delay kind, evaluated by the kind's
    kernels (`kernels`, built from the fields in order), which the compiled
    delay table also runs on all links of the kind at once.  Out-of-domain
    flows raise DelayDomainError.

    Every delay kind, cross-affine included, also declares what scenario
    files and the convexity classifier know of it: `kind`, its name in
    scenario files (whose parameters are its fields, in order); `gamma`,
    its power-family exponent, None outside the power family;
    `convex_nondecreasing`; and `affine_in_flows`, whether it is affine in
    the link flows."""

    kernels: ClassVar[type]
    kind: ClassVar[str]
    gamma: ClassVar[float | None] = None
    convex_nondecreasing: ClassVar[bool] = True
    affine_in_flows: ClassVar[bool] = False

    def _kernels(self):
        return self.kernels(*(np.float64(getattr(self, f.name)) for f in fields(self)))

    def value(self, x: float) -> float:
        return float(self._kernels().values(np.float64(x)))

    def derivative(self, x: float) -> float:
        return float(self._kernels().derivatives(np.float64(x)))

    def second_derivative(self, x: float) -> float:
        return float(self._kernels().second_derivatives(np.float64(x)))


@dataclass(frozen=True)
class BPRDelay(_KernelDelay):
    """Polynomial volume-delay function t0 * (1 + d * (x / capacity) ** power)."""

    kernels = _BPRKernels
    kind = "bpr"

    t0: float
    d: float
    capacity: float
    power: float

    @property
    def gamma(self) -> float:
        return float(self.power)

    @property
    def convex_nondecreasing(self) -> bool:
        return self.power >= 1.0

    def __post_init__(self):
        for name in ("t0", "d", "capacity", "power"):
            _require_finite(name, getattr(self, name))
        if self.t0 <= 0 or self.d <= 0 or self.capacity <= 0 or self.power <= 0:
            raise ValueError("BPR parameters t0, d, capacity, power must be positive")


@dataclass(frozen=True)
class AffineDelay(_KernelDelay):
    """intercept + slope * x with strictly positive slope."""

    kernels = _AffineKernels
    kind = "affine"
    gamma = 1.0
    affine_in_flows = True

    intercept: float
    slope: float

    def __post_init__(self):
        _require_finite("intercept", self.intercept)
        _require_finite("slope", self.slope)
        if self.slope <= 0:
            raise ValueError("affine delay slope must be positive")


@dataclass(frozen=True)
class QuadraticDelay(_KernelDelay):
    """intercept + coefficient * x**2 with strictly positive coefficient."""

    kernels = _QuadraticKernels
    kind = "quadratic"
    gamma = 2.0

    intercept: float
    coefficient: float

    def __post_init__(self):
        _require_finite("intercept", self.intercept)
        _require_finite("coefficient", self.coefficient)
        if self.coefficient <= 0:
            raise ValueError("quadratic delay coefficient must be positive")


@dataclass(frozen=True)
class WebsterDelay(_KernelDelay):
    """Signalized-intersection delay as a function of degree of saturation.

    value(x) = 0.9 * ( cycle*(1-g)^2 / (2*(1-g*x)) + x / (2*g*s*(1-x)) )

    with g the green ratio and s the saturation flow.  The second summand is
    the x^2/(2*g*s*x*(1-x)) term with the common x cancelled, which extends
    the function continuously to x = 0.  Defined for 0 <= x < 1 and strictly
    increasing there.
    """

    kernels = _WebsterKernels
    kind = "webster"

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


@dataclass(frozen=True)
class CrossAffineDelay:
    """Affine delay whose value also depends on flows of other links.

    value = intercept + own_slope * x_own + sum(cross[j] * x_j).  Jointly the
    network gradient may lose monotonicity, so no positivity is enforced
    beyond finiteness of the parameters.  The compiled delay table
    evaluates it, since it needs every link flow.
    """

    kind = "cross_affine"
    gamma = None
    convex_nondecreasing = False
    affine_in_flows = True

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


def _positions(idx: list[int]):
    """A slice when the indices are one contiguous run (a view, no copy),
    else an index array."""
    if idx and idx == list(range(idx[0], idx[-1] + 1)):
        return slice(idx[0], idx[-1] + 1)
    return np.asarray(idx, dtype=int)


def _rowwise(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v for one vector v, or for each row of a batch (S, n).

    A batch runs one BLAS matrix-vector product per row, the same call as
    the unbatched product, so every row is bit-identical to it; a single
    matrix-matrix product would sum in another order.
    """
    if v.ndim == 1:
        return matrix @ v
    return np.matmul(matrix, v[..., None])[..., 0]


class DelayTable:
    """A network's link delays compiled into arrays.

    Links of each kernel kind (BPR, affine, quadratic, Webster) share one
    parameter array per field; cross-affine links share one intercept
    vector and one slope matrix whose rows hold the own slope on the
    diagonal.  Every method takes link flows of shape (L,) or a batch
    (S, L), one row per flow, evaluates each kind's kernels once on all of
    its links, and returns one value per link (the jacobian one row per
    link).  Cross-affine sums run one BLAS dot product per row, so each row
    of a batch is bit-identical to the unbatched call.  Flows are not
    validated here beyond the kernels' own domains.
    """

    def __init__(self, links: Sequence[Link], link_index: Mapping[str, int]):
        members: dict[type, list[int]] = {}
        cross: list[int] = []
        for i, link in enumerate(links):
            kind = type(link.delay)
            if kind is CrossAffineDelay:
                cross.append(i)
            elif issubclass(kind, _KernelDelay):
                members.setdefault(kind, []).append(i)
            else:
                raise UnsupportedDelayError(
                    f"link {link.id!r} has unsupported delay type {kind.__name__}"
                )
        # (kernels on the kind's parameter arrays, the kind's link positions),
        # kinds in order of first appearance
        self.kinds = tuple(
            (
                kind.kernels(
                    *(np.array([getattr(links[i].delay, f.name) for i in idx]) for f in fields(kind))
                ),
                _positions(idx),
            )
            for kind, idx in members.items()
        )
        self.cross_at = np.asarray(cross, dtype=int)
        self.cross_intercepts = np.array([links[i].delay.intercept for i in cross])
        slopes = np.zeros((len(cross), len(links)))
        for row, i in enumerate(cross):
            link = links[i]
            slopes[row, i] = link.delay.own_slope
            for other_id, coef in link.delay.cross.items():
                if other_id not in link_index:
                    raise ValueError(
                        f"link {link.id!r} cross-references unknown link {other_id!r}"
                    )
                if other_id == link.id:
                    raise ValueError(f"link {link.id!r} cross-references itself")
                slopes[row, link_index[other_id]] = coef
        slopes.setflags(write=False)
        self.cross_slopes = slopes

    @property
    def link_additive(self) -> bool:
        return self.cross_at.size == 0

    def values(self, a: np.ndarray) -> np.ndarray:
        tau = np.empty(a.shape)
        for kernels, at in self.kinds:
            tau[..., at] = kernels.values(a[..., at])
        if not self.link_additive:
            tau[..., self.cross_at] = self.cross_intercepts + np.vecdot(
                a[..., None, :], self.cross_slopes
            )
        return tau

    def derivatives(self, a: np.ndarray) -> np.ndarray:
        """d tau_i / d a_i on every kernel link, the whole jacobian of a
        link-additive network; 0 on cross-affine links, whose slopes are the
        rows of cross_slopes."""
        slopes = np.zeros(a.shape)
        for kernels, at in self.kinds:
            slopes[..., at] = kernels.derivatives(a[..., at])
        return slopes

    def jacobian(self, a: np.ndarray) -> np.ndarray:
        """d tau / d a, shape (..., L, L): diagonal on the kernel links, the
        slope rows on the cross-affine links."""
        n = a.shape[-1]
        jac = np.zeros(a.shape + (n,))
        diagonal = jac.reshape(a.shape[:-1] + (n * n,))[..., :: n + 1]  # a view
        diagonal[...] = self.derivatives(a)
        if not self.link_additive:
            jac[..., self.cross_at, :] = self.cross_slopes
        return jac

    def second_derivatives(self, a: np.ndarray) -> np.ndarray:
        """d^2 tau_i / d a_i^2 on every link, zero flow included (where a
        kernel's curvature is undefined it raises DelayDomainError); 0 on
        cross-affine links, which are linear in the link flows."""
        second = np.zeros(a.shape)
        for kernels, at in self.kinds:
            second[..., at] = kernels.second_derivatives(a[..., at])
        return second


def _require_flows(x: np.ndarray, what: str) -> None:
    # NaN fails both comparisons, inf the second
    if x.size and not (x.min() >= 0 and x.max() < np.inf):
        raise DelayDomainError(f"{what} flows must be finite and non-negative")


class Network:
    """Immutable network with delay functions, routes, and OD units.

    A network is separable (`separable`) when it is link-additive and no
    link lies on two routes.  Its route gradient is then diagonal, and so
    are the fleet objective's Hessian and the inverse operator: the forward
    descent runs on the gradient's diagonal (`route_gradient_diagonal`) and
    the inverse's face solves on the operator's, in O(R), instead of on
    (R, R) matrices.

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

        self.delay_table = DelayTable(self.links, self._link_index)
        self.separable = self.delay_table.link_additive and bool(np.all(incidence.sum(axis=0) <= 1.0))

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
        return self.delay_table.link_additive

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

    def _check_route_dim(self, q, batch: bool = False) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape[-1:] != (self.n_routes,) or q.ndim > (2 if batch else 1):
            batches = " (or a batch of them)" if batch else ""
            raise DimensionMismatchError(
                f"expected route vector of length {self.n_routes}{batches}, got shape {q.shape}"
            )
        return q

    def _check_link_dim(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if a.shape[-1:] != (self.n_links,) or a.ndim > 2:
            raise DimensionMismatchError(
                f"expected link vector of length {self.n_links} (or a batch of them), "
                f"got shape {a.shape}"
            )
        return a

    # -- flow conversion and travel times -------------------------------------
    #
    # Every method here takes one flow vector or a batch (S, R) / (S, L) of
    # them, one flow per row; each row of a batch is bit-identical to the
    # unbatched call.

    def route_to_link(self, q) -> np.ndarray:
        """Aggregate a route flow into the induced link flow (linear)."""
        return _rowwise(self.incidence.T, self._check_route_dim(q, batch=True))

    def link_travel_times(self, a) -> np.ndarray:
        a = self._check_link_dim(a)
        _require_flows(a, "link")
        return self.delay_table.values(a)

    def link_time_jacobian(self, a) -> np.ndarray:
        """d tau / d a, an (A, A) matrix per flow; diagonal unless
        cross-dependence."""
        return self.delay_table.jacobian(self._check_link_dim(a))

    def link_second_derivatives(self, a) -> np.ndarray:
        """d^2 tau_a / d a_a^2 on every link carrying flow; 0 on cross-affine
        links, whose delays are linear in the link flows.

        Links without flow report 0: the curvature may be unbounded there
        (BPR powers below 2), and the objective weights it by a link flow
        that vanishes with it.
        """
        a = self._check_link_dim(a)
        flowing = a > 0
        # 0.5 lies inside every kernel's domain; those entries are dropped
        second = self.delay_table.second_derivatives(np.where(flowing, a, 0.5))
        return np.where(flowing, second, 0.0)

    def route_times(self, q) -> np.ndarray:
        """Travel time on every route at total flow q (route travel times are
        sums of the member links' delays)."""
        q = self._check_route_dim(q, batch=True)
        _require_flows(q, "route")
        a = _rowwise(self.incidence.T, q)
        return _rowwise(self.incidence, self.delay_table.values(a))

    def route_gradient(self, q) -> np.ndarray:
        """Gradient matrix of route travel times with respect to route flows:
        the incidence matrix composed with the link-time jacobian."""
        jac = self.link_time_jacobian(self.route_to_link(q))
        return self.incidence @ jac @ self.incidence.T

    def route_gradient_diagonal(self, q) -> np.ndarray:
        """The diagonal of route_gradient on a link-additive network: each
        route's summed link slopes, N tau'.  On a separable network it is
        the whole gradient."""
        if not self.link_additive:
            raise UnsupportedDelayError("the route gradient's diagonal needs link-additive delays")
        return _rowwise(self.incidence, self.delay_table.derivatives(self.route_to_link(q)))

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

    def restricted_min_eigenvalue(self, q):
        """Smallest eigenvalue of sym(route gradient) on feasible directions
        (the unit-norm Rayleigh quotient), one per row of a batch.  Returns
        +inf when the feasible subspace is trivial.
        """
        basis = self.feasible_direction_basis()
        if basis.shape[1] == 0:
            return math.inf
        grad = self.route_gradient(q)
        sym = 0.5 * (grad + np.swapaxes(grad, -1, -2))
        value = np.linalg.eigvalsh(basis.T @ sym @ basis)[..., 0]
        return float(value) if value.ndim == 0 else value

    def feasible_direction_pd(self, q, pd_rtol: float = 1e-9) -> PDCertificate:
        """Positive definiteness of the travel-time gradient on feasible
        directions, the gate for inverse uniqueness."""
        q = self._check_route_dim(q)
        # a unit pair swap (1, -1) has unit scale: twice the unit-norm quotient
        min_rayleigh = 2.0 * self.restricted_min_eigenvalue(q)
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

"""Network model: links with delay functions, routes, OD units, travel times.

Conventions used throughout the package:

* Flows are vehicles per period, times are in a consistent time unit, so
  objective values carry vehicle-time units.
* Route flow vectors have one entry per route, in the order of the route
  list; each OD unit owns the routes it lists, in that order, and the
  units partition the route list without needing to be contiguous in it.
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
from functools import cached_property
from typing import Callable, ClassVar, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DelayDomainError,
    DimensionMismatchError,
    ModelInputError,
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


def _require_finite(value: float, *position) -> None:
    if not math.isfinite(value):
        name = ".".join(map(str, position))
        raise ModelInputError("bad-value", position, f"{name} must be finite, got {value!r}")


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
    the link flows.  Construction refuses a parameter that is not finite,
    or not positive where the kind names it in `positive`."""

    kernels: ClassVar[type]
    kind: ClassVar[str]
    positive: ClassVar[tuple[str, ...]]
    gamma: ClassVar[float | None] = None
    convex_nondecreasing: ClassVar[bool] = True
    affine_in_flows: ClassVar[bool] = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            _require_finite(value, f.name)
            if f.name in self.positive and value <= 0:
                raise ModelInputError("bad-value", (f.name,), f"{f.name} must be positive, got {value!r}")

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
    positive = ("t0", "d", "capacity", "power")

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


@dataclass(frozen=True)
class AffineDelay(_KernelDelay):
    """intercept + slope * x with strictly positive slope."""

    kernels = _AffineKernels
    kind = "affine"
    positive = ("slope",)
    gamma = 1.0
    affine_in_flows = True

    intercept: float
    slope: float


@dataclass(frozen=True)
class QuadraticDelay(_KernelDelay):
    """intercept + coefficient * x**2 with strictly positive coefficient."""

    kernels = _QuadraticKernels
    kind = "quadratic"
    positive = ("coefficient",)
    gamma = 2.0

    intercept: float
    coefficient: float


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
    positive = ("green_ratio", "saturation_flow", "cycle")

    green_ratio: float
    saturation_flow: float
    cycle: float

    def __post_init__(self):
        super().__post_init__()
        if self.green_ratio >= 1.0:
            message = f"green_ratio must be below 1, got {self.green_ratio!r}"
            raise ModelInputError("bad-value", ("green_ratio",), message)


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
        _require_finite(self.intercept, "intercept")
        _require_finite(self.own_slope, "own_slope")
        for key, coef in self.cross.items():
            _require_finite(coef, "cross", key)
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
            raise ModelInputError("malformed", ("links",), f"route {self.id!r} has no links")


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
            raise ModelInputError("malformed", ("routes",), "OD unit must reference at least one route")
        for name in ("q_hdv", "q_crv"):
            value = getattr(self, name)
            _require_finite(value, name)
            if value < 0:
                raise ModelInputError("negative-flow", (name,), f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class LinearIndependence:
    independent: bool
    null_basis: np.ndarray  # (R, k) orthonormal basis of {v : incidence^T v = 0}


@dataclass(frozen=True)
class PDCertificate:
    """Outcome of the feasible-direction positive-definiteness test.

    min_rayleigh is the smallest eigenvalue of the travel-time gradient
    restricted to feasible directions, normalized so that a unit pair swap
    (one vehicle moved between two routes, direction (1, -1)) has unit
    scale.  +inf marks a vacuous pass (no feasible direction exists).  It
    is computed the first time it is read, by `rayleigh` (a function of no
    arguments), and kept: the slope rule (Network._pd_test), which
    decides without it, leaves the eigendecomposition to the callers that
    read it.  Two threads reading it first at once may both compute it, to
    the same bits.

    threshold is what `passes` compared with: PD_RTOL * |trace| / n, which
    the dense test's min_rayleigh must exceed (0 on a vacuous pass), or 0,
    the slope rule's bound on every private slope; a rule pass may read a
    min_rayleigh at or below 0 where rounding hides a tiny eigenvalue.
    """

    passes: bool
    threshold: float
    rayleigh: Callable[[], float] = field(repr=False)

    @cached_property
    def min_rayleigh(self) -> float:
        return self.rayleigh()


def _restricted_min_eigenvalue(basis: np.ndarray, grad: np.ndarray):
    """Least eigenvalue of sym(grad) on the orthonormal columns of basis
    (the unit-norm Rayleigh quotient), one per matrix of a batch."""
    sym = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    value = np.linalg.eigvalsh(basis.T @ sym @ basis)[..., 0]
    return float(value) if value.ndim == 0 else value


# relative thresholds of the dense positive-definiteness test (x |trace| / n)
# and of the incidence's rank (x its largest singular value), fixed in code:
# no setting decides a certificate
PD_RTOL = 1e-9
RANK_RTOL = 1e-9


def _pd_certificate(basis: np.ndarray, grad: np.ndarray) -> PDCertificate:
    """Positive definiteness of the (n, n) gradient grad on the span of the
    orthonormal columns of basis: twice its least restricted eigenvalue
    against PD_RTOL * |trace| / n.  The dense test of both inverse
    certificates where the slope rule does not decide (Network._pd_test)."""
    if basis.shape[1] == 0:
        return PDCertificate(passes=True, threshold=0.0, rayleigh=lambda: math.inf)
    # a unit pair swap (1, -1) has unit scale: twice the unit-norm quotient
    min_rayleigh = 2.0 * _restricted_min_eigenvalue(basis, grad)
    threshold = PD_RTOL * abs(np.trace(grad)) / grad.shape[0]
    return PDCertificate(
        passes=bool(min_rayleigh > threshold),
        threshold=float(threshold),
        rayleigh=lambda: min_rayleigh,
    )


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
    its links, and returns one value per link; the jacobian, diag(tau')
    and the cross-affine rows, takes the slopes instead and returns one
    row per link.  Cross-affine sums run one BLAS dot product per row, so each row
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
                position = ("links", i, "delay", "cross", other_id)
                if other_id not in link_index:
                    message = f"link {link.id!r} cross-references unknown link {other_id!r}"
                    raise ModelInputError("dangling-id", position, message)
                if other_id == link.id:
                    raise ModelInputError("bad-value", position, f"link {link.id!r} cross-references itself")
                slopes[row, link_index[other_id]] = coef
        slopes.setflags(write=False)
        self.cross_slopes = slopes
        # when every link is of one kernel kind, its kernels answer for the
        # whole table
        self.single = self.kinds[0][0] if len(self.kinds) == 1 and not cross else None

    @property
    def link_additive(self) -> bool:
        return self.cross_at.size == 0

    def values(self, a: np.ndarray) -> np.ndarray:
        if self.single is not None:
            return self.single.values(a)
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
        if self.single is not None:
            return self.single.derivatives(a)
        slopes = np.zeros(a.shape)
        for kernels, at in self.kinds:
            slopes[..., at] = kernels.derivatives(a[..., at])
        return slopes

    def jacobian(self, slopes: np.ndarray) -> np.ndarray:
        """d tau / d a, shape (..., L, L), from the slopes derivatives(a)
        at the link flows a: diagonal on the kernel links, the slope rows on
        the cross-affine links."""
        n = slopes.shape[-1]
        jac = np.zeros(slopes.shape + (n,))
        diagonal = jac.reshape(slopes.shape[:-1] + (n * n,))[..., :: n + 1]  # a view
        diagonal[...] = slopes
        if not self.link_additive:
            jac[..., self.cross_at, :] = self.cross_slopes
        return jac

    def second_derivatives(self, a: np.ndarray) -> np.ndarray:
        """d^2 tau_i / d a_i^2 on every link, zero flow included (where a
        kernel's curvature is undefined it raises DelayDomainError); 0 on
        cross-affine links, which are linear in the link flows."""
        if self.single is not None:
            return self.single.second_derivatives(a)
        second = np.zeros(a.shape)
        for kernels, at in self.kinds:
            second[..., at] = kernels.second_derivatives(a[..., at])
        return second


def _index_by_id(items: Sequence[Link] | Sequence[Route], what: str) -> dict[str, int]:
    """Each link's or route's position by its id; ModelInputError for an
    empty list or an id given twice."""
    if not items:
        raise ModelInputError("malformed", (what,), f"network needs at least one {what[:-1]}")
    index: dict[str, int] = {}
    for i, item in enumerate(items):
        if index.setdefault(item.id, i) != i:
            raise ModelInputError("bad-value", (what, i, "id"), f"duplicate {what[:-1]} id {item.id!r}")
    return index


def _resolve(ids: Sequence[str], index: Mapping[str, int], owner: str, position: tuple) -> list[int]:
    """The positions in index of the ids that owner lists at position,
    whose last entry names the list; ModelInputError at the first missing."""
    for j, key in enumerate(ids):
        if key not in index:
            raise ModelInputError(
                "dangling-id", position + (j,), f"{owner} references unknown {position[-1][:-1]} {key!r}"
            )
    return [index[key] for key in ids]


def _require_flows(x: np.ndarray, what: str) -> None:
    # NaN fails both comparisons, inf the second
    if x.size and not (x.min() >= 0 and x.max() < np.inf):
        raise DelayDomainError(f"{what} flows must be finite and non-negative")


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


def _route_units(blocks: Sequence[np.ndarray], n_routes: int) -> np.ndarray:
    """Each route's unit, for blocks that partition range(n_routes)."""
    unit = np.empty(n_routes, dtype=int)
    unit[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])
    return _read_only(unit)


@dataclass(frozen=True, eq=False)
class _Structure:
    """A network's structure, decided once (by _structure).  Its arrays are
    read-only.  Its bases are formed when first read, never at
    construction, and kept (two threads reading one first may both form
    it, to the same bits)."""

    incidence: np.ndarray
    blocks: tuple[np.ndarray, ...]  # each unit's route positions, in the order it lists them
    route_unit: np.ndarray  # each route's unit
    demands: np.ndarray  # each unit's q_hdv + q_crv
    fleet_sizes: np.ndarray  # each unit's q_crv
    routes_on: np.ndarray  # each link's number of routes
    shared: np.ndarray  # the links on two or more routes
    separable: bool  # link-additive with no shared link
    cross_term: np.ndarray | None  # N E N^T (see Network._route_gradient_at), None where 0
    singular_bound: float  # sqrt(|N|_1 |N|_inf), inf unless every route has a link of its own

    @cached_property
    def zero_sum_basis(self) -> np.ndarray:
        """Network.feasible_direction_basis: each unit's columns in turn."""
        n_routes = self.incidence.shape[0]
        columns = [np.zeros((n_routes, 0))]
        for block in self.blocks:
            if len(block) > 1:
                basis = np.zeros((n_routes, len(block) - 1))
                basis[block] = np.linalg.svd(np.ones((1, len(block))))[2][1:].T
                columns.append(basis)
        return _read_only(np.hstack(columns))

    @cached_property
    def link_basis(self) -> np.ndarray:
        """Orthonormal (L, k) basis of the link images of zero_sum_basis."""
        image = self.incidence.T @ self.zero_sum_basis
        if image.shape[1] == 0:
            return _read_only(image)
        u, s, _ = np.linalg.svd(image, full_matrices=False)
        return _read_only(u[:, : int(np.sum(s > 1e-12 * s[0]))])

    @cached_property
    def independence(self) -> LinearIndependence:
        """Network.routes_linearly_independent's answer."""
        n_routes = self.incidence.shape[0]
        if RANK_RTOL * self.singular_bound < 1.0:
            return LinearIndependence(True, _read_only(np.zeros((n_routes, 0))))
        u, s, _ = np.linalg.svd(self.incidence)
        rank = int(np.sum(s > RANK_RTOL * s[0]))
        return LinearIndependence(rank == n_routes, _read_only(u[:, rank:].copy()))

    @cached_property
    def fiber(self) -> tuple[np.ndarray, np.ndarray]:
        """[N^T; indicator], a route flow's link flows and unit sums, and an
        orthonormal (R, k) basis of its null space (the rank counting the
        singular values above RANK_RTOL times the largest)."""
        n_routes = self.incidence.shape[0]
        indicator = np.zeros((len(self.blocks), n_routes))
        indicator[self.route_unit, np.arange(n_routes)] = 1.0
        system = _read_only(np.vstack([self.incidence.T, indicator]))
        _, s, vt = np.linalg.svd(system)
        return system, _read_only(vt[int(np.sum(s > RANK_RTOL * s[0])):].T)


def _structure(incidence: np.ndarray, delay_table: DelayTable, units, blocks) -> _Structure:
    """The _Structure of a network from its read-only incidence, its delay
    table, and its units with the route positions each lists, a partition
    of the routes."""
    routes_on = _read_only(incidence.sum(axis=0))
    shared = _read_only(routes_on > 1.0)
    cross_term = None
    if not delay_table.link_additive:
        rows = np.zeros((len(routes_on), len(routes_on)))
        rows[delay_table.cross_at] = delay_table.cross_slopes
        cross_term = _read_only(incidence @ rows @ incidence.T)
    own = incidence[:, routes_on == 1.0].any(axis=1).all()
    bound = math.sqrt(routes_on.max() * incidence.sum(axis=1).max()) if own else math.inf
    blocks = tuple(_read_only(np.asarray(block, dtype=int)) for block in blocks)
    demands = _read_only(np.array([u.q_hdv + u.q_crv for u in units]))
    sizes = _read_only(np.array([u.q_crv for u in units]))
    separable = delay_table.link_additive and not shared.any()
    route_unit = _route_units(blocks, len(incidence))
    return _Structure(incidence, blocks, route_unit, demands, sizes, routes_on, shared, separable, cross_term, bound)


class Network:
    """Immutable network with delay functions, routes, and OD units.

    The route gradient is N diag(tau') N^T from the link slopes tau', plus
    N E N^T, E the jacobian's constant cross-affine rows.  Where the network
    is link-additive and no shared link (on two or more routes) has slope,
    it is diagonal, and so are the objective's Hessian and the inverse
    operator, which then run on the route slopes N tau' in O(R)
    (_route_gradient_form decides); on a separable network, at every flow.

    Parameters
    ----------
    links, routes : link and route definitions; every route references
        existing links.
    units : OD units partitioning the route list; every network has one
        at least.

    Construction raises ModelInputError at the first failing fact of the
    links (one at least, unique ids, cross slopes on other links), routes
    (the same, existing links), units (existing routes), then the partition.
    """

    def __init__(
        self,
        links: Sequence[Link],
        routes: Sequence[Route],
        units: Sequence[ODUnit],
    ):
        self.links = tuple(links)
        self.routes = tuple(routes)
        self._link_index = _index_by_id(self.links, "links")
        self.delay_table = DelayTable(self.links, self._link_index)
        self._route_index = _index_by_id(self.routes, "routes")
        incidence = np.zeros((len(self.routes), len(self.links)))
        for r, route in enumerate(self.routes):
            at = _resolve(route.link_ids, self._link_index, f"route {route.id!r}", ("routes", r, "links"))
            incidence[r, at] = 1.0
        incidence.setflags(write=False)
        self.incidence = incidence

        self.units = tuple(units)
        if not self.units:
            raise ModelInputError("malformed", ("units",), "network needs at least one unit")
        blocks = [
            _resolve(unit.route_ids, self._route_index, f"unit {u}", ("units", u, "routes"))
            for u, unit in enumerate(self.units)
        ]
        covered: set[int] = set()
        for u, block in enumerate(blocks):
            for j, r in enumerate(block):
                if r in covered:
                    message = f"units must not share routes: {self.routes[r].id!r} is listed twice"
                    raise ModelInputError("bad-value", ("units", u, "routes", j), message)
                covered.add(r)
        if len(covered) != len(self.routes):
            names = [route.id for r, route in enumerate(self.routes) if r not in covered]
            raise ModelInputError("bad-value", (), f"routes not covered by any unit: {names}")
        self._structure = _structure(incidence, self.delay_table, self.units, blocks)

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

    @property
    def separable(self) -> bool:
        """True when the network is link-additive and no link is on two routes."""
        return self._structure.separable

    def unit_blocks(self) -> tuple[np.ndarray, ...]:
        """Each unit's route positions, in the order it lists them (read-only)."""
        return self._structure.blocks

    def fleet_sizes(self) -> np.ndarray:
        """Each unit's fleet size q_crv (read-only)."""
        return self._structure.fleet_sizes

    def _check_dim(self, x, kind: str, batch: bool = True) -> np.ndarray:
        """x as a float "route" or "link" vector, or a batch of them."""
        x = np.asarray(x, dtype=float)
        n = self.n_routes if kind == "route" else self.n_links
        if x.shape[-1:] != (n,) or x.ndim > (2 if batch else 1):
            batches = " (or a batch of them)" if batch else ""
            raise DimensionMismatchError(f"expected {kind} vector of length {n}{batches}, got shape {x.shape}")
        return x

    # -- flow conversion and travel times -------------------------------------
    #
    # Every method here takes one flow vector or a batch (S, R) / (S, L) of
    # them, one flow per row; each row of a batch is bit-identical to the
    # unbatched call.

    def route_to_link(self, q) -> np.ndarray:
        """Aggregate a route flow into the induced link flow (linear)."""
        return self._route_to_link_at(self._check_dim(q, "route"))

    def _route_to_link_at(self, q: np.ndarray) -> np.ndarray:
        """route_to_link at route flows q of the right shape."""
        return _rowwise(self.incidence.T, q)

    def link_travel_times(self, a) -> np.ndarray:
        a = self._check_dim(a, "link")
        _require_flows(a, "link")
        return self.delay_table.values(a)

    def link_time_jacobian(self, a) -> np.ndarray:
        """d tau / d a, an (A, A) matrix per flow; diagonal unless
        cross-dependence."""
        return self.delay_table.jacobian(self.delay_table.derivatives(self._check_dim(a, "link")))

    def _link_second_derivatives_at(self, a: np.ndarray) -> np.ndarray:
        """d^2 tau_a / d a_a^2 at link flows a of the right shape, on every
        link carrying flow; 0 on cross-affine links, whose delays are linear
        in the link flows.

        Links without flow report 0: the curvature may be unbounded there
        (BPR powers below 2), and the objective weights it by a link flow
        that vanishes with it.
        """
        flowing = a > 0
        # 0.5 lies inside every kernel's domain; those entries are dropped
        second = self.delay_table.second_derivatives(np.where(flowing, a, 0.5))
        return np.where(flowing, second, 0.0)

    def route_times(self, q) -> np.ndarray:
        """Travel time on every route at total flow q (route travel times are
        sums of the member links' delays)."""
        return self._link_flows_and_times(self._check_dim(q, "route"))[1]

    def _link_flows_and_times(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(link flows, route times) at route flows q of the right shape:
        route_times' arithmetic, with the link flows it forms on the way."""
        _require_flows(q, "route")
        a = self._route_to_link_at(q)
        return a, _rowwise(self.incidence, self.delay_table.values(a))

    def route_gradient(self, q) -> np.ndarray:
        """Gradient matrix of route travel times with respect to route flows,
        N J N^T with J the link-time jacobian (see _route_gradient_at)."""
        return self._route_gradient_at(self.delay_table.derivatives(self.route_to_link(q)))

    def _route_gradient_at(self, slopes: np.ndarray) -> np.ndarray:
        """The route gradient from the link slopes tau' (DelayTable.derivatives)
        at its link flows, one vector or a batch (S, L): N diag(tau') N^T,
        plus N E N^T, E the jacobian's constant cross-affine rows."""
        grad = (self.incidence * slopes[..., None, :]) @ self.incidence.T
        cross_term = self._structure.cross_term
        return grad if cross_term is None else grad + cross_term

    def _route_gradient_form_at(self, a: np.ndarray) -> np.ndarray:
        """_route_gradient_form at the link flows a, from one slope evaluation."""
        return self._route_gradient_form(self.delay_table.derivatives(a))

    def _route_gradient_form(self, slopes: np.ndarray) -> np.ndarray:
        """The route gradient from the link slopes tau' at its link flows, in
        the one form the objective and both inverse levels carry it: the
        route slopes N tau' (R,) where no shared link has slope, the matrix
        otherwise.  A separable network skips the test."""
        if self.separable or (self.link_additive and not np.count_nonzero(slopes[self._structure.shared])):
            return _rowwise(self.incidence, slopes)
        return self._route_gradient_at(slopes)

    # -- structure certificates ------------------------------------------------

    def routes_linearly_independent(self) -> LinearIndependence:
        """Rank test of the incidence matrix via singular values: routes are
        independent when every singular value exceeds RANK_RTOL times the
        largest.

        When dependent, returns an orthonormal basis of route-space vectors
        whose induced link flows vanish.  Where every route has a link no
        other route uses, the least singular value is at least 1 and the
        largest at most sqrt(|N|_1 |N|_inf) (Golub and Van Loan, section
        2.3): when RANK_RTOL times that bound is below 1, no SVD runs.
        The first call decides and every later call returns its answer.
        """
        return self._structure.independence

    def feasible_direction_basis(self) -> np.ndarray:
        """Orthonormal basis of directions with zero sum inside every unit block (read-only)."""
        return self._structure.zero_sum_basis

    def feasible_direction_pd(self, q) -> PDCertificate:
        """Positive definiteness of the travel-time gradient on feasible
        directions, the gate for inverse uniqueness (_pd_test): the slope
        rule on the private slopes, exact on a diagonal gradient, else twice
        the least eigenvalue on feasible directions (min_rayleigh) against
        PD_RTOL * |trace| / R.  min_rayleigh is always that dense value,
        computed when first read (see PDCertificate)."""
        q = self._check_dim(q, "route", batch=False)
        slopes = self.delay_table.derivatives(self._route_to_link_at(q))
        return self._feasible_direction_pd_at(self._route_gradient_form(slopes), slopes)

    def _feasible_direction_pd_at(self, grad: np.ndarray, slopes: np.ndarray) -> PDCertificate:
        """feasible_direction_pd from the link slopes at a route flow's link
        flows and the route gradient grad formed from them."""

        def dense() -> PDCertificate:
            # without a unit of two routes the basis is empty and the gradient unread
            matrix = self._route_gradient_at(slopes) if grad.ndim == 1 else grad
            return _pd_certificate(self.feasible_direction_basis(), matrix)

        return self._pd_test(grad, slopes, dense, exact=grad.ndim == 1)

    def _pd_test(self, grad, slopes, dense: Callable[[], PDCertificate], exact: bool) -> PDCertificate:
        """Positive definiteness of the route gradient G (grad, formed from
        the link slopes) on feasible directions, or of the link-time
        jacobian on realisable ones (u = N^T v has u^T J u = v^T G v).  With
        no shared link of negative slope G >= diag(p), p_r the summed slope
        of the links route r uses alone (grad where diagonal), so the slope
        rule passes where no p_r is negative or NaN and no unit has two zero
        entries (a nonzero zero-sum direction needs two routes of one unit).
        Where it fails, its refusal stands when `exact`; otherwise, and off
        link-additive networks, dense() decides.  min_rayleigh is always
        dense()'s, computed when first read."""
        shared = self._structure.shared
        if self.separable or (self.link_additive and np.all(slopes[shared] >= 0.0)):
            p = grad if grad.ndim == 1 else _rowwise(self.incidence, np.where(shared, 0.0, slopes))
            passes = bool(np.all(p >= 0.0)) and all(np.count_nonzero(p[b] == 0.0) < 2 for b in self.unit_blocks())
            if passes or exact:
                return PDCertificate(passes=passes, threshold=0.0, rayleigh=lambda: dense().min_rayleigh)
        return dense()


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

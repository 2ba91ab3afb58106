"""Fleet objective: evaluation, gradient, and convexity classification.

The fleet minimizes F(h, f) = (lam_hdv * h + lam_crv * f) . t(h + f) over
its feasible assignments f, where h is the HDV route flow and t the route
travel-time vector.  The sign pattern of (lam_hdv, lam_crv) together with
the network's structure decides whether F(h, .) is convex, concave, or
neither, which in turn selects the forward solver and gates inverse
uniqueness.  The classifier reads that structure from what each delay kind
declares in network.py (its power-family exponent `gamma`, and whether it
is convex and nondecreasing or affine in the link flows); it names no
delay class.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, UnsupportedDelayError
from .network import PD_RTOL, Network

__all__ = [
    "FleetStrategy",
    "ConvexityKind",
    "ConvexityClass",
    "LinkCurvature",
    "eval_objective",
    "objective_gradient_in_f",
    "objective_hessian_in_f",
    "classify_convexity",
    "link_curvature_sign",
]


@dataclass(frozen=True)
class FleetStrategy:
    """Weights on HDV and fleet total travel times in the one-day objective.

    Presets cover the named behaviours; arbitrary finite pairs are accepted
    for experiments.  L = lam_crv - lam_hdv is the margin that decides
    invertibility of the assignment (invertible when L > 0).
    """

    lam_hdv: float
    lam_crv: float

    def __post_init__(self):
        if not (math.isfinite(self.lam_hdv) and math.isfinite(self.lam_crv)):
            raise ValueError("strategy weights must be finite")

    @property
    def margin(self) -> float:
        return self.lam_crv - self.lam_hdv

    @classmethod
    def preset(cls, name: str) -> "FleetStrategy":
        try:
            return PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown strategy preset {name!r}; choose from {sorted(PRESETS)}"
            ) from None


PRESETS = {
    "selfish": FleetStrategy(0.0, 1.0),
    "altruistic": FleetStrategy(1.0, 0.0),
    "malicious": FleetStrategy(-1.0, 0.0),
    "social": FleetStrategy(1.0, 1.0),
    "disruptive": FleetStrategy(-1.0, 1.0),
}


class ConvexityKind(enum.Enum):
    CONVEX_EVERYWHERE = "ConvexEverywhere"
    CONCAVE_EVERYWHERE = "ConcaveEverywhere"
    INDEFINITE = "Indefinite"


@dataclass(frozen=True)
class LinkCurvature:
    """Per-link curvature data for local convexity tests.

    For a power-family link with exponent gamma the second derivative of the
    link objective in the fleet flow phi has the sign of

        (2*lam_crv + (gamma - 1)*lam_hdv) * eta + lam_crv * (1 + gamma) * phi

    (eta the HDV link flow).  threshold is the coefficient c such that the
    sign is positive exactly when phi > c * eta; it is None when lam_crv <= 0
    and the threshold form is unavailable.
    """

    link_id: str
    gamma: float
    eta_coefficient: float
    phi_coefficient: float
    threshold: float | None


@dataclass(frozen=True)
class ConvexityClass:
    kind: ConvexityKind
    per_link: tuple[LinkCurvature, ...]

    @property
    def label(self) -> str:
        return self.kind.value


def _check_pair(
    h: np.ndarray, f: np.ndarray, n: int, batch: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float)
    if h.shape != f.shape or h.shape[-1:] != (n,) or h.ndim > (2 if batch else 1):
        raise DimensionMismatchError(
            f"expected two route vectors of length {n}, got {h.shape} and {f.shape}"
        )
    return h, f


class _Point(NamedTuple):
    """One point's quantities, each formed once (see _evaluate)."""

    value: float | np.ndarray  # the objective w . t
    x: np.ndarray  # the link flows N^T (h + f)
    w: np.ndarray  # the route weights lam_hdv*h + lam_crv*f
    t: np.ndarray  # the route times t(h + f), summed from tau(x)


def _evaluate(strategy: FleetStrategy, h: np.ndarray, f: np.ndarray, network: Network) -> _Point:
    """The objective at f and the link flows, weights and route times it is
    built from: the one place they are formed, which the gradient
    (_gradient_in_f) and the Hessian (_hessian_in_f) at f read.  h and f
    are checked pairs, one vector or a batch (S, R) of them."""
    x, t = network._link_flows_and_times(h + f)
    w = strategy.lam_hdv * h + strategy.lam_crv * f
    value = np.vecdot(w, t)
    return _Point(float(value) if h.ndim == 1 else value, x, w, t)


def eval_objective(strategy: FleetStrategy, h, f, network: Network):
    """Fleet objective in route form, (lam_hdv*h + lam_crv*f) . t(h + f).

    h and f may also be batches (S, R); the result is then one objective
    per row, each bit-identical to the unbatched call (one BLAS dot product
    per row)."""
    h, f = _check_pair(h, f, network.n_routes, batch=True)
    return _evaluate(strategy, h, f, network).value


def objective_gradient_in_f(strategy: FleetStrategy, h, f, network: Network) -> np.ndarray:
    """Gradient of F(h, .) at f: lam_crv*t(q) + grad_t(q)^T (lam_hdv*h + lam_crv*f)
    with q = h + f.  Contracting with a direction g gives the directional
    derivative of the objective."""
    h, f = _check_pair(h, f, network.n_routes)
    return _gradient_in_f(strategy, _evaluate(strategy, h, f, network), network)[0]


def _gradient_in_f(strategy: FleetStrategy, point: _Point, network: Network) -> tuple[np.ndarray, np.ndarray]:
    """objective_gradient_in_f at the evaluated point, and the route
    gradient it is built from, which _hessian_in_f takes, in the form of
    Network._route_gradient_form_at.  Both come from the point's link
    flows, and the gradient from its weights and travel times."""
    grad = network._route_gradient_form_at(point.x)
    return strategy.lam_crv * point.t + (grad * point.w if grad.ndim == 1 else grad.T @ point.w), grad


def objective_hessian_in_f(strategy: FleetStrategy, h, f, network: Network) -> np.ndarray:
    """Hessian of F(h, .) at f:

        lam_crv * (G + G^T) + sum_a (N^T w)_a * tau_a''(x_a) * n_a n_a^T

    with G the route gradient at q = h + f (Network._route_gradient_at from
    the link slopes), w = lam_hdv*h + lam_crv*f, x the link flows, N the
    incidence matrix and n_a its column a.  Cross-affine delays are linear,
    so only scalar delays contribute curvature."""
    h, f = _check_pair(h, f, network.n_routes)
    point = _evaluate(strategy, h, f, network)
    grad = network._route_gradient_at(network.delay_table.derivatives(point.x))
    return _hessian_in_f(strategy, point, network, grad)


def _hessian_in_f(strategy: FleetStrategy, point: _Point, network: Network, grad: np.ndarray) -> np.ndarray:
    """objective_hessian_in_f at the evaluated point from the route
    gradient G there; from a diagonal G (R,) (see _gradient_in_f) the
    Hessian's diagonal, 2 * lam_crv * G + N (w_link * tau''), the whole
    Hessian there.  The point's arrays have their shapes already, so the
    link weights and curvatures skip the public methods' checks."""
    weight = network._route_to_link_at(point.w)
    curvature = weight * network._link_second_derivatives_at(point.x)
    n = network.incidence
    if grad.ndim == 1:
        return 2.0 * strategy.lam_crv * grad + n @ curvature
    return strategy.lam_crv * (grad + grad.T) + (n * curvature) @ n.T


def _curvature_data(strategy: FleetStrategy, network: Network) -> tuple[LinkCurvature, ...]:
    rows = []
    for link in network.links:
        gamma = link.delay.gamma
        if gamma is None:
            raise UnsupportedDelayError(
                f"convexity classification supports BPR/affine/quadratic links only, "
                f"got {type(link.delay).__name__}"
            )
        if gamma < 1.0:
            raise UnsupportedDelayError(
                f"link {link.id!r} has exponent {gamma} < 1; the curvature "
                "formulas assume convex increasing delays"
            )
        eta_c = 2.0 * strategy.lam_crv + (gamma - 1.0) * strategy.lam_hdv
        phi_c = strategy.lam_crv * (1.0 + gamma)
        threshold = -eta_c / phi_c if strategy.lam_crv > 0 else None
        rows.append(
            LinkCurvature(
                link_id=link.id,
                gamma=gamma,
                eta_coefficient=eta_c,
                phi_coefficient=phi_c,
                threshold=threshold,
            )
        )
    return tuple(rows)


def _sign_definite_kind(strategy: FleetStrategy) -> ConvexityKind | None:
    """Class shared by every network whose delays are convex and
    nondecreasing: each link's second derivative in the fleet flow,
    2*lam_crv*tau' + w*tau'' with w the link's weighted flow, keeps the sign
    of the weights when both have one."""
    lh, lc = strategy.lam_hdv, strategy.lam_crv
    if lh >= 0 and lc >= 0 and lh + lc > 0:
        return ConvexityKind.CONVEX_EVERYWHERE
    if lh <= 0 and lc <= 0 and lh + lc < 0:
        return ConvexityKind.CONCAVE_EVERYWHERE
    return None


def _mixed_sign_power_kind(strategy: FleetStrategy, gammas: list[float]) -> ConvexityKind:
    lh, lc = strategy.lam_hdv, strategy.lam_crv
    if lh < 0 < lc and all(lc > (1.0 - gamma) / 2.0 * lh for gamma in gammas):
        return ConvexityKind.CONVEX_EVERYWHERE
    if lc < 0 < lh and all(lc < (1.0 - gamma) / 2.0 * lh for gamma in gammas):
        return ConvexityKind.CONCAVE_EVERYWHERE
    return ConvexityKind.INDEFINITE


def _quadratic_kind(strategy: FleetStrategy, network: Network) -> ConvexityKind:
    """Class of a quadratic objective from the eigenvalues of its constant
    Hessian restricted to the feasible directions."""
    zero = np.zeros(network.n_routes)
    hess = objective_hessian_in_f(strategy, zero, zero, network)
    basis = network.feasible_direction_basis()
    eig = np.linalg.eigvalsh(basis.T @ hess @ basis)
    threshold = PD_RTOL * abs(np.trace(hess)) / network.n_routes
    if eig.size == 0 or eig[0] > threshold:
        return ConvexityKind.CONVEX_EVERYWHERE
    if eig[-1] <= threshold:
        return ConvexityKind.CONCAVE_EVERYWHERE
    return ConvexityKind.INDEFINITE


def classify_convexity(strategy: FleetStrategy, network: Network) -> ConvexityClass:
    """Classify F(h, .) from the network's structure: over the whole
    non-negative orthant for link-additive networks, and along the feasible
    directions of the OD units for affine and cross-affine ones.

    * Link-additive power-family networks (exponents >= 1): mixed-sign
      strategies are convex everywhere only when every link's exponent
      satisfies lam_crv > (1 - gamma)/2 * lam_hdv; the mirrored condition
      gives concavity.  Heterogeneous links take the most conservative
      outcome (every link must pass).  per_link holds each link's
      curvature data.
    * Link-additive networks whose delays are all convex and nondecreasing
      (power family and Webster): sign-definite weights give convex or
      concave, mixed signs indefinite.
    * Affine and cross-affine networks: the objective is quadratic; its
      Hessian restricted to feasible directions is convex when its smallest
      eigenvalue exceeds PD_RTOL * |trace| / R, concave when its largest
      does not (this includes lam_crv = 0, a linear objective), and
      indefinite otherwise.
    * Anything else is indefinite: no global certificate applies.

    per_link is empty outside the power family.
    """
    per_link = _curvature_data(strategy, network) if _power_family(network) else ()
    return ConvexityClass(kind=_convexity_kind(strategy, network), per_link=per_link)


def _power_family(network: Network) -> bool:
    """Whether the network is link-additive with convex, nondecreasing
    power-family delays: the class that has per-link curvature rows."""
    return network.link_additive and all(
        link.delay.gamma is not None and link.delay.convex_nondecreasing for link in network.links
    )


def _convexity_kind(strategy: FleetStrategy, network: Network) -> ConvexityKind:
    """classify_convexity's kind alone, without the per-link rows."""
    delays = [link.delay for link in network.links]
    if _power_family(network):
        return _sign_definite_kind(strategy) or _mixed_sign_power_kind(strategy, [d.gamma for d in delays])
    if network.link_additive and all(d.convex_nondecreasing for d in delays):
        return _sign_definite_kind(strategy) or ConvexityKind.INDEFINITE
    if all(d.affine_in_flows for d in delays):
        return _quadratic_kind(strategy, network)
    return ConvexityKind.INDEFINITE


def link_curvature_sign(row: LinkCurvature, eta: float, phi: float) -> int:
    """Sign of the per-link second derivative of the link objective in phi."""
    value = row.eta_coefficient * eta + row.phi_coefficient * phi
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0

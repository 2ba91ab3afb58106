"""Shared instance builders for the test suite, and the references the
tests compare the library against."""

import ctypes
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from fleet_inverse import (
    AffineDelay,
    BPRDelay,
    CrossAffineDelay,
    DimensionMismatchError,
    FleetStrategy,
    InfeasibleProblemError,
    Link,
    Network,
    ODUnit,
    QuadraticDelay,
    Route,
    UnsupportedDelayError,
    single_od_network,
)
from fleet_inverse.inverse import _route_operator, _times
from fleet_inverse.network import _restricted_min_eigenvalue
from fleet_inverse.objective import _check_pair, _curvature_data, link_curvature_sign
from fleet_inverse.scenario import _FIELDS, SCHEMA_VERSION, Scenario
from fleet_inverse.stackelberg import MALICIOUS, _demands, _expected_objectives, _mixture_arrays


def _openblas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS selected on this CPU, or
    "unknown" when numpy bundles no library that names it."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    # the byte pins (REPORT_SHA256, LADDER_SHA256, SWEEP_SHA256, the
    # in-process digests) hold under the kernel they were recorded with
    return f"numpy {np.__version__}, OpenBLAS core: {_openblas_core()}"


def fd_route_gradient(network: Network, q, step_scale: float = 1e-6) -> np.ndarray:
    """Central finite differences of route_times (one-sided at the q >= 0
    boundary), an oracle for Network.route_gradient."""
    q = np.asarray(q, dtype=float)
    grad = np.zeros((network.n_routes, network.n_routes))
    for j in range(network.n_routes):
        h = max(step_scale, step_scale * abs(q[j]))
        qp = q.copy()
        qp[j] += h
        if q[j] - h >= 0:
            qm = q.copy()
            qm[j] -= h
            grad[:, j] = (network.route_times(qp) - network.route_times(qm)) / (2 * h)
        else:
            grad[:, j] = (network.route_times(qp) - network.route_times(q)) / h
    return grad


def asymmetric_two_route(q_hdv=50.0, q_crv=50.0) -> Network:
    """Two independent routes, t1 = 5*(1+(x/50)^2), t2 = 15*(1+(x/80)^2)."""
    return single_od_network(
        [BPRDelay(5.0, 1.0, 50.0, 2.0), BPRDelay(15.0, 1.0, 80.0, 2.0)],
        q_hdv=q_hdv,
        q_crv=q_crv,
    )


def symmetric_quadratic(q_hdv=50.0, q_crv=50.0) -> Network:
    """Two identical routes with delay 1 + x^2."""
    return single_od_network(
        [QuadraticDelay(1.0, 1.0), QuadraticDelay(1.0, 1.0)], q_hdv=q_hdv, q_crv=q_crv
    )


def overlap_network(q_hdv=300.0, q_crv=100.0, slope_kind="bpr") -> Network:
    """Four routes over two upstream and two downstream links (every pairing),
    the smallest topology with linearly dependent routes."""
    if slope_kind == "bpr":
        delay = lambda: BPRDelay(1.0, 1.0, 100.0, 2.0)
    else:
        delay = lambda: AffineDelay(1.0, 1.0)
    links = [Link(x, delay()) for x in "abcd"]
    routes = [
        Route("r1", ("a", "c")),
        Route("r2", ("a", "d")),
        Route("r3", ("b", "c")),
        Route("r4", ("b", "d")),
    ]
    unit = ODUnit("O", "D", q_hdv=q_hdv, q_crv=q_crv, route_ids=("r1", "r2", "r3", "r4"))
    return Network(links, routes, units=[unit])


def cross_dependent_two_route(delta1: float, delta2: float, q_hdv=50.0, q_crv=20.0) -> Network:
    """Common entry/exit links c, d plus two middle links whose delays depend
    on each other's flows."""
    links = [
        Link("c", AffineDelay(1.0, 1.0)),
        Link("a", CrossAffineDelay(1.0, 1.0, {"b": delta1})),
        Link("b", CrossAffineDelay(1.0, 1.0, {"a": delta2})),
        Link("d", AffineDelay(1.0, 1.0)),
    ]
    routes = [Route("r1", ("c", "a", "d")), Route("r2", ("c", "b", "d"))]
    unit = ODUnit("O", "D", q_hdv=q_hdv, q_crv=q_crv, route_ids=("r1", "r2"))
    return Network(links, routes, units=[unit])


def two_od_overlap(q_hdv=30.0, q_crv=20.0) -> Network:
    """Overlap topology split into two OD units sharing the downstream links."""
    links = [Link(x, BPRDelay(1.0, 1.0, 50.0, 2.0)) for x in "abcd"]
    routes = [
        Route("r1", ("a", "c")),
        Route("r2", ("a", "d")),
        Route("r3", ("b", "c")),
        Route("r4", ("b", "d")),
    ]
    units = [
        ODUnit("O", "D1", q_hdv=q_hdv, q_crv=q_crv, route_ids=("r1", "r2")),
        ODUnit("O", "D2", q_hdv=q_hdv, q_crv=q_crv, route_ids=("r3", "r4")),
    ]
    return Network(links, routes, units=units)


def three_affine_routes(q_hdv=70.0, q_crv=30.0, slopes=(1.0, 1.0, 1.0)) -> Network:
    return single_od_network(
        [AffineDelay(1.0, s) for s in slopes], q_hdv=q_hdv, q_crv=q_crv
    )


def route_ladder(instance_seed=2024) -> list:
    """(h, network) pairs of one OD pair over R single-link BPR routes
    (power 4), q_hdv = 10R, q_crv = 5R, h ~ Dirichlet(1) * 10R: three draws
    for each R = 5, 20, 50, 100."""
    rng = np.random.default_rng(instance_seed)
    out = []
    for r in (5, 20, 50, 100):
        for _ in range(3):
            delays = [
                BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(20, 80)), 4.0)
                for _ in range(r)
            ]
            net = single_od_network(delays, q_hdv=10.0 * r, q_crv=5.0 * r)
            out.append((rng.dirichlet(np.ones(r)) * 10.0 * r, net))
    return out


def overlapping_routes(r: int):
    """(h, network): one OD pair over R routes that share links.  Route i
    has its own link p<i>, BPR(U(1, 8), 1, U(20, 80), 4), and 2 of R shared
    links s<j>, BPR(U(1, 4), 1, U(40, 160), 4), drawn without replacement;
    q_hdv = 10R, q_crv = 5R, h ~ Dirichlet(1) * 10R, all from
    default_rng(R).  Every route has a link of its own, so the routes are
    linearly independent."""
    rng = np.random.default_rng(r)
    private = [BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(20, 80)), 4.0) for _ in range(r)]
    shared = [BPRDelay(float(rng.uniform(1, 4)), 1.0, float(rng.uniform(40, 160)), 4.0) for _ in range(r)]
    links = [Link(f"p{i}", d) for i, d in enumerate(private)] + [Link(f"s{j}", d) for j, d in enumerate(shared)]
    routes = [
        Route(f"r{i}", (f"p{i}",) + tuple(f"s{j}" for j in sorted(rng.choice(r, 2, replace=False))))
        for i in range(r)
    ]
    unit = ODUnit("O", "D", q_hdv=10.0 * r, q_crv=5.0 * r, route_ids=tuple(route.id for route in routes))
    h = rng.dirichlet(np.ones(r)) * 10.0 * r
    return h, Network(links, routes, units=[unit])


def interleaved_units(layout: str = "interleaved") -> Network:
    """Four routes in two units, {r0, r2} (q_hdv 30, q_crv 20) and {r1, r3}
    (25, 15), over their own BPR links, r0 and r1 also over a shared link
    s.  "contiguous" lists the routes r0, r2, r1, r3, so each unit is a
    run of the route list; "interleaved" lists r0, r1, r2, r3 with units
    (r0, r2) and (r1, r3); "reversed" lists r0, r1, r2, r3 with units
    (r3, r1) and (r2, r0)."""
    delays = {
        "p0": BPRDelay(2.0, 1.0, 30.0, 4.0), "p1": BPRDelay(3.0, 1.0, 40.0, 2.0),
        "p2": BPRDelay(1.5, 1.0, 25.0, 4.0), "p3": BPRDelay(4.0, 1.0, 50.0, 2.0), "s": BPRDelay(1.0, 1.0, 60.0, 4.0),
    }
    paths = {"r0": ("p0", "s"), "r1": ("p1", "s"), "r2": ("p2",), "r3": ("p3",)}
    order, unit_routes = {
        "contiguous": (("r0", "r2", "r1", "r3"), (("r0", "r2"), ("r1", "r3"))),
        "interleaved": (("r0", "r1", "r2", "r3"), (("r0", "r2"), ("r1", "r3"))),
        "reversed": (("r0", "r1", "r2", "r3"), (("r3", "r1"), ("r2", "r0"))),
    }[layout]
    demand = {"r0": (30.0, 20.0), "r2": (30.0, 20.0), "r1": (25.0, 15.0), "r3": (25.0, 15.0)}
    units = [ODUnit("O", f"D{ids[0]}", *demand[ids[0]], route_ids=ids) for ids in unit_routes]
    return Network([Link(k, d) for k, d in delays.items()], [Route(r, paths[r]) for r in order], units=units)


# -- references ------------------------------------------------------------
#
# Quantities of the model that no library path needs in this form.  The
# tests compare the solvers and certificates against them.


def link_second_derivatives(network: Network, a) -> np.ndarray:
    """d^2 tau_a / d a_a^2 at the link flows a (one vector or a batch), as
    the objective's Hessian reads it: 0 on links without flow and on
    cross-affine links."""
    return network._link_second_derivatives_at(network._check_dim(a, "link"))


def restricted_min_eigenvalue(network: Network, q):
    """Smallest eigenvalue of sym(route gradient) on feasible directions
    (the unit-norm Rayleigh quotient), one per row of a batch.  Returns
    +inf when the feasible subspace is trivial."""
    basis = network.feasible_direction_basis()
    if basis.shape[1] == 0:
        return math.inf
    return _restricted_min_eigenvalue(basis, network.route_gradient(q))


def eval_objective_link_form(strategy: FleetStrategy, h, f, network: Network) -> float:
    """Link-form evaluation; agrees with the route form on link-additive
    networks because the weights aggregate along the incidence matrix."""
    h, f = _check_pair(h, f, network.n_routes)
    eta = network.route_to_link(h)
    phi = network.route_to_link(f)
    tau = network.link_travel_times(eta + phi)
    return float((strategy.lam_hdv * eta + strategy.lam_crv * phi) @ tau)


@dataclass(frozen=True)
class LocalConvexity:
    link_id: str
    convex: bool
    strict: bool
    sign: int
    threshold: float


def local_convexity_at(strategy: FleetStrategy, eta, phi, network: Network) -> tuple[LocalConvexity, ...]:
    """Per-link local convexity flags at HDV link flows eta and fleet link
    flows phi.

    A link is flagged convex when its exact second-derivative sign is
    positive, equivalently phi > threshold * eta; boundary points with zero
    curvature are flagged non-strict.  Requires lam_crv > 0 (the threshold
    form divides by it) and exponents above 1.
    """
    if strategy.lam_crv <= 0:
        raise UnsupportedDelayError("local convexity thresholds require lam_crv > 0")
    eta = np.asarray(eta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if eta.shape != (network.n_links,) or phi.shape != (network.n_links,):
        raise DimensionMismatchError(
            f"expected two link vectors of length {network.n_links}"
        )
    per_link = _curvature_data(strategy, network)
    out = []
    for i, row in enumerate(per_link):
        if row.gamma <= 1.0:
            raise UnsupportedDelayError(
                f"link {row.link_id!r}: local convexity test needs exponent > 1"
            )
        sign = link_curvature_sign(row, float(eta[i]), float(phi[i]))
        out.append(
            LocalConvexity(
                link_id=row.link_id,
                convex=sign > 0,
                strict=sign != 0,
                sign=sign,
                threshold=row.threshold,
            )
        )
    return tuple(out)


def expected_fleet_objective(strategy: FleetStrategy, mixture, h, network: Network) -> float:
    """Expectation of the fleet objective over the mixture support, at the
    induced HDV flows h."""
    _, q_crv = _demands(network)
    alphas, weights = _mixture_arrays([mixture])
    h = np.asarray(h, dtype=float)[None]
    return float(_expected_objectives(strategy, alphas, weights, h, network, q_crv)[0])


def expected_hdv_time(mixture, h, network: Network) -> float:
    """Expected total HDV travel time under the mixture; the malicious
    fleet maximizes this quantity."""
    return -expected_fleet_objective(MALICIOUS, mixture, h, network)


def affine_operator(strategy: FleetStrategy, q: np.ndarray, network: Network) -> tuple[np.ndarray, np.ndarray]:
    """(a0, B) of the inverse's VI operator A(f) = a0 + B f in route space
    at the observed total flow q."""
    return _route_operator(strategy, q, network.route_times(q), network.route_gradient(q))


def stationarity_map(strategy: FleetStrategy, q, f, network: Network) -> np.ndarray:
    """The VI operator at candidate f; contracting with a direction g gives
    the directional derivative of the fleet objective at f with HDV flows
    q - f held fixed."""
    q = np.asarray(q, dtype=float)
    f = np.asarray(f, dtype=float)
    if q.shape != f.shape or q.shape != (network.n_routes,):
        raise DimensionMismatchError("q and f must both be route vectors")
    if not np.all(np.isfinite(f)):
        raise InfeasibleProblemError("fleet flows must be finite")
    a0, b = affine_operator(strategy, q, network)
    return a0 + _times(b, f)


def _fields_to_dict(obj) -> dict:
    """The inverse of the scenario parser's _read_fields, mappings sorted by key."""
    doc = {}
    for name in _FIELDS[type(obj)]:
        value = getattr(obj, name)
        doc[name] = dict(sorted(value.items())) if isinstance(value, dict) else value
    return doc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical serialization; parsing it back yields an identical model."""
    net = scenario.network
    doc: dict = {
        "schema": SCHEMA_VERSION,
        "links": [
            {"id": link.id, "delay": {"kind": link.delay.kind, **_fields_to_dict(link.delay)}}
            for link in net.links
        ],
        "routes": [
            {"id": route.id, "links": list(route.link_ids)} for route in net.routes
        ],
        "units": [
            {
                "origin": unit.origin,
                "destination": unit.destination,
                "q_hdv": unit.q_hdv,
                "q_crv": unit.q_crv,
                "routes": list(unit.route_ids),
            }
            for unit in net.units
        ],
    }
    if scenario.strategy_name is not None:
        doc["strategy"] = scenario.strategy_name
    else:
        doc["strategy"] = {
            "lambda_hdv": scenario.strategy.lam_hdv,
            "lambda_crv": scenario.strategy.lam_crv,
        }
    if scenario.hdv_route_flows is not None:
        doc["hdv_route_flows"] = list(map(float, scenario.hdv_route_flows))
    if scenario.fleet_route_flows is not None:
        doc["fleet_route_flows"] = list(map(float, scenario.fleet_route_flows))
    if scenario.observed_route_flows is not None:
        doc["observed"] = {"route_flows": list(map(float, scenario.observed_route_flows))}
    if scenario.observed_link_flows is not None:
        doc["observed"] = {"link_flows": list(map(float, scenario.observed_link_flows))}
    if scenario.simulation_given:
        doc["simulation"] = _fields_to_dict(scenario.simulation)
    if scenario.tolerance_overrides:
        doc["tolerances"] = dict(scenario.tolerance_overrides)
    return doc


@pytest.fixture
def fig_two_route():
    return asymmetric_two_route()


@pytest.fixture
def net_overlap():
    return overlap_network()

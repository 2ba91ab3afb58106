"""Shared instance builders for the test suite."""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from fleet_inverse import (
    AffineDelay,
    BPRDelay,
    CrossAffineDelay,
    Link,
    Network,
    ODUnit,
    QuadraticDelay,
    Route,
    single_od_network,
)


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


@pytest.fixture
def fig_two_route():
    return asymmetric_two_route()


@pytest.fixture
def net_overlap():
    return overlap_network()

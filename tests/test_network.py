"""Network model: flow conversion, travel times, gradients, certificates."""

import ast
import math
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_inverse import (
    AffineDelay,
    BPRDelay,
    CrossAffineDelay,
    DelayDomainError,
    DimensionMismatchError,
    FleetModelError,
    Link,
    ModelInputError,
    Network,
    ODUnit,
    FleetStrategy,
    QuadraticDelay,
    Route,
    UnsupportedDelayError,
    WebsterDelay,
    fleet_assign,
    single_od_network,
)
import fleet_inverse
from fleet_inverse.network import Delay
from fleet_inverse.scenario import fixture_path, parse_scenario
from conftest import (
    cross_dependent_two_route,
    fd_route_gradient,
    overlap_network,
    symmetric_quadratic,
    three_affine_routes,
    two_od_overlap,
)


def common_links_two_route():
    links = [
        Link("c", AffineDelay(1.0, 0.5)),
        Link("a", AffineDelay(2.0, 1.0)),
        Link("b", AffineDelay(3.0, 1.0)),
        Link("d", AffineDelay(1.0, 0.5)),
    ]
    routes = [Route("r1", ("c", "a", "d")), Route("r2", ("c", "b", "d"))]
    unit = ODUnit("O", "D", q_hdv=8.0, q_crv=2.0, route_ids=("r1", "r2"))
    return Network(links, routes, units=[unit])


LINKS = (Link("l1", AffineDelay(1.0, 1.0)), Link("l2", AffineDelay(2.0, 1.0)))
ROUTES = (Route("r1", ("l1",)), Route("r2", ("l2",)))


def unit(*route_ids, q_hdv=10.0, q_crv=5.0):
    return ODUnit("O", "D", q_hdv=q_hdv, q_crv=q_crv, route_ids=route_ids)


def cross_link(link_id, other_id):
    return Link(link_id, CrossAffineDelay(1.0, 0.5, {other_id: 0.1}))


# every fact a model constructor checks, once each: the constructor call,
# and the code and position of the ModelInputError it raises
MODEL_FACTS = [
    (lambda: BPRDelay(math.nan, 1.0, 50.0, 2.0), "bad-value", ("t0",)),
    (lambda: BPRDelay(1.0, 1.0, 50.0, -2.0), "bad-value", ("power",)),
    (lambda: AffineDelay(1.0, 0.0), "bad-value", ("slope",)),
    (lambda: QuadraticDelay(1.0, -1.0), "bad-value", ("coefficient",)),
    (lambda: WebsterDelay(1.0, 100.0, 60.0), "bad-value", ("green_ratio",)),
    (lambda: WebsterDelay(0.5, 100.0, 0.0), "bad-value", ("cycle",)),
    (lambda: CrossAffineDelay(1.0, math.inf), "bad-value", ("own_slope",)),
    (lambda: CrossAffineDelay(1.0, 0.5, {"l2": math.nan}), "bad-value", ("cross", "l2")),
    (lambda: Route("r1", ()), "malformed", ("links",)),
    (lambda: unit(), "malformed", ("routes",)),
    (lambda: unit("r1", q_hdv=-1.0), "negative-flow", ("q_hdv",)),
    (lambda: unit("r1", q_crv=math.inf), "bad-value", ("q_crv",)),
    (lambda: Network([], ROUTES), "malformed", ("links",)),
    (lambda: Network(LINKS + LINKS[:1], ROUTES), "bad-value", ("links", 2, "id")),
    (lambda: Network((LINKS[0], cross_link("l2", "z")), ROUTES), "dangling-id", ("links", 1, "delay", "cross", "z")),
    (lambda: Network((LINKS[0], cross_link("l2", "l2")), ROUTES), "bad-value", ("links", 1, "delay", "cross", "l2")),
    (lambda: Network(LINKS, []), "malformed", ("routes",)),
    (lambda: Network(LINKS, ROUTES[::-1] + ROUTES[1:]), "bad-value", ("routes", 2, "id")),
    (lambda: Network(LINKS, (ROUTES[0], Route("r2", ("l2", "z")))), "dangling-id", ("routes", 1, "links", 1)),
    (lambda: Network(LINKS, ROUTES, units=[]), "malformed", ("units",)),
    (lambda: Network(LINKS, ROUTES, units=[unit("r1"), unit("r3")]), "dangling-id", ("units", 1, "routes", 0)),
    (lambda: Network(LINKS, ROUTES, units=[unit("r1", "r2"), unit("r1")]), "bad-value", ("units", 1, "routes", 0)),
    (lambda: Network(LINKS, ROUTES, units=[unit("r1", "r2", "r1")]), "bad-value", ("units", 0, "routes", 2)),
    (lambda: Network(LINKS, ROUTES, units=[unit("r2")]), "bad-value", ()),
]


@pytest.mark.parametrize("build, code, position", MODEL_FACTS,
                         ids=[f"{i} {code} at {position}" for i, (_, code, position) in enumerate(MODEL_FACTS)])
def test_each_model_fact_raises_one_typed_error(build, code, position):
    with pytest.raises(ModelInputError) as err:
        build()
    assert (err.value.code, err.value.position) == (code, position)
    assert isinstance(err.value, ValueError)


def test_model_facts_are_checked_links_routes_units_then_the_partition():
    # each network has two defects, and the earlier in that order is reported
    bad_cross = (LINKS[0], cross_link("l2", "z"))
    dangling_route = (ROUTES[0], Route("r2", ("z",)))
    cases = [
        (Network, (bad_cross, dangling_route), ("links", 1, "delay", "cross", "z")),
        (Network, (LINKS, dangling_route, [unit("r3")]), ("routes", 1, "links", 0)),
        (Network, (LINKS, ROUTES, [unit("r1", "r1"), unit("r3")]), ("units", 1, "routes", 0)),
    ]
    for cls, args, position in cases:
        with pytest.raises(ModelInputError) as err:
            cls(*args)
        assert err.value.position == position


def test_a_link_without_a_delay_kind_is_unsupported():
    with pytest.raises(UnsupportedDelayError, match="link 'l1' has unsupported delay type float"):
        Network([Link("l1", 1.0)], [Route("r1", ("l1",))])


def test_demand_data_needs_units():
    net = Network(LINKS, ROUTES)
    for operation in (net.unit_blocks, net.fleet_sizes):
        with pytest.raises(FleetModelError, match="this operation needs OD units"):
            operation()


def test_a_cross_affine_delay_hashes_by_value():
    # its slope mapping is a dict, so the dataclass hash would fail
    a = CrossAffineDelay(1.0, 0.5, {"l1": 0.1, "l2": 0.2})
    b = CrossAffineDelay(1.0, 0.5, {"l2": 0.2, "l1": 0.1})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, CrossAffineDelay(1.0, 0.5, {"l1": 0.1})}) == 2


class TestRouteToLink:
    def test_overlap_uniform(self, net_overlap):
        a = net_overlap.route_to_link([100.0, 100.0, 100.0, 100.0])
        np.testing.assert_allclose(a, [200.0, 200.0, 200.0, 200.0])

    def test_zero(self, net_overlap):
        np.testing.assert_array_equal(net_overlap.route_to_link(np.zeros(4)), np.zeros(4))

    def test_common_links(self):
        # routes c-a-d and c-b-d: per-link sums by hand, checked against the
        # incidence-matrix product
        net = common_links_two_route()
        q = np.array([3.0, 7.0])
        a = net.route_to_link(q)
        by_id = dict(zip([l.id for l in net.links], a))
        assert by_id == {"a": 3.0, "b": 7.0, "c": 10.0, "d": 10.0}
        np.testing.assert_allclose(a, net.incidence.T @ q)

    def test_dimension_mismatch(self, net_overlap):
        with pytest.raises(DimensionMismatchError):
            net_overlap.route_to_link([1.0, 2.0])


class TestRouteTimes:
    def test_two_route_values(self, fig_two_route):
        np.testing.assert_allclose(fig_two_route.route_times([50.0, 80.0]), [10.0, 30.0])

    def test_single_affine(self):
        net = single_od_network([AffineDelay(1.0, 1.0)], q_hdv=0.0, q_crv=5.0)
        np.testing.assert_allclose(net.route_times([5.0]), [6.0])

    def test_webster_value(self):
        # frozen from an independent evaluation of the signalized delay at
        # green ratio 0.5, saturation flow 1, cycle 60, saturation 0.5
        delay = WebsterDelay(green_ratio=0.5, saturation_flow=1.0, cycle=60.0)
        assert delay.value(0.5) == pytest.approx(9.9, abs=1e-12)

    def test_webster_domain(self):
        delay = WebsterDelay(green_ratio=0.5, saturation_flow=1.0, cycle=60.0)
        with pytest.raises(DelayDomainError):
            delay.value(1.0)
        net = single_od_network([delay], q_hdv=0.0, q_crv=2.0)
        with pytest.raises(DelayDomainError):
            net.route_times([1.5])

    def test_negative_flow(self, fig_two_route):
        with pytest.raises(DelayDomainError):
            fig_two_route.route_times([-1.0, 5.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_flow(self, fig_two_route, bad):
        # these used to come back as [nan, nan]
        with pytest.raises(DelayDomainError, match="finite"):
            fig_two_route.route_times([bad, 1.0])
        with pytest.raises(DelayDomainError, match="finite"):
            fig_two_route.link_travel_times([1.0, bad])


class TestBPRZeroFlow:
    def test_unbounded_derivatives_raise(self):
        with pytest.raises(DelayDomainError):
            BPRDelay(1.0, 1.0, 10.0, 0.5).derivative(0.0)
        with pytest.raises(DelayDomainError):
            BPRDelay(1.0, 1.0, 10.0, 1.5).second_derivative(0.0)
        assert BPRDelay(1.0, 1.0, 10.0, 1.5).derivative(0.0) == 0.0
        assert BPRDelay(1.0, 1.0, 10.0, 2.0).second_derivative(0.0) == pytest.approx(0.02)
        assert BPRDelay(1.0, 1.0, 10.0, 1.0).second_derivative(0.0) == 0.0

    def test_forward_with_empty_fractional_power_route(self):
        net = single_od_network(
            [BPRDelay(1.0, 1.0, 10.0, 0.5), BPRDelay(2.0, 1.0, 10.0, 0.5)], q_hdv=10.0, q_crv=5.0
        )
        with pytest.raises(DelayDomainError, match="zero flow"):
            fleet_assign(FleetStrategy.preset("selfish"), [10.0, 0.0], net)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def long_routes_network(n_links=24, n_routes=4, per_route=14) -> Network:
    """Routes of 14 links over 24 shared BPR and affine links: long enough
    sums that a matrix-matrix product orders them differently from the
    matrix-vector product."""
    rng = np.random.default_rng(0)
    links = [
        Link(f"l{i}", BPRDelay(float(rng.uniform(1, 5)), 0.15, float(rng.uniform(20, 60)), 4.0))
        if i % 2
        else Link(f"l{i}", AffineDelay(float(rng.uniform(1, 3)), float(rng.uniform(0.1, 1))))
        for i in range(n_links)
    ]
    routes = [
        Route(f"r{r}", tuple(f"l{i}" for i in sorted(rng.choice(n_links, per_route, replace=False))))
        for r in range(n_routes)
    ]
    unit = ODUnit("O", "D", q_hdv=30.0, q_crv=10.0, route_ids=tuple(r.id for r in routes))
    return Network(links, routes, units=[unit])


def kind_networks() -> dict[str, Network]:
    """Every delay kind, each with the largest route flow that keeps its
    links in their domains."""
    return {
        "long_routes": long_routes_network(),
        "bpr": single_od_network(
            [BPRDelay(5.0, 1.0, 50.0, p) for p in (1.0, 1.5, 2.0, 4.0)] + [BPRDelay(2.0, 0.15, 30.0, 0.5)],
            q_hdv=50.0,
            q_crv=20.0,
        ),
        "affine": three_affine_routes(slopes=(0.5, 1.0, 2.0)),
        "quadratic": symmetric_quadratic(),
        "webster": single_od_network(
            [WebsterDelay(0.5, 1.0, 60.0), WebsterDelay(0.3, 2.0, 90.0), AffineDelay(2.0, 0.1)],
            q_hdv=0.4,
            q_crv=0.3,
        ),
        "cross_affine": cross_dependent_two_route(2.0, -0.5),
        "common_links": parse_scenario(fixture_path("two_route_common_links")).network,
        "signalized_fixture": parse_scenario(fixture_path("signalized_link")).network,
    }


KIND_FLOW_CAP = {"webster": 0.45, "signalized_fixture": 0.45}


class TestBatchedKernels:
    """Each row of a batched kernel call is bit-identical to the unbatched
    call, and the scalar Delay methods share the table's formulas."""

    @pytest.mark.parametrize("name", sorted(kind_networks()))
    def test_rows_match_unbatched(self, name):
        net = kind_networks()[name]
        rng = np.random.default_rng(5)
        q = rng.uniform(0.0, KIND_FLOW_CAP.get(name, 60.0), size=(64, net.n_routes))
        q[0] = 0.0  # zero flow on every route
        q[1, 0] = 0.0
        times = net.route_times(q)
        links = net.route_to_link(q)
        tau = net.link_travel_times(links)
        second = net.link_second_derivatives(links)
        assert times.shape == q.shape and tau.shape == links.shape
        for i in range(len(q)):
            assert _bits(times[i]) == _bits(net.route_times(q[i]))
            assert _bits(links[i]) == _bits(net.route_to_link(q[i]))
            assert _bits(tau[i]) == _bits(net.link_travel_times(links[i]))
            assert _bits(second[i]) == _bits(net.link_second_derivatives(links[i]))
        flowing = q[2:]  # BPR powers below 1 have no derivative at zero flow
        jac = net.link_time_jacobian(net.route_to_link(flowing))
        grad = net.route_gradient(flowing)
        rho = net.restricted_min_eigenvalue(flowing)
        for i in range(len(flowing)):
            assert _bits(jac[i]) == _bits(net.link_time_jacobian(net.route_to_link(flowing[i])))
            assert _bits(grad[i]) == _bits(net.route_gradient(flowing[i]))
            assert _bits(rho[i]) == _bits(net.restricted_min_eigenvalue(flowing[i]))

    @pytest.mark.parametrize("name", sorted(kind_networks()))
    def test_scalar_methods_share_the_table(self, name):
        net = kind_networks()[name]
        rng = np.random.default_rng(6)
        a = net.route_to_link(rng.uniform(0.01, KIND_FLOW_CAP.get(name, 60.0), size=net.n_routes))
        tau = net.link_travel_times(a)
        jac = net.link_time_jacobian(a)
        second = net.link_second_derivatives(a)
        for i, link in enumerate(net.links):
            if isinstance(link.delay, CrossAffineDelay):
                continue
            x = float(a[i])
            assert _bits(tau[i]) == _bits(link.delay.value(x))
            assert _bits(jac[i, i]) == _bits(link.delay.derivative(x))
            assert _bits(second[i]) == _bits(link.delay.second_derivative(x))

    def test_webster_saturation_raises_in_a_batch(self):
        net = kind_networks()["webster"]
        q = np.full((4, net.n_routes), 0.2)
        net.route_times(q)
        q[2, 1] = 1.0
        with pytest.raises(DelayDomainError, match=r"saturation in \[0, 1\), got 1.0"):
            net.route_times(q)
        with pytest.raises(DelayDomainError, match="saturation"):
            net.link_time_jacobian(net.route_to_link(q))
        with pytest.raises(DelayDomainError, match="saturation"):
            net.link_second_derivatives(net.route_to_link(q))

    def test_bpr_fractional_power_derivative_raises_in_a_batch(self):
        net = single_od_network(
            [BPRDelay(1.0, 1.0, 10.0, 2.0), BPRDelay(1.0, 1.0, 10.0, 0.5)], q_hdv=10.0, q_crv=5.0
        )
        a = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]])
        net.link_time_jacobian(a)  # zero flow is fine on the power-2 link
        a[1, 1] = 0.0
        with pytest.raises(DelayDomainError, match="BPR power 0.5 < 1 has no derivative at zero flow"):
            net.link_time_jacobian(a)
        with pytest.raises(DelayDomainError, match="< 2 has no second derivative"):
            net.delay_table.second_derivatives(a)
        # the objective's curvature drops zero-flow links instead
        assert net.link_second_derivatives(a)[1, 1] == 0.0

    def test_batch_shapes_checked(self):
        net = symmetric_quadratic()
        with pytest.raises(DimensionMismatchError):
            net.route_times(np.ones((3, 3)))
        with pytest.raises(DimensionMismatchError):
            net.route_times(np.ones((2, 3, 2)))
        with pytest.raises(DelayDomainError, match="finite"):
            net.route_times(np.array([[1.0, 2.0], [np.nan, 1.0]]))
        assert net.route_times(np.ones((0, 2))).shape == (0, 2)


class TestRouteGradient:
    def test_two_route_diagonal(self, fig_two_route):
        grad = fig_two_route.route_gradient([50.0, 80.0])
        np.testing.assert_allclose(grad, np.diag([0.2, 0.375]), atol=1e-12)
        fd = fd_route_gradient(fig_two_route, [50.0, 80.0])
        np.testing.assert_allclose(fd, grad, rtol=1e-5, atol=1e-8)

    def test_overlap_structure(self):
        # unit slopes: row 1 + row 4 equals row 2 + row 3
        net = overlap_network(slope_kind="affine")
        grad = net.route_gradient([10.0, 10.0, 10.0, 10.0])
        expected = np.array(
            [
                [2.0, 1.0, 1.0, 0.0],
                [1.0, 2.0, 0.0, 1.0],
                [1.0, 0.0, 2.0, 1.0],
                [0.0, 1.0, 1.0, 2.0],
            ]
        )
        np.testing.assert_allclose(grad, expected)
        np.testing.assert_allclose(grad[0] + grad[3], grad[1] + grad[2])

    def test_cross_dependent_structure(self):
        delta1, delta2 = 2.0, 1.0
        net = cross_dependent_two_route(delta1, delta2)
        grad = net.route_gradient([30.0, 40.0])
        expected = np.array([[1.0, delta1], [delta2, 1.0]]) + 2.0 * np.ones((2, 2))
        np.testing.assert_allclose(grad, expected)

    @given(
        n_links=st.integers(1, 7),
        n_routes=st.integers(1, 6),
        cross=st.booleans(),
        batch=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_slopes_formula_matches_the_dense_triple_product(self, n_links, n_routes, cross, batch, seed):
        # N diag(tau') N^T (+ the constant N E N^T) against N J N^T with J
        # the link-time jacobian.  Routes draw random link sets, so links
        # are shared or unused, and flows are often 0, so links carry none.
        # On link-additive delays J's off-diagonal products are exact zeros
        # and the two sum the same terms in the same order: every byte
        # agrees, zero signs included.  Cross-affine rows reassociate the
        # sum N (D + E) N^T as N D N^T + N E N^T: the same products in
        # another order, so each entry is within 2 gamma_{2L} of
        # (N |J| N^T) (Higham 2002, section 3.5), taken as 4 L eps.
        rng = np.random.default_rng(seed)
        ids = [f"l{i}" for i in range(n_links)]
        kinds = [
            lambda: BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(0.5, 2.0)), float(rng.choice([1.0, 2.0, 4.0]))),
            lambda: AffineDelay(float(rng.uniform(0, 2)), float(rng.uniform(0.1, 2.0))),
            lambda: QuadraticDelay(float(rng.uniform(0, 2)), float(rng.uniform(0.1, 2.0))),
        ]
        delays = [kinds[int(rng.integers(3))]() for _ in ids]
        if cross:
            for i in rng.choice(n_links, size=int(rng.integers(1, n_links + 1)), replace=False):
                others = {j: float(rng.uniform(-2.0, 2.0)) for j in ids if j != ids[i] and rng.random() < 0.5}
                delays[i] = CrossAffineDelay(float(rng.uniform(0, 2)), float(rng.uniform(-1.0, 2.0)), others)
        routes = [
            Route(f"r{r}", tuple(ids[j] for j in sorted(rng.choice(n_links, size=int(rng.integers(1, n_links + 1)), replace=False))))
            for r in range(n_routes)
        ]
        net = Network([Link(i, d) for i, d in zip(ids, delays)], routes)
        q = rng.uniform(0.0, 1.0, (3, n_routes) if batch else n_routes) * (rng.random(n_routes) < 0.6)
        n = net.incidence
        jac = net.link_time_jacobian(net.route_to_link(q))
        dense = n @ jac @ n.T
        grad = net.route_gradient(q)
        assert grad.shape == dense.shape
        if net.link_additive:
            assert grad.tobytes() == dense.tobytes()
        else:
            tolerance = 4.0 * n_links * np.finfo(float).eps * (n @ np.abs(jac) @ n.T)
            assert np.all(np.abs(grad - dense) <= tolerance)
        for row in (q if batch else [q]):
            form = net._route_gradient_form_at(net.route_to_link(row))
            if form.ndim == 2:
                assert form.tobytes() == net.route_gradient(row).tobytes()
            else:
                # the diagonal form only where no shared link has slope: the
                # matrix is then diag(N tau')
                matrix = net.route_gradient(row)
                assert net.link_additive and np.count_nonzero(matrix - np.diag(np.diagonal(matrix))) == 0
                np.testing.assert_allclose(form, np.diagonal(matrix), rtol=1e-15, atol=0.0)

    def test_gradient_form_evaluates_the_slopes_once(self, monkeypatch):
        # two_od's routes share links with slope at its observation: the
        # form is the matrix, from one evaluation of the link slopes (two
        # when the test for shared slopes and the matrix each took them)
        sc = parse_scenario(fixture_path("two_od"))
        net = sc.network
        calls = []
        method = type(net.delay_table).derivatives
        monkeypatch.setattr(type(net.delay_table), "derivatives", lambda self, a: calls.append(a) or method(self, a))
        form = net._route_gradient_form_at(net.route_to_link(sc.observed_route_flows))
        assert form.shape == (net.n_routes, net.n_routes) and len(calls) == 1

    def test_webster_derivative_analytic(self):
        delay = WebsterDelay(green_ratio=0.5, saturation_flow=1.0, cycle=60.0)
        eps = 1e-7
        for x in (0.1, 0.5, 0.9):
            fd = (delay.value(x + eps) - delay.value(x - eps)) / (2 * eps)
            assert delay.derivative(x) == pytest.approx(fd, rel=1e-5)
            fd2 = (delay.derivative(x + eps) - delay.derivative(x - eps)) / (2 * eps)
            assert delay.second_derivative(x) == pytest.approx(fd2, rel=1e-4)
            assert delay.derivative(x) > 0


class TestLinearIndependence:
    def test_overlap_dependent(self, net_overlap):
        dep = net_overlap.routes_linearly_independent()
        assert not dep.independent
        assert dep.null_basis.shape == (4, 1)
        v = dep.null_basis[:, 0]
        np.testing.assert_allclose(np.abs(v), [0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert v[0] * v[3] > 0 and v[0] * v[1] < 0 and v[0] * v[2] < 0
        # null vectors produce exactly zero link flow
        np.testing.assert_allclose(net_overlap.route_to_link(v), 0.0, atol=1e-14)

    def test_two_route_independent(self):
        assert common_links_two_route().routes_linearly_independent().independent

    def test_single_route(self):
        net = single_od_network([AffineDelay(1.0, 1.0)], q_hdv=1.0, q_crv=1.0)
        result = net.routes_linearly_independent()
        assert result.independent and result.null_basis.shape[1] == 0


class TestFeasibleDirectionPD:
    def test_cross_dependent_fails(self):
        net = cross_dependent_two_route(2.0, 1.0)
        cert = net.feasible_direction_pd(np.array([30.0, 40.0]))
        assert not cert.passes
        assert cert.min_rayleigh == pytest.approx(-1.0, abs=1e-9)

    def test_cross_dependent_passes(self):
        net = cross_dependent_two_route(0.5, 0.5)
        cert = net.feasible_direction_pd(np.array([30.0, 40.0]))
        assert cert.passes
        assert cert.min_rayleigh == pytest.approx(1.0, abs=1e-9)

    def test_two_od_boundary(self):
        net = two_od_overlap()
        cert = net.feasible_direction_pd(np.array([25.0, 25.0, 25.0, 25.0]))
        assert not cert.passes
        assert cert.min_rayleigh == pytest.approx(0.0, abs=1e-9)

    def test_single_route_vacuous(self):
        net = single_od_network([AffineDelay(1.0, 1.0)], q_hdv=1.0, q_crv=1.0)
        cert = net.feasible_direction_pd(np.array([2.0]))
        assert cert.passes and math.isinf(cert.min_rayleigh)


def random_bpr_network(rng, n_routes=None):
    n = int(rng.integers(2, 6)) if n_routes is None else n_routes
    delays = [
        BPRDelay(
            t0=float(rng.uniform(1.0, 10.0)),
            d=float(rng.uniform(0.5, 2.0)),
            capacity=float(rng.uniform(20.0, 100.0)),
            power=float(rng.choice([2.0, 4.0])),
        )
        for _ in range(n)
    ]
    return single_od_network(delays, q_hdv=50.0, q_crv=20.0)


class TestInvariants:
    @given(
        q1=st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
        q2=st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
        a=st.floats(0.0, 5.0),
        b=st.floats(0.0, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_conversion_linear(self, q1, q2, a, b):
        net = overlap_network()
        q1, q2 = np.asarray(q1), np.asarray(q2)
        lhs = net.route_to_link(a * q1 + b * q2)
        rhs = a * net.route_to_link(q1) + b * net.route_to_link(q2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_bpr_network(rng)
            caps = np.array([l.delay.capacity for l in net.links])
            q = rng.uniform(1.0, caps)
            analytic = net.route_gradient(q)
            fd = fd_route_gradient(net, q)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_gradient_psd_and_pd_iff_independent(self):
        rng = np.random.default_rng(11)
        nets = [overlap_network(), common_links_two_route()] + [
            random_bpr_network(rng) for _ in range(10)
        ]
        for net in nets:
            q = rng.uniform(1.0, 20.0, size=net.n_routes)
            grad = net.route_gradient(q)
            sym = 0.5 * (grad + grad.T)
            eigs = np.linalg.eigvalsh(sym)
            threshold = 1e-9 * abs(np.trace(sym)) / net.n_routes
            assert eigs[0] > -threshold
            independent = net.routes_linearly_independent().independent
            assert (eigs[0] > threshold) == independent


class TestDelayDeclarations:
    """network.py is the one module that knows what a delay kind is."""

    @pytest.mark.parametrize(
        "delay,kind,gamma,convex,affine",
        [
            (BPRDelay(1.0, 1.0, 50.0, 0.5), "bpr", 0.5, False, False),
            (BPRDelay(1.0, 1.0, 50.0, 1.0), "bpr", 1.0, True, False),
            (BPRDelay(1.0, 1.0, 50.0, 2.0), "bpr", 2.0, True, False),
            (AffineDelay(1.0, 0.5), "affine", 1.0, True, True),
            (QuadraticDelay(1.0, 0.01), "quadratic", 2.0, True, False),
            (WebsterDelay(0.5, 100.0, 60.0), "webster", None, True, False),
            (CrossAffineDelay(1.0, 0.5), "cross_affine", None, False, True),
        ],
    )
    def test_declared_structure(self, delay, kind, gamma, convex, affine):
        assert (delay.kind, delay.gamma, delay.convex_nondecreasing, delay.affine_in_flows) == (
            kind, gamma, convex, affine
        )

    def test_kind_names_are_distinct(self):
        kinds = [cls.kind for cls in typing.get_args(Delay)]
        assert sorted(kinds) == ["affine", "bpr", "cross_affine", "quadratic", "webster"]

    def test_no_delay_type_tests_outside_network(self):
        delay_names = {cls.__name__ for cls in typing.get_args(Delay)} | {"Delay", "_KernelDelay"}

        def named(node) -> set[str]:
            return {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            } & delay_names

        src = Path(fleet_inverse.__file__).parent
        type_tests = []
        for path in sorted(src.rglob("*.py")):
            if path.name == "network.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "issubclass")
                    and len(node.args) == 2
                ):
                    if named(node.args[1]):
                        type_tests.append(f"{path.name}:{node.lineno}")
        assert type_tests == []

        objective = ast.parse((src / "objective.py").read_text())
        imported = {
            alias.name
            for node in ast.walk(objective)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not imported & delay_names
        assert not named(objective)

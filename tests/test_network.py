"""Network model: flow conversion, travel times, gradients, certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_inverse import (
    AffineDelay,
    BPRDelay,
    DelayDomainError,
    DimensionMismatchError,
    Link,
    Network,
    ODUnit,
    FleetStrategy,
    Route,
    WebsterDelay,
    fleet_assign,
    single_od_network,
)
from conftest import (
    cross_dependent_two_route,
    overlap_network,
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


class TestRouteGradient:
    def test_two_route_diagonal(self, fig_two_route):
        grad = fig_two_route.route_gradient([50.0, 80.0])
        np.testing.assert_allclose(grad, np.diag([0.2, 0.375]), atol=1e-12)
        fd = fig_two_route.route_gradient([50.0, 80.0], method="fd")
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
        assert result.independent and result.fiber_dimension == 0


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
            fd = net.route_gradient(q, method="fd")
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

"""Inverse assignment: VI solver, certificates, fibers, stability, discrete."""

import contextlib
import inspect
import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from fleet_inverse import (
    DEFAULT_CONFIG,
    AffineDelay,
    SimulationConfig,
    DimensionMismatchError,
    BPRDelay,
    FeasibleSet,
    FleetModelError,
    FleetStrategy,
    InfeasibleProblemError,
    Link,
    Network,
    NotRealisableError,
    ODUnit,
    PDCertificate,
    QuadraticDelay,
    Route,
    certify_local_min,
    discrete_recover,
    eval_objective,
    fleet_assign,
    inverse_link_flows,
    lipschitz_bound,
    route_fiber,
    single_od_network,
    solve_inverse,
    stationarity_map,
)
from conftest import (
    asymmetric_two_route,
    overlap_network,
    route_ladder,
    symmetric_quadratic,
    three_affine_routes,
    two_od_overlap,
)
from fleet_inverse import inverse
from fleet_inverse.network import DelayTable, _pd_certificate
from fleet_inverse.scenario import fixture_path, list_fixtures, parse_scenario

SELFISH = FleetStrategy.preset("selfish")
ALTRUISTIC = FleetStrategy.preset("altruistic")
MALICIOUS = FleetStrategy.preset("malicious")
SOCIAL = FleetStrategy.preset("social")
DISRUPTIVE = FleetStrategy.preset("disruptive")


@contextlib.contextmanager
def counting_forward_solves():
    """The arguments of each forward solve made through a dispatch that
    inverse builds (forward._assigner), one entry per solve."""
    calls = []
    build = inverse._assigner

    def assigner(*args):
        solve = build(*args)
        return lambda *solve_args: calls.append(solve_args) or solve(*solve_args)

    with mock.patch.object(inverse, "_assigner", assigner):
        yield calls


class TestStationarityMap:
    def test_degenerate_margin_constant(self, fig_two_route):
        q = np.array([60.0, 40.0])
        maps = [
            stationarity_map(SOCIAL, q, f, fig_two_route)
            for f in (np.array([0.0, 40.0]), np.array([30.0, 10.0]), np.array([50.0, 0.0]))
        ]
        for m in maps[1:]:
            np.testing.assert_allclose(m, maps[0])

    def test_symmetric_solution(self):
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        q = np.array([50.0, 50.0])
        f_star = np.array([9.5, 9.5])
        a = stationarity_map(SELFISH, q, f_star, net)
        # equal components: every feasible direction has zero derivative
        assert a[0] == pytest.approx(a[1], rel=1e-12)

    def test_contract_with_directional_derivative(self, fig_two_route):
        rng = np.random.default_rng(8)
        q = np.array([60.0, 40.0])
        for strategy in (SELFISH, MALICIOUS, DISRUPTIVE, FleetStrategy(0.3, 0.9)):
            f = rng.uniform(5.0, 15.0, 2)
            g = np.array([1.0, -1.0])
            a = stationarity_map(strategy, q, f, fig_two_route)
            eps = 1e-6
            h = q - f
            plus = eval_objective(strategy, h, f + eps * g, fig_two_route)
            minus = eval_objective(strategy, h, f - eps * g, fig_two_route)
            fd = (plus - minus) / (2 * eps)
            assert float(a @ g) == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestSolveInverse:
    def test_symmetric_two_route(self):
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        result = solve_inverse(SELFISH, np.array([50.0, 50.0]), net)
        np.testing.assert_allclose(result.f_hat, [9.5, 9.5], atol=1e-6)
        np.testing.assert_allclose(result.h_hat, [40.5, 40.5], atol=1e-6)
        assert result.certificate.theorem_applies
        assert result.residual <= 1e-8 * (1.0 + np.linalg.norm(net.route_times(np.array([50.0, 50.0]))))

    def test_no_fleet(self, fig_two_route):
        net = asymmetric_two_route(q_crv=0.0)
        result = solve_inverse(SELFISH, np.array([30.0, 20.0]), net)
        np.testing.assert_array_equal(result.f_hat, np.zeros(2))
        np.testing.assert_array_equal(result.h_hat, [30.0, 20.0])
        assert result.residual == 0.0

    def test_round_trip(self, fig_two_route):
        h = np.array([10.0, 40.0])
        forward = fleet_assign(SELFISH, h, fig_two_route)
        q = h + forward.f
        result = solve_inverse(SELFISH, q, fig_two_route)
        assert float(np.max(np.abs(result.f_hat - forward.f))) <= 1e-4

    def test_infeasible_sizes(self):
        net = symmetric_quadratic(q_hdv=1.0, q_crv=19.0)
        with pytest.raises(InfeasibleProblemError):
            solve_inverse(SELFISH, np.array([4.0, 5.0]), net)

    def test_malicious_corner_recovered_exactly(self):
        net = symmetric_quadratic(q_hdv=50.0, q_crv=30.0)
        h = np.array([20.0, 30.0])
        forward = fleet_assign(MALICIOUS, h, net)
        np.testing.assert_allclose(forward.f, [0.0, 30.0])
        result = solve_inverse(MALICIOUS, h + forward.f, net)
        np.testing.assert_allclose(result.f_hat, forward.f, atol=1e-12)


class TestNonuniqueness:
    def test_altruistic_witnesses(self):
        net = three_affine_routes(q_hdv=70.0, q_crv=30.0)
        q = np.array([30.0, 30.0, 40.0])
        pair_a = (np.array([30.0, 0.0, 40.0]), np.array([0.0, 30.0, 0.0]))
        pair_b = (np.array([0.0, 30.0, 40.0]), np.array([30.0, 0.0, 0.0]))
        for h, f in (pair_a, pair_b):
            np.testing.assert_allclose(h + f, q)
            cert = certify_local_min(ALTRUISTIC, h, f, net)
            assert cert.is_local_min
        result = solve_inverse(ALTRUISTIC, q, net)
        assert not result.certificate.theorem_applies
        assert len(result.solutions) >= 2

    def test_social_witnesses(self):
        net = three_affine_routes(q_hdv=70.0, q_crv=30.0)
        q = np.array([30.0, 30.0, 40.0])
        result = solve_inverse(SOCIAL, q, net)
        assert not result.certificate.theorem_applies
        assert result.certificate.margin == 0.0
        assert len(result.solutions) >= 2

    def test_margin_required(self):
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        result = solve_inverse(ALTRUISTIC, np.array([50.0, 50.0]), net)
        assert not result.certificate.theorem_applies
        assert "margin" in result.certificate.reason


class TestVIMonotonicity:
    def test_identity(self, fig_two_route):
        rng = np.random.default_rng(17)
        q = np.array([60.0, 40.0])
        grad = fig_two_route.route_gradient(q)
        for strategy in (SELFISH, MALICIOUS, DISRUPTIVE):
            margin = strategy.margin
            for _ in range(20):
                f1 = rng.uniform(0.0, 20.0, 2)
                f2 = rng.uniform(0.0, 20.0, 2)
                a1 = stationarity_map(strategy, q, f1, fig_two_route)
                a2 = stationarity_map(strategy, q, f2, fig_two_route)
                lhs = float((a1 - a2) @ (f1 - f2))
                rhs = margin * float((f1 - f2) @ grad @ (f1 - f2))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
                if margin > 0 and abs(f1[0] - f2[0] - (f1[1] - f2[1])) > 1e-9:
                    d = f1 - f2
                    d -= d.mean()
                    if np.linalg.norm(d) > 1e-9:
                        assert margin * float(d @ grad @ d) > 0


class TestLinkInverse:
    def test_one_route_has_no_realisable_direction(self):
        net = single_od_network([AffineDelay(1.0, 1.0)], q_hdv=10.0, q_crv=5.0)
        result = inverse_link_flows(SELFISH, [15.0], net)
        np.testing.assert_array_equal(result.f_hat, [5.0])
        assert result.certificate.theorem_applies and result.certificate.pd.min_rayleigh == math.inf
        assert net.restricted_min_eigenvalue([15.0]) == math.inf

    def test_overlap_uniform_case(self, net_overlap):
        q = np.array([100.0, 100.0, 100.0, 100.0])
        result = inverse_link_flows(SELFISH, net_overlap.route_to_link(q), net_overlap)
        np.testing.assert_allclose(result.f_hat, [50.0, 50.0, 50.0, 50.0], atol=1e-6)
        assert result.certificate.theorem_applies
        assert result.level == "link"

    def test_overlap_concentrated_same_link_flow(self, net_overlap):
        q = np.array([200.0, 0.0, 0.0, 200.0])
        a = net_overlap.route_to_link(q)
        np.testing.assert_allclose(a, [200.0, 200.0, 200.0, 200.0])
        result = inverse_link_flows(SELFISH, a, net_overlap)
        np.testing.assert_allclose(result.f_hat, [50.0, 50.0, 50.0, 50.0], atol=1e-6)

    def test_route_level_certificate_fails_link_level_holds(self, net_overlap):
        q = np.array([100.0, 100.0, 100.0, 100.0])
        route_result = solve_inverse(SELFISH, q, net_overlap)
        assert not route_result.certificate.theorem_applies
        assert route_result.fiber is not None
        assert route_result.fiber.dimension == 1
        link_result = inverse_link_flows(SELFISH, net_overlap.route_to_link(q), net_overlap)
        assert link_result.certificate.theorem_applies

    def test_diagonal_jacobian_certificate(self, fig_two_route):
        a = fig_two_route.route_to_link(np.array([60.0, 40.0]))
        result = inverse_link_flows(SELFISH, a, fig_two_route)
        assert result.certificate.theorem_applies

    def test_ladder_link_inverses_agree_with_the_route_inverses(self):
        # on forward equilibria the uncapped link level gives the link image
        # of the route level's f_hat and h_hat, byte for byte, and so no
        # negative HDV flow (off the forward's image it can: the route
        # variables are not capped by the observation)
        for h, net in route_ladder():
            q = h + fleet_assign(SELFISH, h, net, certify=False).f
            route, link = solve_inverse(SELFISH, q, net), inverse_link_flows(SELFISH, net.route_to_link(q), net)
            assert route.certificate.theorem_applies and link.certificate.theorem_applies
            assert link.f_hat.tobytes() == net.route_to_link(route.f_hat).tobytes()
            assert link.h_hat.tobytes() == net.route_to_link(route.h_hat).tobytes()
            assert np.all(link.h_hat >= 0.0)

    def test_not_realisable(self, net_overlap):
        # upstream links carry 400 but downstream only 100: no route flow fits
        with pytest.raises(NotRealisableError):
            inverse_link_flows(SELFISH, np.array([200.0, 200.0, 50.0, 50.0]), net_overlap)


def _three_stage_network():
    """Three stages of two parallel affine links, one route through each of
    the 8 link choices, one unit of fleet 40: a 4-dimensional route fiber."""
    links = [Link(f"s{i}{c}", AffineDelay(1.0 + i, 0.1)) for i in range(3) for c in "ab"]
    routes = [
        Route("r" + "".join(p), tuple(f"s{i}{c}" for i, c in enumerate(p)))
        for p in itertools.product("ab", repeat=3)
    ]
    unit = ODUnit("O", "D", q_hdv=60.0, q_crv=40.0, route_ids=tuple(r.id for r in routes))
    return Network(links, routes, units=[unit])


def _min_norm_by_kkt_enumeration(e, rhs, upper):
    """argmin |x| over {e x = rhs, 0 <= x <= upper}: on every lower/free/cap
    labeling the bound coordinates are fixed and the free ones take the
    least-norm solution of e x = rhs, pinv(e_free) (rhs - e x_bound), which
    is the face's KKT point x_free = e_free^T lam; the feasible solution of
    least norm is the minimizer."""
    n = e.shape[1]
    labels = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
    free = labels == 0
    x = np.where(labels > 0, upper, 0.0)
    # one pseudo-inverse per free set
    patterns, groups = np.unique(free, axis=0, return_inverse=True)
    for g, pattern in enumerate(patterns):
        rows = np.flatnonzero(groups.ravel() == g)
        x[np.ix_(rows, pattern)] = (rhs - x[rows] @ e.T) @ np.linalg.pinv(e[:, pattern]).T
    solved = np.max(np.abs(x @ e.T - rhs), axis=1) <= 1e-9 * (1.0 + np.max(np.abs(rhs)))
    inside = np.all((x >= -1e-9) & (x <= upper + 1e-9), axis=1)
    candidates = x[solved & inside]
    return candidates[np.argmin(np.sum(candidates**2, axis=1))]


class TestRouteFiber:
    def test_uniform_case(self, net_overlap):
        phi = np.array([50.0, 50.0, 50.0, 50.0])
        fiber = route_fiber(net_overlap, phi, upper=np.array([100.0] * 4))
        assert fiber.dimension == 1
        np.testing.assert_allclose(fiber.representative, [25.0, 25.0, 25.0, 25.0], atol=1e-8)
        lo, hi = fiber.intervals[0]
        assert hi - lo > 10.0  # a genuine segment of route flows
        # the corners named in the solution set are reachable inside the box
        v = fiber.basis[:, 0]
        for target in ([50.0, 0.0, 0.0, 50.0], [0.0, 50.0, 50.0, 0.0]):
            t = float((np.asarray(target) - fiber.representative) @ v)
            np.testing.assert_allclose(fiber.representative + t * v, target, atol=1e-8)
            assert lo - 1e-9 <= t <= hi + 1e-9

    def test_concentrated_case_unique(self, net_overlap):
        phi = np.array([50.0, 50.0, 50.0, 50.0])
        fiber = route_fiber(net_overlap, phi, upper=np.array([200.0, 0.0, 0.0, 200.0]))
        np.testing.assert_allclose(fiber.representative, [50.0, 0.0, 0.0, 50.0], atol=1e-8)
        lo, hi = fiber.intervals[0]
        assert hi - lo == pytest.approx(0.0, abs=1e-8)

    def test_independent_routes_unique(self, fig_two_route):
        fiber = route_fiber(fig_two_route, np.array([30.0, 20.0]))
        assert fiber.dimension == 0
        np.testing.assert_allclose(fiber.representative, [30.0, 20.0], atol=1e-9)

    def test_unrealisable_phi(self, net_overlap):
        with pytest.raises(NotRealisableError):
            route_fiber(net_overlap, np.array([80.0, 20.0, 10.0, 10.0]))

    def test_realisable_flows_on_four_dimensional_fiber(self):
        # Dykstra's alternating projections, which the least-distance solve
        # replaced, could stop while still outside the box and refused 9 of
        # these 200 flows (the first at draw 7, residual 0.705) although f
        # itself lies in the fiber
        net = _three_stage_network()
        rng = np.random.default_rng(1)
        for _ in range(200):
            f = rng.dirichlet(np.ones(8)) * 40.0
            upper = f + rng.uniform(0.0, 3.0, 8)
            fiber = route_fiber(net, net.route_to_link(f), upper=upper)
            assert fiber.dimension == 4
            assert fiber.residual <= 1e-9

    def test_representative_is_the_min_norm_point(self):
        net = _three_stage_network()
        e = np.vstack([net.incidence.T, np.ones((1, 8))])
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.dirichlet(np.ones(8)) * 40.0
            upper = f + rng.uniform(0.0, 3.0, 8)
            fiber = route_fiber(net, net.route_to_link(f), upper=upper)
            expected = _min_norm_by_kkt_enumeration(e, e @ f, upper)
            np.testing.assert_allclose(fiber.representative, expected, rtol=0.0, atol=1e-11)

    def test_representative_on_zero_slack_boxes(self):
        # a third of the routes empty and every cap at f: the box touches
        # the fiber where f lies
        net = _three_stage_network()
        e = np.vstack([net.incidence.T, np.ones((1, 8))])
        rng = np.random.default_rng(3)
        for _ in range(6):
            f = rng.dirichlet(np.ones(8)) * 40.0
            f[rng.random(8) < 0.3] = 0.0
            f *= 40.0 / f.sum()
            fiber = route_fiber(net, net.route_to_link(f), upper=f)
            assert fiber.residual <= 1e-9
            expected = _min_norm_by_kkt_enumeration(e, e @ f, f)
            np.testing.assert_allclose(fiber.representative, expected, rtol=0.0, atol=1e-11)

    def test_unrealisable_link_flow_on_four_dimensional_fiber(self):
        # the third stage carries none of the unit's 100 vehicles: no route
        # flow of f_p + span(basis) is non-negative, so the least-distance
        # solve finds no point and the residual refuses the link flow
        answers = []
        least_distance = inverse._least_distance

        def spy(g, h):
            answers.append(least_distance(g, h))
            return answers[-1]

        with mock.patch.object(inverse, "_least_distance", spy):
            with pytest.raises(NotRealisableError):
                inverse_link_flows(SELFISH, np.array([100.0, 0.0, 100.0, 0.0, 0.0, 0.0]), _three_stage_network())
        assert len(answers) == 1 and answers[0] is None


def _least_distance_by_nnls(g, h):
    """Lawson and Hanson's least-distance reduction, its NNLS solved by
    enumerating supports: some optimal w has at most k + 1 positive
    weights, so the least |m w - e| over the clipped least-squares w of
    every support that small is the optimum.  scipy's nnls is not the
    oracle: on some of these draws it returns weights near 1e15 and a
    point far outside g c >= h."""
    k, n = g.shape[1], len(h)
    m = np.vstack([g.T, h])
    e = np.zeros(k + 1)
    e[k] = 1.0
    r = -e
    for size in range(1, min(k + 1, n) + 1):
        cols = m[:, list(itertools.combinations(range(n), size))].transpose(1, 0, 2)
        w = np.maximum(np.linalg.pinv(cols) @ e, 0.0)
        residuals = np.einsum("cij,cj->ci", cols, w) - e
        best = residuals[np.argmin(np.einsum("ci,ci->c", residuals, residuals))]
        if best @ best < r @ r:
            r = best
    return None if np.linalg.norm(r) <= 1e-10 else -r[:k] / r[k]


class TestLeastDistance:
    @given(
        k=st.integers(1, 5),
        n=st.integers(1, 12),
        feasible=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    @example(k=3, n=10, feasible=True, seed=1531)
    @example(k=3, n=8, feasible=True, seed=2104649676)
    def test_matches_nnls(self, k, n, feasible, seed):
        # feasible: h = g c0 - slack, some slacks zero; otherwise one more
        # pair of rows asks a . c >= 1 and -a . c >= 0
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n, k))
        h = g @ rng.normal(size=k) - np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 2.0, n))
        if not feasible:
            a = rng.normal(size=k)
            g, h = np.vstack([g, a, -a]), np.append(h, [1.0, 0.0])
        got, expected = inverse._least_distance(g, h), _least_distance_by_nnls(g, h)
        if not feasible:
            assert got is None and expected is None
            return
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9 * (1.0 + np.linalg.norm(expected)))
        assert np.all(g @ got >= h - 1e-12 * (1.0 + np.max(np.abs(h))))

    def test_origin_when_it_is_feasible(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(inverse._least_distance(g, np.array([-1.0, 0.0])), [0.0, 0.0])

    def test_rows_22_orders_apart_admit_no_point(self):
        # c >= 1e12 and c <= -1e-4 admit no c; before each row was scaled to
        # unit max norm the active set took and dropped the first row at
        # every step and raised ConvergenceError at its cap of 6 steps
        g = np.array([[1e-12], [-1e10]])
        assert inverse._least_distance(g, np.array([1.0, 1e6])) is None

    def test_a_row_of_scale_1e200(self):
        # 1e200 c >= 1e200 and -c >= -5: c = 1, where c = 0 came back when
        # only h was scaled
        g = np.array([[1e200], [-1.0]])
        np.testing.assert_allclose(inverse._least_distance(g, np.array([1e200, -5.0])), [1.0], rtol=1e-12)

    @given(
        k=st.integers(1, 3),
        exponents=st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_rows_of_any_scale(self, k, exponents, seed):
        # a row scaled by s > 0 keeps its half-space, so the answer at row
        # scales from 1e-12 to 1e12 is the answer at scale 1
        rng = np.random.default_rng(seed)
        g, h = rng.normal(size=(2, k)), rng.normal(size=2)
        scales = 10.0 ** np.array(exponents)
        got, expected = inverse._least_distance(scales[:, None] * g, scales * h), _least_distance_by_nnls(g, h)
        if expected is None:
            assert got is None
        else:
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9 * (1.0 + np.linalg.norm(expected)))


class TestLipschitzBound:
    def test_affine_reduces_to_gradient_term(self):
        net = single_od_network([AffineDelay(1.0, 2.0), AffineDelay(1.0, 3.0)], q_hdv=30.0, q_crv=10.0)
        bound = lipschitz_bound(SELFISH, net, samples=50, seed=0)
        assert bound.hess_norm == 0.0
        expected_k = (abs(SELFISH.lam_crv) + abs(SELFISH.lam_hdv)) * bound.grad_norm
        assert bound.constant == pytest.approx(expected_k, rel=1e-12)
        assert bound.defined

    def test_monte_carlo_validation(self, fig_two_route):
        bound = lipschitz_bound(SELFISH, fig_two_route, samples=150, seed=3)
        assert bound.defined
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            h1 = rng.dirichlet(np.ones(2)) * 50.0
            h2 = rng.dirichlet(np.ones(2)) * 50.0
            q1 = h1 + fleet_assign(SELFISH, h1, fig_two_route, certify=False).f
            q2 = h2 + fleet_assign(SELFISH, h2, fig_two_route, certify=False).f
            gap = float(np.linalg.norm(q1 - q2))
            if gap < 1e-9:
                continue
            f1 = solve_inverse(SELFISH, q1, fig_two_route).f_hat
            f2 = solve_inverse(SELFISH, q2, fig_two_route).f_hat
            ratio = float(np.linalg.norm(f1 - f2)) / gap
            worst = max(worst, ratio)
            assert ratio <= bound.bound
        assert worst > 0.0

    def test_bound_blows_up_as_margin_vanishes(self, fig_two_route):
        # fix lam_crv = 1 and push lam_hdv up toward it
        bounds = [
            lipschitz_bound(FleetStrategy(1.0 - margin, 1.0), fig_two_route, samples=20, seed=0).bound
            for margin in (1.0, 0.1, 0.01)
        ]
        assert bounds[0] < bounds[1] < bounds[2]
        assert bounds[2] > 100.0 * bounds[0] / 2.0
        undefined = lipschitz_bound(SOCIAL, fig_two_route, samples=20, seed=0)
        assert not undefined.defined and math.isinf(undefined.bound)

    def test_substreams_draw_no_os_entropy(self, fig_two_route):
        # sample i is drawn from Philox at key (seed, i), counter 0, as a
        # fresh Philox(key=[seed, i]) would draw it; constructing one per
        # sample drew 128 bits of OS entropy each and discarded them
        seed, samples = 2**40 + 3, 30
        with (
            mock.patch.object(np.random.bit_generator, "randbits", side_effect=AssertionError("OS entropy")),
            mock.patch.object(inverse, "_hessian_norm_bound", wraps=inverse._hessian_norm_bound) as hessian,
        ):
            bound = lipschitz_bound(SELFISH, fig_two_route, samples=samples, seed=seed)
        assert bound.defined and bound.samples == samples
        total = fig_two_route.units[0].q_hdv + fig_two_route.units[0].q_crv
        expected = [np.random.Generator(np.random.Philox(key=[seed, i])).dirichlet(np.ones(2)) * total
                    for i in range(samples)]
        assert hessian.call_args.args[1].tobytes() == np.array(expected).tobytes()

    def test_one_slope_evaluation_per_bound(self, fig_two_route):
        # rho is read off the batch of route gradients formed for grad_norm,
        # with the bits of restricted_min_eigenvalue; that method formed the
        # batch again from a second slope evaluation
        with (
            mock.patch.object(DelayTable, "derivatives", autospec=True,
                              side_effect=DelayTable.derivatives) as derivatives,
            mock.patch.object(inverse, "_hessian_norm_bound", wraps=inverse._hessian_norm_bound) as hessian,
        ):
            bound = lipschitz_bound(SELFISH, fig_two_route, samples=40, seed=1)
        assert derivatives.call_count == 1
        q = hessian.call_args.args[1]
        assert bound.rho == min(fig_two_route.restricted_min_eigenvalue(q).tolist())

    def test_no_feasible_direction_leaves_rho_infinite(self):
        net = single_od_network([AffineDelay(1.0, 2.0)], q_hdv=30.0, q_crv=10.0)
        bound = lipschitz_bound(SELFISH, net, samples=5, seed=0)
        assert math.isinf(bound.rho) and not bound.defined and math.isinf(bound.bound)


class TestDiscreteRecover:
    def test_symmetric_selfish(self):
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        result = discrete_recover(SELFISH, np.array([50.0, 50.0]), net)
        assert result.image_distance <= 1e-6
        target = np.array([40.5, 40.5])
        assert float(np.linalg.norm(result.inverse.h_hat - target)) <= result.closeness_bound
        cands = {tuple(c) for c in result.integer_candidates}
        assert (9.0, 10.0) in cands and (10.0, 9.0) in cands

    def test_malicious_discrete_continuous_coincide(self):
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        h = np.array([31.0, 50.0])
        q = h + fleet_assign(MALICIOUS, h, net).f
        assert np.allclose(q, np.round(q))
        result = discrete_recover(MALICIOUS, q, net)
        np.testing.assert_allclose(result.q_city, q, atol=1e-9)
        np.testing.assert_allclose(result.inverse.f_hat, [0.0, 19.0], atol=1e-9)
        np.testing.assert_allclose(result.inverse.f_hat, np.round(result.inverse.f_hat))

    def test_observation_in_image(self):
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        result = discrete_recover(SELFISH, np.array([50.0, 50.0]), net)
        np.testing.assert_allclose(result.q_city, [50.0, 50.0], atol=1e-7)
        assert result.image_distance == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("strategy,h", [(SELFISH, [40.5, 40.5]), (MALICIOUS, [31.0, 50.0])])
    def test_observation_in_image_stops_at_the_inverse_start(self, strategy, h):
        # q - f for the inverse's solution f is already in the image: one
        # forward solve measures that start and its total flow is q_city, so
        # no Armijo trial runs (2 solves when q_city took its own)
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        q = np.asarray(h) + fleet_assign(strategy, np.asarray(h), net).f
        assert np.allclose(q, np.round(q))
        with counting_forward_solves() as forward_calls:
            result = discrete_recover(strategy, np.round(q), net)
        assert len(forward_calls) == 1 <= len(result.inverse.solutions)
        assert result.image_distance <= 1e-10

    @pytest.mark.parametrize("q,distance", [([100.0, 0.0], 26.870057685088806), ([95.0, 5.0], 19.79898987322333)])
    def test_observation_outside_image(self, q, distance):
        # the inverse's starts come first, and every vertex and random start
        # still runs after them
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        result = discrete_recover(SELFISH, np.array(q), net)
        np.testing.assert_allclose(result.q_city, [81.0, 19.0], atol=1e-9)
        assert result.image_distance == pytest.approx(distance, rel=1e-9)

    def test_each_search_point_is_solved_once(self):
        # nine integer observations, most off the forward image: the search
        # takes each point's residual and q_city from the total flow its
        # distance was measured with (6,014 forward solves when both solved
        # the forward again)
        rng = np.random.default_rng(1)
        with counting_forward_solves() as forward_calls:
            for strategy in (SELFISH, MALICIOUS, FleetStrategy.preset("disruptive")):
                for _ in range(3):
                    net = single_od_network(
                        [BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(20, 80)), 2.0) for _ in range(3)],
                        q_hdv=60.0, q_crv=20.0,
                    )
                    q = np.round(rng.dirichlet(np.ones(3)) * 80.0)
                    q[-1] = 80.0 - q[:-1].sum()
                    discrete_recover(strategy, q, net)
        assert len(forward_calls) == 5253

    def test_rejects_fractional_observation(self):
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        with pytest.raises(ValueError):
            discrete_recover(SELFISH, np.array([50.5, 49.5]), net)

    def test_none_seed_is_refused(self):
        # None used to mean the solver config's seed; numpy would take it as
        # a request for fresh OS entropy
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*63\), got None"):
            discrete_recover(SELFISH, np.array([50.0, 50.0]), net, seed=None)


def _brute_force_roundings(f_hat, blocks, sizes, radius):
    """Every floor/ceil pattern of f_hat that is nonnegative, keeps the unit
    sizes and lies within radius (with the library's cushion), as rows in
    ascending lexicographic order."""
    r = len(f_hat)
    masks = np.arange(2**r, dtype=np.int32)[:, None]
    bits = ((masks >> np.arange(r, dtype=np.int32)) & 1).astype(np.int8)
    lo = np.floor(f_hat)
    up = np.ceil(f_hat) - lo
    keep = np.ones(len(bits), dtype=bool)
    for block, size in zip(blocks, sizes):
        keep &= np.abs(lo[block].sum() + bits[:, block] @ up[block] - size) < 1e-9
    cand = lo + bits[keep] * up
    cand = cand[np.all(cand >= 0, axis=1)]
    cand = cand[np.linalg.norm(cand - f_hat, axis=1) <= radius * (1.0 + 1e-6) + 1e-6]
    return np.unique(cand, axis=0) + 0.0


class TestIntegerCandidates:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        seen = 0
        for _ in range(300):
            units = [int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
            blocks, start = [], 0
            for k in units:
                blocks.append(np.arange(start, start + k))
                start += k
            sizes = rng.integers(0, 6, size=len(units)).astype(float)
            f_hat = np.concatenate([rng.dirichlet(np.ones(k)) * s for k, s in zip(units, sizes)])
            # integral coordinates, and rounding noise just below 0
            integral = rng.random(start) < 0.2
            f_hat[integral] = np.round(f_hat[integral])
            f_hat[rng.random(start) < 0.1] = -1e-12
            radius = float(rng.uniform(0.2, 1.0)) * math.sqrt(start) / 2.0
            got = inverse._integer_candidates(
                f_hat, tuple(blocks), sizes, radius, DEFAULT_CONFIG.vertex_cap
            )
            expected = _brute_force_roundings(f_hat, blocks, sizes, radius)
            assert isinstance(got, tuple)
            assert np.array_equal(np.array(got).reshape(-1, start), expected)
            seen += len(got)
        assert seen >= 200

    def test_fractional_fleet_size_has_no_integer_candidates(self):
        net = single_od_network([AffineDelay(1.0, 1.0), AffineDelay(2.0, 1.0)], q_hdv=12.5, q_crv=2.5)
        result = discrete_recover(SELFISH, [8.0, 7.0], net)
        assert result.integer_candidates == ()

    def test_eighteen_routes(self):
        rng = np.random.default_rng(18)
        f_hat = rng.dirichlet(np.ones(18)) * 90.0
        f_hat += (90.0 - f_hat.sum()) / 18.0
        blocks, sizes = (np.arange(18),), np.array([90.0])
        radius = math.sqrt(18) / 2.0
        with pytest.raises(FleetModelError):
            inverse._integer_candidates(f_hat, blocks, sizes, radius, DEFAULT_CONFIG.vertex_cap)
        up = 90 - int(np.floor(f_hat).sum())
        got = inverse._integer_candidates(f_hat, blocks, sizes, radius, math.comb(18, up))
        expected = _brute_force_roundings(f_hat, blocks, sizes, radius)
        assert len(got) > 1000
        assert np.array_equal(np.array(got), expected)


class TestMultiUnit:
    def test_two_od_round_trip(self):
        net = two_od_overlap()
        h = np.array([20.0, 10.0, 12.0, 18.0])
        forward = fleet_assign(SELFISH, h, net)
        q = h + forward.f
        result = solve_inverse(SELFISH, q, net)
        assert float(np.max(np.abs(result.f_hat - forward.f))) <= 1e-4


class TestCrossDependentRoundTrip:
    def test_asymmetric_operator_round_trip(self):
        # interdependent middle links make the VI operator asymmetric; the
        # stable slope pair keeps it strictly monotone on feasible directions
        from conftest import cross_dependent_two_route

        net = cross_dependent_two_route(0.5, 0.25, q_hdv=50.0, q_crv=20.0)
        h = np.array([18.0, 32.0])
        forward = fleet_assign(SELFISH, h, net)
        q = h + forward.f
        cert = net.feasible_direction_pd(q)
        assert cert.passes
        result = solve_inverse(SELFISH, q, net)
        assert result.certificate.theorem_applies
        assert float(np.max(np.abs(result.f_hat - forward.f))) <= 1e-4

    def test_unstable_pair_flags_and_searches(self):
        from conftest import cross_dependent_two_route

        net = cross_dependent_two_route(2.0, 1.5, q_hdv=50.0, q_crv=20.0)
        h = np.array([18.0, 32.0])
        forward = fleet_assign(SELFISH, h, net)
        result = solve_inverse(SELFISH, h + forward.f, net)
        assert not result.certificate.theorem_applies
        assert "positive definite" in result.certificate.reason


class TestNonFiniteObservations:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_route_observation(self, fig_two_route, bad):
        with pytest.raises(InfeasibleProblemError, match="finite"):
            solve_inverse(SELFISH, np.array([60.0, bad]), fig_two_route)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_link_observation(self, net_overlap, bad):
        a = np.array([200.0, 200.0, 200.0, bad])
        with pytest.raises(InfeasibleProblemError, match="finite"):
            inverse_link_flows(SELFISH, a, net_overlap)

    @pytest.mark.parametrize("f", [[math.nan, 5.0], [math.inf, 0.0], [5.0, -math.inf]])
    def test_stationarity_map_fleet_flow(self, fig_two_route, f):
        # these used to return [nan nan] or [inf nan] with a RuntimeWarning
        with pytest.raises(InfeasibleProblemError, match="fleet flows must be finite"):
            stationarity_map(SELFISH, np.array([60.0, 40.0]), np.array(f), fig_two_route)


    @pytest.mark.parametrize(
        "level,observed,error,match",
        [
            ("link", [math.nan, 1.0], InfeasibleProblemError, "link flow must be finite"),
            ("route", [50.0, 50.0, 0.0], DimensionMismatchError, "observed flows must be a vector of length 2"),
            ("route", [math.nan, 50.0], InfeasibleProblemError, "observed flows must be finite"),
            ("route", [-10.0, 110.0], InfeasibleProblemError, "must be non-negative"),
        ],
    )
    def test_fiber_and_discrete_recovery(self, fig_two_route, level, observed, error, match):
        # these used to return an all-NaN fiber, raise numpy's broadcast
        # error or the integer check's plain ValueError, or "recover" a
        # negative observation
        with pytest.raises(error, match=match):
            if level == "link":
                route_fiber(fig_two_route, observed)
            else:
                discrete_recover(SELFISH, observed, symmetric_quadratic(q_hdv=90.0, q_crv=10.0))


class TestTypedInputErrors:
    # each of these used to escape the typed errors: an all-NaN fiber (NaN
    # caps), a NotRealisableError (caps of the wrong length), numpy's
    # LinAlgError (totals of the wrong length), or a silent accept
    # (non-finite fleet totals, theta) or a crash inside numpy's generators
    # (seeds out of range)
    @pytest.mark.parametrize(
        "call,error,match",
        [
            (lambda net: route_fiber(net, net.route_to_link(np.array([30.0, 20.0])), upper=[60.0]),
             DimensionMismatchError, "upper bound vector has wrong length"),
            (lambda net: route_fiber(net, net.route_to_link(np.array([30.0, 20.0])), upper=[60.0, math.nan]),
             InfeasibleProblemError, "upper bounds must not be NaN"),
            (lambda net: FeasibleSet(blocks=net.unit_blocks(), totals=np.array([10.0, 1.0]), n_routes=2),
             DimensionMismatchError, "one fleet total per unit"),
            (lambda net: FeasibleSet(blocks=net.unit_blocks(), totals=np.array([math.nan]), n_routes=2),
             InfeasibleProblemError, "fleet sizes must be finite"),
            (lambda net: FeasibleSet(blocks=net.unit_blocks(), totals=np.array([math.inf]), n_routes=2),
             InfeasibleProblemError, "fleet sizes must be finite"),
            (lambda net: SimulationConfig(theta=math.nan), ValueError, "theta must be finite and positive"),
            (lambda net: SimulationConfig(seed=-2), ValueError, r"seed must lie in \[0, 2\*\*63\)"),
            (lambda net: lipschitz_bound(SELFISH, net, samples=2, seed=-1), ValueError, "seed must lie"),
            (lambda net: lipschitz_bound(SELFISH, net, samples=2, seed=10**23), ValueError, "seed must lie"),
        ],
    )
    def test_raises_typed_error(self, fig_two_route, call, error, match):
        with pytest.raises(error, match=match):
            call(fig_two_route)


class TestRouteCertificate:
    def test_certificate_is_the_feasible_direction_test(self):
        # the route inverse certifies with Network.feasible_direction_pd at
        # the observation: the same eigenvalue, bit for bit, and the same
        # verdict wherever the margin is positive
        cases = _certified_instances(20, seed=7)
        strategy, h, net = _defect_instance()
        cases.append((strategy, h + fleet_assign(strategy, h, net).f, net))
        for name in ("cross_dependent_unstable", "two_od", "two_stage_overlap", "two_stage_overlap_concentrated"):
            scenario = parse_scenario(fixture_path(name))
            cases.append((scenario.strategy, scenario.observed_route_flows, scenario.network))
        verdicts = set()
        for strategy, q, net in cases:
            certificate = solve_inverse(strategy, q, net).certificate
            pd = net.feasible_direction_pd(q)
            assert certificate.min_rayleigh.hex() == pd.min_rayleigh.hex()
            assert certificate.theorem_applies == (strategy.margin > inverse.MARGIN_EPS and pd.passes)
            verdicts.add((strategy.margin > inverse.MARGIN_EPS, pd.passes))
        assert {(True, True), (True, False)} <= verdicts


def _near_connector(draw: int, k: int):
    """(h, network, f): seed-2024 ladder draw `draw` (R = 100) with a link
    s, BPR(2, 1, 100, 4), added to its first k routes, and the selfish
    forward's fleet flow: the connector network's own, or where s is on
    every route (unit-constant, on which the convex forward stalls), the
    plain network's, which is the same equilibrium."""
    h, plain = route_ladder()[draw]
    links = list(plain.links) + [Link("s", BPRDelay(2.0, 1.0, 100.0, 4.0))]
    routes = [Route(route.id, route.link_ids + (("s",) if i < k else ())) for i, route in enumerate(plain.routes)]
    net = Network(links, routes, units=plain.units)
    return h, net, fleet_assign(SELFISH, h, plain if k == plain.n_routes else net, certify=False).f


def _overlapping_additive(rng):
    """A link-additive network of 1-3 OD units of 2-5 routes: each route
    has 0-2 links of its own and 1-2 links of a pool of four that routes of
    every unit draw from; BPR, affine and quadratic delays, and a route
    flow q with about a third of the routes empty, so that their BPR slopes
    vanish."""
    links = [Link(f"s{j}", _random_delay(rng)) for j in range(4)]
    routes, units, parts = [], [], []
    for u in range(int(rng.integers(1, 4))):
        ids = []
        for j in range(int(rng.integers(2, 6))):
            own = [f"l{u}.{j}.{i}" for i in range(int(rng.integers(3)))]
            links += [Link(lid, _random_delay(rng)) for lid in own]
            pool = [f"s{i}" for i in sorted(rng.choice(4, int(rng.integers(1, 3)), replace=False))]
            routes.append(Route(f"r{u}.{j}", tuple(own + pool)))
            ids.append(f"r{u}.{j}")
        q = rng.dirichlet(np.ones(len(ids))) * rng.uniform(15, 100) * (rng.random(len(ids)) < 0.7)
        units.append(ODUnit("O", f"D{u}", q_hdv=0.5 * float(q.sum()), q_crv=0.5 * float(q.sum()), route_ids=tuple(ids)))
        parts.append(q)
    return Network(links, routes, units=units), np.concatenate(parts)


class TestPrivateSlopeRule:
    @pytest.mark.parametrize("draw, k", list(itertools.product([9, 10, 11], [90, 99, 100])))
    def test_near_connector_inverses_are_certified(self, draw, k):
        # every route has a private link of positive slope, so the route
        # gradient is positive definite on feasible directions although s
        # inflates its trace, which made the dense test refuse 7 of these 9;
        # both levels certify and answer the forward's flow
        h, net, f = _near_connector(draw, k)
        assert not net.separable
        mass = float(np.sum(net.fleet_sizes()))
        result = solve_inverse(SELFISH, h + f, net)
        assert result.certificate.theorem_applies and len(result.solutions) == 1
        assert float(np.max(np.abs(result.f_hat - f))) <= 1e-9 * (1.0 + mass)
        link = inverse_link_flows(SELFISH, net.route_to_link(h + f), net)
        assert link.certificate.theorem_applies and len(link.solutions) == 1
        assert float(np.max(np.abs(link.f_hat - net.route_to_link(f)))) <= 1e-9 * (1.0 + mass)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rule_passes_only_on_positive_definite_gradients(self, seed):
        # G = sum_a tau'_a n_a n_a^T >= diag(p), p the private slopes: where
        # the rule passes on p, the dense least eigenvalue on feasible
        # directions lies at or above diag(p)'s, less its rounding, 16 R eps
        # |G|_inf on the unit-norm quotient (twice that on min_rayleigh's
        # scale), so never below minus that; where it fails, the decision is
        # the exact refusal on a diagonal gradient and the dense test's on a
        # matrix.  min_rayleigh is the dense one either way
        net, q = _overlapping_additive(np.random.default_rng(seed))
        a = net.route_to_link(q)
        slopes = net.delay_table.derivatives(a)
        shared = net.incidence.sum(axis=0) > 1.0
        private = net.incidence[:, ~shared] @ slopes[~shared]
        rule = np.all(private >= 0.0) and all(np.count_nonzero(private[b] == 0.0) < 2 for b in net.unit_blocks())
        pd = net.feasible_direction_pd(q)
        grad = net.route_gradient(q)
        basis = net.feasible_direction_basis()
        dense = _pd_certificate(basis, grad)
        assert pd.min_rayleigh.hex() == dense.min_rayleigh.hex()
        if not rule:
            assert pd.passes == (dense.passes and net._route_gradient_form_at(a).ndim == 2)
            return
        allowance = 2.0 * 16.0 * net.n_routes * np.finfo(float).eps * float(np.linalg.norm(grad, np.inf))
        assert pd.passes and pd.threshold == 0.0
        assert dense.min_rayleigh >= _pd_certificate(basis, np.diag(private)).min_rayleigh - allowance

    @given(network=st.sampled_from(["overlap_network", "two_od_overlap"]),
           weights=st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_dependent_routes_are_never_certified(self, network, weights):
        # four routes over every pairing of two upstream and two downstream
        # links: r1 - r2 - r3 + r4 moves no link flow and sums to zero in
        # each unit, so no route flow has a unique inverse, and no setting
        # can make either test say otherwise
        net = overlap_network() if network == "overlap_network" else two_od_overlap()
        weights = np.array(weights)
        q = np.zeros(4)
        for unit, block in zip(net.units, net.unit_blocks()):
            total = float(weights[block].sum())
            share = weights[block] / total if total > 0.0 else np.full(len(block), 0.5)
            q[block] = share * (unit.q_hdv + unit.q_crv)
        assert not net.routes_linearly_independent().independent
        assert not net.feasible_direction_pd(q).passes
        assert not solve_inverse(SELFISH, q, net).certificate.theorem_applies


def _sorted_greedy(c, feasible):
    """Greedy LP fill with the tie order spelled out as Python sort keys."""
    x = np.zeros(feasible.n_routes)
    for block, total in zip(feasible.blocks, feasible.totals):
        remaining = float(total)
        for i in sorted(range(len(block)), key=lambda i: (c[block[i]], i)):
            r = block[i]
            cap = remaining if feasible.upper is None else min(remaining, float(feasible.upper[r]))
            x[r] = cap
            remaining -= cap
            if remaining <= 0:
                break
    return x


class TestLinearMinimum:
    def test_matches_sorted_greedy_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sizes = rng.integers(1, 7, size=int(rng.integers(1, 4)))
            bounds = np.cumsum(np.concatenate([[0], sizes]))
            blocks = tuple(np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
            n = int(bounds[-1])
            upper = rng.uniform(0.0, 10.0, n) if rng.random() < 0.7 else None
            caps = [float(np.sum(upper[b])) if upper is not None else 30.0 for b in blocks]
            totals = np.array([rng.uniform(0.0, cap) for cap in caps])
            feasible = FeasibleSet(blocks=blocks, totals=totals, n_routes=n, upper=upper)
            c = rng.integers(0, 3, n).astype(float)  # many ties
            x, value = inverse._linear_minimum(c, feasible)
            expected = _sorted_greedy(c, feasible)
            assert x.tobytes() == expected.tobytes()
            assert value == float(c @ expected)


def _reference_solve(strategy, q, network):
    """The certified route VI solved by the extragradient alone (see
    _reference_vi)."""
    feasible = FeasibleSet(
        blocks=network.unit_blocks(), totals=network.fleet_sizes(),
        n_routes=network.n_routes, upper=q,
    )
    grad = network.route_gradient(q)
    a0 = strategy.lam_crv * network.route_times(q) + grad.T @ (strategy.lam_hdv * q)
    b = strategy.margin * grad.T
    return _reference_vi(a0, b, feasible, float(np.linalg.norm(network.route_times(q))), _diagonal_at(network, q))


def _reference_link_solve(strategy, a, network):
    """The certified link VI of inverse_link_flows solved by the
    extragradient alone (see _reference_vi); returns the link flow and the
    residual."""
    feasible = FeasibleSet(blocks=network.unit_blocks(), totals=network.fleet_sizes(), n_routes=network.n_routes)
    tau = network.link_travel_times(a)
    jac = network.link_time_jacobian(a)
    a0 = network.incidence @ (strategy.lam_crv * tau + jac.T @ (strategy.lam_hdv * a))
    b = strategy.margin * (network.incidence @ jac @ network.incidence.T).T
    diagonal = network._route_gradient_form_at(a).ndim == 1
    f, residual, _ = _reference_vi(a0, b, feasible, float(np.linalg.norm(tau)), diagonal)
    return network.route_to_link(f), residual


def _diagonal_at(network, q) -> bool:
    """Whether the route gradient at q is diagonal, as Network decides."""
    return network._route_gradient_form_at(network.route_to_link(q)).ndim == 1


def _reference_vi(a0, b, feasible, t_norm, diagonal):
    """A certified affine VI solved by the extragradient alone (Korpelevich
    1976, step 0.9 / ||b||, at most 20,000 iterations), from the uniform
    split: iterates until the gap is within tolerance, then one active-set
    polish.  Also reports whether it returns the polished face point and
    that point keeps the partition it was solved on.  The polish solves the
    face in closed form where the route gradient is `diagonal`, as the
    library's pivot does."""
    scale = max(1.0, feasible.total_mass)
    tol_gap = DEFAULT_CONFIG.tol_vi * (1.0 + t_norm) * scale
    step = 0.9 / float(np.linalg.norm(b, 2))
    f = np.zeros(feasible.n_routes)
    for block, total in zip(feasible.blocks, feasible.totals):
        f[block] = total / len(block)
    f = feasible.project(f)
    for _ in range(20000):
        af = a0 + b @ f
        if float(af @ f) - inverse._linear_minimum(af, feasible)[1] <= tol_gap:
            break
        y = feasible.project(f - step * af)
        f = feasible.project(f - step * (a0 + b @ y))
    gap = inverse._vi_gap(a0, b, f, feasible)
    active = inverse._active_partition(f, feasible)
    point = inverse._face_point(a0, np.diagonal(b) if diagonal else b, feasible, active)
    polished = None if point is None else inverse._validated(a0, b, feasible, active, point)
    on_face = False
    if polished is not None:
        gap_polished = inverse._vi_gap(a0, b, polished, feasible)
        if gap_polished <= max(gap, 1e-12):
            f, gap = polished, gap_polished
            on_face = np.array_equal(inverse._active_partition(f, feasible), active)
    return f, gap / scale, on_face


def _random_delay(rng):
    kind = int(rng.integers(3))
    if kind == 0:
        return BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(20, 80)),
                        float(rng.choice([2.0, 4.0])))
    if kind == 1:
        return AffineDelay(float(rng.uniform(1, 8)), float(rng.uniform(0.02, 0.2)))
    return QuadraticDelay(float(rng.uniform(1, 8)), float(rng.uniform(1e-3, 1e-2)))


def _certified_instances(count, seed):
    """Forward equilibria q = h + f on 1-3 OD units of 2-5 single-link routes,
    sometimes behind one shared link; some HDV route flows are zero, so the
    fleet can fill those routes up to the observed cap."""
    rng = np.random.default_rng(seed)
    strategies = (SELFISH, MALICIOUS, FleetStrategy(-0.5, 1.5))
    out = []
    while len(out) < count:
        shared = rng.random() < 0.4
        links = [Link("s", AffineDelay(1.0, 0.05))] if shared else []
        routes, units, h_parts = [], [], []
        for u in range(int(rng.integers(1, 4))):
            ids = []
            for j in range(int(rng.integers(2, 6))):
                links.append(Link(f"l{u}.{j}", _random_delay(rng)))
                routes.append(Route(f"r{u}.{j}", (("s",) if shared else ()) + (f"l{u}.{j}",)))
                ids.append(f"r{u}.{j}")
            q_hdv, q_crv = float(rng.uniform(10, 60)), float(rng.uniform(5, 40))
            units.append(ODUnit("O", f"D{u}", q_hdv=q_hdv, q_crv=q_crv, route_ids=tuple(ids)))
            share = rng.dirichlet(np.ones(len(ids))) * (rng.random(len(ids)) < 0.7)
            if share.sum() == 0.0:
                share[0] = 1.0
            h_parts.append(share / share.sum() * q_hdv)
        net = Network(links, routes, units=units)
        strategy = strategies[int(rng.integers(len(strategies)))]
        h = np.concatenate(h_parts)
        q = h + fleet_assign(strategy, h, net, certify=False, seed=0).f
        if net.feasible_direction_pd(q).passes:
            out.append((strategy, q, net))
    return out


@pytest.fixture
def pivot_calls(monkeypatch):
    """Every (solution, rounds, gap) the pivot (_pivot) returns."""
    calls = []
    pivot = inverse._pivot

    def recording(*args):
        out = pivot(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(inverse, "_pivot", recording)
    return calls


def _pivot_from_greedy(a0, b, feasible, tol_gap):
    """The solution of _pivot from the partition of the greedy vertex of a0,
    where certified solves start it."""
    start = inverse._active_partition(inverse._linear_minimum(a0, feasible)[0], feasible)
    return inverse._pivot(a0, b, feasible, start, tol_gap, DEFAULT_CONFIG)[0]


class TestFaceExit:
    def test_certified_solutions_match_full_run(self, pivot_calls):
        # the certified VI has one solution and a face point depends only on
        # its partition, so where the full run's polished point keeps the
        # partition it was solved on, the pivot ends on the same face and
        # returns the same bytes; elsewhere (a cap met with a zero
        # multiplier, the converged iterate still outside the active band)
        # the two agree to rounding here
        capped = on_face = 0
        for strategy, q, net in _certified_instances(50, seed=20):
            result = solve_inverse(strategy, q, net)
            assert result.certificate.theorem_applies
            f_ref, residual_ref, ref_on_face = _reference_solve(strategy, q, net)
            if ref_on_face:
                assert result.f_hat.tobytes() == f_ref.tobytes()
                assert result.residual == residual_ref
                on_face += 1
            else:
                np.testing.assert_allclose(result.f_hat, f_ref, rtol=0.0, atol=1e-12 * (1.0 + q.sum()))
                assert abs(result.residual) <= 1e-12 * (1.0 + q.sum())
            capped += bool(np.any((result.f_hat == q) & (q > 0)))
        assert capped >= 10
        assert on_face >= 35
        assert len(pivot_calls) == 50 and all(f is not None for f, *_ in pivot_calls)

    def test_route_ladder_iteration_gate(self, pivot_calls):
        # selfish round trips over R single-link BPR routes, R = 5, 20, 50, 100
        residuals = []
        for h, net in route_ladder():
            f = fleet_assign(SELFISH, h, net, certify=False).f
            result = solve_inverse(SELFISH, h + f, net)
            assert result.certificate.theorem_applies
            assert float(np.max(np.abs(result.f_hat - f))) <= 1e-6 * net.fleet_sizes()[0]
            residuals.append((result.residual, max(1.0, float(net.fleet_sizes()[0]))))
        # each certified solve is one pivot from the partition that the
        # breakpoint sweep finds, and its first round confirms it (171
        # rounds from the greedy vertex); the gap it checked is the residual's
        assert len(pivot_calls) == 12 and all(f is not None for f, *_ in pivot_calls)
        assert [rounds for _, rounds, _ in pivot_calls] == [1] * 12
        assert [gap / scale for (_, _, gap), (_, scale) in zip(pivot_calls, residuals)] == [r for r, _ in residuals]

    def test_walk_frees_a_route_the_kkt_tolerance_would_keep_at_zero(self, pivot_calls):
        # route 41 carries 0.0031 fleet vehicles, yet the face with it at 0
        # passes _validated (its multiplier is 8e-6 off, inside the 1e-6
        # relative KKT tolerance) and the gap tolerance; a pivot that stopped
        # there would end 3e-3 vehicles off
        h, net = route_ladder(instance_seed=2)[6]
        f = fleet_assign(SELFISH, h, net, certify=False).f
        result = solve_inverse(SELFISH, h + f, net)
        assert pivot_calls[0][0] is not None
        assert float(np.max(np.abs(result.f_hat - f))) <= 1e-9 * net.fleet_sizes()[0]
        assert result.residual <= 1e-12

    def test_pivot_cap_reports_unconverged(self, pivot_calls):
        # a certified solve has no fallback: a pivot cut at one round returns
        # the greedy vertex, flagged unconverged.  A connector link on every
        # route of an R = 20 ladder draw makes b non-diagonal, so the pivot
        # starts from the greedy vertex (6 rounds uncut)
        h, plain = route_ladder()[3]
        links = [Link("s", AffineDelay(1.0, 0.05))] + list(plain.links)
        routes = [Route(r.id, ("s",) + r.link_ids) for r in plain.routes]
        net = Network(links, routes, units=plain.units)
        q = h + fleet_assign(SELFISH, h, net, certify=False).f
        pivoted = solve_inverse(SELFISH, q, net)
        capped = solve_inverse(SELFISH, q, net, config=DEFAULT_CONFIG.replace(vertex_cap=1))
        assert not net.separable
        assert pivoted.converged and pivoted.certificate.theorem_applies
        assert pivot_calls[0][1] > 1 and pivot_calls[1] == (None, 1, None)
        assert not capped.converged and capped.residual > 1e-6
        feasible = FeasibleSet(blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=net.n_routes, upper=q)
        a0, _ = inverse._affine_operator(SELFISH, q, net)
        assert capped.f_hat.tobytes() == inverse._linear_minimum(a0, feasible)[0].tobytes()

    def test_uncertified_f_hat_is_the_least_norm_solution(self, pivot_calls):
        # every bundled fixture network at its observed (or forward) flow,
        # under seven strategies, at the route and the link level: an
        # uncertified inverse lists its face solutions, the one of least norm
        # in the level's flows first, and runs no other solver
        strategies = (SELFISH, ALTRUISTIC, MALICIOUS, SOCIAL, DISRUPTIVE,
                      FleetStrategy(0.5, 0.2), FleetStrategy(1.0, 0.5))
        uncertified = multi = 0
        for name in list_fixtures():
            scenario = parse_scenario(fixture_path(name))
            net = scenario.network
            if scenario.observed_route_flows is not None:
                q = scenario.observed_route_flows
            else:
                h = scenario.hdv_route_flows
                q = h + fleet_assign(scenario.strategy, h, net, certify=False).f
            for strategy in strategies:
                for result in (solve_inverse(strategy, q, net),
                               inverse_link_flows(strategy, net.route_to_link(q), net)):
                    if result.certificate.theorem_applies:
                        continue
                    uncertified += 1
                    multi += len(result.solutions) > 1
                    assert result.solutions[0] is result.f_hat
                    assert result.converged
                    norms = [float(np.linalg.norm(f)) for f in result.solutions]
                    assert norms[0] == min(norms)
        assert (uncertified, multi) == (103, 54)
        # the pivot ran only in the certified solves
        assert len(pivot_calls) == 154 - 103

    def test_least_norm_prefers_a_solution_within_the_gap_tolerance(self, monkeypatch):
        # A(f) = -1e-4 f over {f1 + f2 = 1}: the vertex (1, 0) solves the VI,
        # and (0.501, 0.499) has a gap of 1e-7, inside the face gate
        # max(tol_gap, 1e-6 scale) but above tol_gap = 1e-8; the estimate is
        # the vertex although the other point has the smaller norm
        feasible = FeasibleSet(blocks=(np.array([0, 1]),), totals=np.array([1.0]), n_routes=2, upper=np.ones(2))
        a0, b = np.zeros(2), -1e-4 * np.eye(2)
        near, vertex = np.array([0.501, 0.499]), np.array([1.0, 0.0])
        found = [(f, inverse._vi_gap(a0, b, f, feasible)) for f in (near, vertex)]
        assert 1e-8 < found[0][1] <= 1e-6
        assert found[1][1] == 0.0
        monkeypatch.setattr(inverse, "_face_solutions", lambda *args: found)
        pd = PDCertificate(passes=False, threshold=0.0, rayleigh=lambda: -1e-4)
        certificate = inverse.UniquenessCertificate(False, "not certified", pd, -1.0)
        result = inverse._recover("route", np.ones(2), a0, b, feasible, 0.0, certificate, DEFAULT_CONFIG)
        assert result.f_hat is result.solutions[0] and result.f_hat is vertex
        assert result.converged and len(result.solutions) == 2

    def test_face_enumeration_frees_the_multiplier_of_a_zero_cap_route(self):
        # route 0 carries no observed flow, so its fleet flow is pinned at 0
        # whatever it costs; it is the cheapest route here (A(f) = q - f
        # under the altruistic strategy), and a validation that held it to
        # its unit's multiplier listed no solution at all
        net = three_affine_routes(q_hdv=70.0, q_crv=30.0)
        result = solve_inverse(ALTRUISTIC, np.array([0.0, 50.0, 50.0]), net)
        assert not result.certificate.theorem_applies and result.converged
        expected = [[0.0, 15.0, 15.0], [0.0, 30.0, 0.0], [0.0, 0.0, 30.0]]
        assert sorted(f.tolist() for f in result.solutions) == sorted(expected)
        np.testing.assert_allclose(result.f_hat, expected[0], rtol=0.0, atol=1e-12)

    def test_uncertified_inverse_runs_to_gap(self, pivot_calls):
        # the whole solution set, within the gap tolerance, or none: above
        # the face cap the uncertified inverse raises, and no pivot runs
        net = three_affine_routes(q_hdv=70.0, q_crv=30.0)
        q = np.array([30.0, 30.0, 40.0])
        full = solve_inverse(ALTRUISTIC, q, net)
        assert not full.certificate.theorem_applies and full.converged
        assert len(full.solutions) > 1
        with pytest.raises(FleetModelError, match="face enumeration exceeded the cap of 1"):
            solve_inverse(ALTRUISTIC, q, net, config=DEFAULT_CONFIG.replace(vertex_cap=1))
        assert pivot_calls == []

    def test_above_the_default_cap_answers(self, pivot_calls):
        # one unit of 10 BPR routes has 28,311 lower/free/cap labelings,
        # above vertex_cap = 20,000; the multiplier windows leave 9, so the
        # uncertified inverse lists its whole solution set, the forward flow
        # among them
        rng = np.random.default_rng([10, 0])
        delays = [BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(20, 80)), 2.0) for _ in range(10)]
        net = single_od_network(delays, q_hdv=100.0, q_crv=50.0)
        h = rng.dirichlet(np.ones(10)) * 100.0
        strategy = FleetStrategy(0.5, 0.2)
        f = fleet_assign(strategy, h, net, certify=False).f
        result = solve_inverse(strategy, h + f, net)
        assert not result.certificate.theorem_applies and result.converged
        assert len(result.solutions) == 3 and pivot_calls == []
        assert min(float(np.max(np.abs(g - f))) for g in result.solutions) <= 1e-9 * 50.0
        for g in result.solutions:
            assert float(np.sum(g)) == pytest.approx(50.0)
            assert np.all(g >= 0.0) and np.all(g <= h + f)

    def test_link_inverse_face_exit(self, pivot_calls):
        net = two_od_overlap()
        a = net.route_to_link(np.array([30.0, 20.0, 25.0, 25.0]))
        result = inverse_link_flows(SELFISH, a, net)
        assert result.certificate.theorem_applies
        assert pivot_calls[0][0] is not None
        phi_ref, residual_ref = _reference_link_solve(SELFISH, a, net)
        assert float(np.max(np.abs(result.f_hat - phi_ref))) <= 1e-12 * float(np.max(phi_ref))
        assert abs(result.residual) <= 1e-12 and abs(residual_ref) <= 1e-12


@contextlib.contextmanager
def counting_walk_nodes():
    """A one-entry list counting the nodes inverse._labelings pops (runs of
    its `stack.pop()` line), traced by sys.settrace while the block runs."""
    lines, first = inspect.getsourcelines(inverse._labelings)
    pop_line = first + next(i for i, line in enumerate(lines) if "stack.pop()" in line)
    code = inverse._labelings.__code__
    nodes = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == pop_line:
            nodes[0] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        yield nodes
    finally:
        sys.settrace(previous)


class TestLabelingBudget:
    def test_the_walk_stops_at_its_node_budget(self):
        # the social inverse on ladder draw #7 (R = 50) has margin 0, so it
        # is never certified, and its face walk used to visit nodes without
        # bound; at vertex_cap = 50 it raises after at most 3 (routes + 1)
        # (cap + 1) = 3 x 51 x 51 nodes
        h, net = route_ladder()[7]
        q = h + fleet_assign(SOCIAL, h, net, certify=False).f
        with counting_walk_nodes() as nodes:
            with pytest.raises(FleetModelError, match="labeling walk of unit 0 passed its budget of 7803 nodes"):
                solve_inverse(SOCIAL, q, net, config=DEFAULT_CONFIG.replace(vertex_cap=50))
        assert 0 < nodes[0] <= 3 * 51 * 51

    @pytest.mark.parametrize("draw", [7, 9, 10, 11])
    def test_the_malicious_ladder_inverses_are_certified_without_a_walk(self, draw):
        # lam_crv = 0 makes every route's cost 0 at its cap, so an
        # uncertified inverse walks labelings past any budget; the route
        # slopes are all positive, so the slope rule certifies each one and
        # the pivot answers, even at a cap of 50 labelings
        h, net = route_ladder()[draw]
        f = fleet_assign(MALICIOUS, h, net, certify=False).f
        with counting_walk_nodes() as nodes:
            result = solve_inverse(MALICIOUS, h + f, net, config=DEFAULT_CONFIG.replace(vertex_cap=50))
        assert nodes[0] == 0
        assert result.certificate.theorem_applies and len(result.solutions) == 1
        mass = float(np.sum(net.fleet_sizes()))
        assert float(np.max(np.abs(result.f_hat - f))) <= 1e-9 * (1.0 + mass)

    def test_a_walk_within_its_budget_lists_every_labeling(self):
        # three routes capped at 1 holding a mass of 1.5: the whole walk pops
        # 34 nodes and lists 13 labelings, so at a cap of 2 (a budget of
        # 3 x 4 x 3 = 36 nodes) it ends as at the default cap, and at a cap
        # of 1 (24 nodes) it raises
        fset = FeasibleSet(blocks=(np.arange(3),), totals=np.array([1.5]), n_routes=3, upper=np.ones(3))
        with counting_walk_nodes() as nodes:
            labelings = list(inverse._labelings(fset, 0, 2))
        assert nodes[0] == 34
        assert labelings == list(inverse._labelings(fset, 0, DEFAULT_CONFIG.vertex_cap)) and len(labelings) == 13
        with pytest.raises(FleetModelError, match="labeling walk of unit 0 passed its budget of 24 nodes"):
            list(inverse._labelings(fset, 0, 1))


def _dense_monotone_vi(rng):
    """A strictly monotone affine VI a0 + b f over 1-3 units of 2-6 routes:
    b is a positive definite Gram matrix, sometimes plus a skew part, and
    most routes get a cap, some of them inside the active band."""
    sizes = rng.integers(2, 7, size=int(rng.integers(1, 4)))
    n = int(sizes.sum())
    bounds = np.cumsum(np.concatenate([[0], sizes]))
    blocks = tuple(np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
    upper = None
    if rng.random() < 0.7:
        upper = np.where(rng.random(n) < 0.8, rng.uniform(0.5, 10.0, n), 1e-9)
    caps = [float(np.sum(upper[b])) if upper is not None else 20.0 for b in blocks]
    totals = np.array([rng.uniform(0.1, 0.95) * cap for cap in caps])
    m = rng.normal(size=(n, n))
    b = m @ m.T + 0.05 * np.eye(n)
    if rng.random() < 0.3:
        skew = rng.normal(size=(n, n))
        b = b + skew - skew.T
    a0 = 10.0 * rng.normal(size=n)
    feasible = FeasibleSet(blocks=blocks, totals=totals, n_routes=n, upper=upper)
    tol_gap = 1e-8 * (1.0 + float(np.linalg.norm(a0))) * max(1.0, feasible.total_mass)
    return a0, b, feasible, tol_gap


def _separable_vi(rng):
    """An affine VI a0 + b f, b > 0 an (R,) diagonal, over 1-4 units of 1-6 routes,
    drawn on coarse grids so that breakpoints a0_r and a0_r + b_rr u_r tie
    across routes: caps of 0, finite or infinite, and fleets that are
    sometimes exactly a sum of caps (the multiplier on a breakpoint)."""
    sizes = rng.integers(1, 7, size=int(rng.integers(1, 5)))
    n = int(sizes.sum())
    bounds = np.cumsum(np.concatenate([[0], sizes]))
    blocks = tuple(np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
    a0 = rng.integers(0, 4, size=n).astype(float)
    diagonal = rng.choice([0.5, 1.0, 2.0], size=n)
    upper = rng.choice([0.0, 1.0, 2.0, 3.0, math.inf], size=n)
    totals = []
    for block in blocks:
        upper[block[0]] = max(upper[block[0]], 1.0)  # each unit holds some mass
        finite = upper[block][np.isfinite(upper[block])]
        if rng.random() < 0.4 and len(finite):
            totals.append(float(np.sum(finite[rng.random(len(finite)) < 0.5])))
        else:
            totals.append(float(rng.uniform(0.0, min(float(np.sum(upper[block])), 10.0))))
    feasible = FeasibleSet(blocks=blocks, totals=np.array(totals), n_routes=n, upper=upper)
    tol_gap = 1e-8 * (1.0 + float(np.linalg.norm(a0))) * max(1.0, feasible.total_mass)
    return a0, diagonal, feasible, tol_gap


class TestPivot:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_sweep_start_matches_the_greedy_start(self, seed):
        # the breakpoint sweep only picks where the pivot starts: from its
        # partition the pivot ends on the greedy-started answer
        a0, b, feasible, tol_gap = _separable_vi(np.random.default_rng(seed))
        greedy = _pivot_from_greedy(a0, b, feasible, tol_gap)
        start = inverse._active_partition(feasible._multiplier_point(a0, b), feasible)
        swept, _, _ = inverse._pivot(a0, b, feasible, start, tol_gap, DEFAULT_CONFIG)
        assert greedy is not None and swept is not None
        np.testing.assert_allclose(swept, greedy, rtol=0.0, atol=1e-12 * (1.0 + feasible.total_mass))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    # caps of 1e-9 holding the whole fleet, inside the fleet-wide active band
    @example(seed=782)
    @example(seed=1651)
    @example(seed=2857)
    @example(seed=8786)
    @example(seed=919322)
    # a skew part in b, on which the ratio-test walk revisited a partition
    @example(seed=12149)
    @example(seed=62339)
    def test_dense_monotone_vi_needs_no_fallback(self, seed):
        # coupled routes push several free routes past their bounds in one
        # round; the pivot still ends on the solution, the one feasible
        # point whose VI gap is within the tolerance
        a0, b, feasible, tol_gap = _dense_monotone_vi(np.random.default_rng(seed))
        f = _pivot_from_greedy(a0, b, feasible, tol_gap)
        assert f is not None
        assert feasible.contains(f, tol=1e-9)
        assert inverse._vi_gap(a0, b, f, feasible) <= tol_gap


def _single_link_network(rng, sizes):
    """Independent single-link routes, sizes[u] of them in OD unit u, and
    HDV flows drawn from a Dirichlet split of each unit's demand; about a
    third of the routes get no HDV flow, so the fleet can fill them up to
    the observed cap."""
    links, routes, units, h_parts = [], [], [], []
    for u, k in enumerate(sizes):
        ids = []
        for j in range(k):
            links.append(Link(f"l{u}.{j}", _random_delay(rng)))
            routes.append(Route(f"r{u}.{j}", (f"l{u}.{j}",)))
            ids.append(f"r{u}.{j}")
        q_hdv, q_crv = float(rng.uniform(10, 60)), float(rng.uniform(5, 40))
        units.append(ODUnit("O", f"D{u}", q_hdv=q_hdv, q_crv=q_crv, route_ids=tuple(ids)))
        share = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
        if share.sum() == 0.0:
            share[0] = 1.0
        h_parts.append(share / share.sum() * q_hdv)
    return Network(links, routes, units=units), np.concatenate(h_parts)


def _defect_instance():
    """Four BPR routes where the fixed-point search used to miss the fleet
    flow: the third strategy of (1, -0.5), (1, 0), (0.5, 0.2), each with its
    own HDV draw."""
    rng = np.random.default_rng(0)
    delays = [BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(20, 80)), 2.0) for _ in range(4)]
    net = single_od_network(delays, q_hdv=60.0, q_crv=30.0)
    for _ in range(3):
        h = rng.dirichlet(np.ones(4)) * 60.0
    return FleetStrategy(0.5, 0.2), h, net


class TestFaceEnumeration:
    def test_a_route_cheaper_than_its_multiplier_is_no_solution(self):
        # A(f) = a0 - 1e-3 f over one unit with caps (10, 10, 1) and fleet 10:
        # at (5, 5, 0) route 2 costs 1.5e-6 less than the free routes, so it
        # is no solution (its VI gap is 1.5e-6); the enumeration's old 1e-6
        # relative KKT tolerance and its gate max(tol_gap, 1e-6 * scale)
        # both let it in
        feasible = FeasibleSet(blocks=(np.arange(3),), totals=np.array([10.0]), n_routes=3,
                               upper=np.array([10.0, 10.0, 1.0]))
        a0, b = np.array([1.0, 1.0, 1.0 - 5e-3 - 1.5e-6]), -1e-3 * np.eye(3)
        assert inverse._vi_gap(a0, b, np.array([5.0, 5.0, 0.0]), feasible) == pytest.approx(1.5e-6)
        found = inverse._face_solutions(a0, np.diagonal(b), feasible, 1e-7, DEFAULT_CONFIG)
        assert sorted(f.tolist() for f, _ in found) == [[0.0, 10.0, 0.0], [4.5, 4.5, 1.0], [10.0, 0.0, 0.0]]
        assert all(gap == inverse._vi_gap(a0, b, f, feasible) == 0.0 for f, gap in found)

    def test_defect_instance_without_forward_solves(self, monkeypatch):
        strategy, h, net = _defect_instance()
        forward = fleet_assign(strategy, h, net)
        assert forward.certificate.is_local_min
        np.testing.assert_allclose(forward.f, [0.0, 20.59, 9.41, 0.0], atol=5e-3)

        def no_forward(*args, **kwargs):
            raise AssertionError("the inverse must not run the forward solver")

        monkeypatch.setattr(inverse, "_assigner", no_forward)
        result = solve_inverse(strategy, h + forward.f, net)
        assert not result.certificate.theorem_applies
        assert result.solutions[0] is result.f_hat
        distance = min(float(np.max(np.abs(f - forward.f))) for f in result.solutions)
        assert distance <= 1e-9 * 30.0

    def test_above_vertex_cap(self):
        # above the cap the solution set is not given in part: both levels
        # raise, as every other enumeration does
        strategy, h, net = _defect_instance()
        q = h + fleet_assign(strategy, h, net).f
        full = solve_inverse(strategy, q, net)
        assert len(full.solutions) > 1
        with pytest.raises(FleetModelError, match="face enumeration exceeded the cap of 1;"):
            solve_inverse(strategy, q, net, config=DEFAULT_CONFIG.replace(vertex_cap=1))

        link_net = two_od_overlap()
        a = link_net.route_to_link(np.array([30.0, 20.0, 25.0, 25.0]))
        link = inverse_link_flows(ALTRUISTIC, a, link_net)
        assert not link.certificate.theorem_applies and link.converged
        with pytest.raises(FleetModelError, match="face enumeration exceeded the cap of 1;"):
            inverse_link_flows(ALTRUISTIC, a, link_net, config=DEFAULT_CONFIG.replace(vertex_cap=1))

    def test_zero_margin_lists_the_greedy_minimum(self):
        # the operator is constant, so every minimizer of a0 . f solves the
        # VI; the face enumeration lists the greedy one, and f_hat is the
        # least-norm listed solution, as for every other uncertified VI
        rng = np.random.default_rng(5)
        for _ in range(40):
            sizes = [int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
            net, h = _single_link_network(rng, sizes)
            lam = float(rng.uniform(-1, 1))
            strategy = FleetStrategy(lam, lam)
            q = h + fleet_assign(strategy, h, net, certify=False, seed=0).f
            result = solve_inverse(strategy, q, net)
            feasible = FeasibleSet(
                blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=net.n_routes, upper=q
            )
            a0, _ = inverse._affine_operator(strategy, q, net)
            greedy, _ = inverse._linear_minimum(a0, feasible)
            solutions = np.array(result.solutions)
            assert float(np.min(np.max(np.abs(solutions - greedy), axis=1))) <= 1e-12
            norms = np.linalg.norm(solutions, axis=1)
            assert result.f_hat is result.solutions[0] and norms[0] == np.min(norms)
            assert result.converged

    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 6),
        lam_hdv=st.floats(-1.0, 1.0),
        margin=st.floats(1e-3, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_certified_walk_needs_no_fallback(self, sizes, lam_hdv, margin, seed):
        # under the certificate the pivot alone solves the VI: it returns a
        # validated face point within the gap tolerance
        rng = np.random.default_rng(seed)
        net, h = _single_link_network(rng, sizes)
        strategy = FleetStrategy(lam_hdv, lam_hdv + margin)
        forward = fleet_assign(strategy, h, net, seed=0, config=DEFAULT_CONFIG.replace(n_starts=4))
        q = h + forward.f
        pd = net.feasible_direction_pd(q)
        if not inverse._certificate(strategy.margin, pd, inverse._ROUTE_REASONS).theorem_applies:
            return
        feasible = FeasibleSet(
            blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=net.n_routes, upper=q
        )
        a0, b = inverse._affine_operator(strategy, q, net)
        b = np.diagonal(b)
        scale = max(1.0, feasible.total_mass)
        tol_gap = DEFAULT_CONFIG.tol_vi * (1.0 + float(np.linalg.norm(net.route_times(q)))) * scale
        f = _pivot_from_greedy(a0, b, feasible, tol_gap)
        assert f is not None
        active = inverse._active_partition(f, feasible)
        assert inverse._validated(a0, b, feasible, active, f).tobytes() == f.tobytes()
        assert inverse._vi_gap(a0, b, f, feasible) <= tol_gap

    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 6),
        lam_hdv=st.floats(-1.0, 1.0),
        margin=st.just(0.0) | st.floats(-1.5, -1e-3) | st.floats(1e-3, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    # the certified inverse stops on an iterate 3e-3 from the solution whose
    # partition holds a route that belongs on its lower bound
    @example(sizes=[3, 1], lam_hdv=0.0, margin=0.03125, seed=2)
    # a forward flow 2e-7 from the minimizer, which 1 / margin magnifies
    @example(sizes=[2, 3], lam_hdv=0.0, margin=0.001, seed=3)
    # the polished face pushes one route below 0 and, to hold the unit's
    # mass, another above its cap; only the first belongs on its bound
    @example(sizes=[3, 1, 1], lam_hdv=0.00390625, margin=0.00390625, seed=2)
    # subnormal weights: the separable Newton step's 1 / H overflows unless
    # H is rescaled first
    @example(sizes=[3, 2], lam_hdv=2.2250738585e-313, margin=0.0, seed=0)
    def test_certified_forward_flow_is_listed(self, sizes, lam_hdv, margin, seed):
        # over the whole (lam_hdv, lam_crv) plane except nonzero margins below
        # 1e-3: the inverse amplifies the forward solver's stationarity
        # tolerance by 1 / margin, so there the forward flow is not a
        # solution to 1e-6 (at margin 1e-7 it misses by several vehicles)
        rng = np.random.default_rng(seed)
        net, h = _single_link_network(rng, sizes)
        strategy = FleetStrategy(lam_hdv, lam_hdv + margin)
        forward = fleet_assign(strategy, h, net, seed=0, config=DEFAULT_CONFIG.replace(n_starts=4))
        result = solve_inverse(strategy, h + forward.f, net)
        if result.certificate.theorem_applies:
            assert len(result.solutions) == 1
        if not forward.certificate.is_local_min:
            return
        tol = 1e-6 * max(1.0, float(np.sum(net.fleet_sizes())))
        solutions = np.array(result.solutions)
        if strategy.margin == 0.0:
            # a constant operator: the solutions form the face of minimizers
            # of a0 . f, and the list holds every vertex of it
            weight = 1.0 + float(np.sum(net.fleet_sizes()))
            lhs = np.vstack([solutions.T, np.full(len(solutions), weight)])
            _, residual = nnls(lhs, np.append(forward.f, weight))
            assert residual <= tol
        else:
            assert float(np.min(np.max(np.abs(solutions - forward.f), axis=1))) <= tol

    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 6),
        lam_hdv=st.floats(-1.0, 1.0),
        margin=st.just(0.0) | st.floats(-1.5, -1e-3) | st.floats(1e-3, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # a route that carries no flow is the cheapest of its unit at two of
    # the three solutions; its cost must bound no multiplier
    @example(sizes=[3], lam_hdv=0.9955567715468285, margin=-1.007819025135596, seed=3819440197)
    def test_multiplier_windows_drop_no_face_solution(self, sizes, lam_hdv, margin, seed):
        # the windows prune only labelings whose face point _validated
        # rejects: on separable draws, at the route level (caps, 0 on a
        # route without HDV flow that the fleet leaves empty) and the link
        # level (no caps), the pruned enumeration lists the same arrays in
        # the same order as the walk given no windows
        rng = np.random.default_rng(seed)
        net, h = _single_link_network(rng, sizes)
        strategy = FleetStrategy(lam_hdv, lam_hdv + margin)
        q = h + fleet_assign(strategy, h, net, seed=0, config=DEFAULT_CONFIG.replace(n_starts=4), certify=False).f
        route_set = FeasibleSet(blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=net.n_routes, upper=q)
        a = net.route_to_link(q)
        a0, b = inverse._route_operator(strategy, q, net.route_times(q), net._route_gradient_form_at(a))
        tau, jac = net.link_travel_times(a), net.link_time_jacobian(a)
        link_a0 = net.incidence @ (strategy.lam_crv * tau + jac.T @ (strategy.lam_hdv * a))
        link_b = inverse._slope_operator(strategy.margin, net._route_gradient_form_at(a))
        link_set = FeasibleSet(blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=net.n_routes)
        for a0, diagonal, feasible in ((a0, b, route_set), (link_a0, link_b, link_set)):
            assert diagonal.ndim == 1
            tol_gap = DEFAULT_CONFIG.tol_vi * max(1.0, feasible.total_mass)
            pruned = inverse._face_solutions(a0, diagonal, feasible, tol_gap, DEFAULT_CONFIG)
            with mock.patch.object(inverse, "_multiplier_windows", return_value=None):
                walked = inverse._face_solutions(a0, diagonal, feasible, tol_gap, DEFAULT_CONFIG)
            assert [(f.tobytes(), gap) for f, gap in pruned] == [(f.tobytes(), gap) for f, gap in walked]


class TestValidated:
    """_validated's own checks, past the bounds and the complementarity
    test: a face point off a solved face system can miss its unit's sum or
    its free routes' common cost, and neither of the other tests sees it."""

    feasible = FeasibleSet(blocks=(np.array([0, 1]),), totals=np.array([1.0]), n_routes=2, upper=np.ones(2))
    free = np.zeros(2, dtype=int)
    b = np.eye(2)

    def _passes_the_other_tests(self, a0, candidate):
        assert not np.any(inverse._bound_violations(candidate, self.feasible))
        a_val = a0 + self.b @ candidate
        assert not np.any(inverse._complementarity(a_val, candidate, self.feasible, self.free)[0])

    def test_refuses_a_unit_sum_off_its_total(self):
        # both routes free at equal cost 0.3, but they carry 0.6 of the
        # unit's 1.0
        a0, candidate = np.zeros(2), np.array([0.3, 0.3])
        self._passes_the_other_tests(a0, candidate)
        assert inverse._validated(a0, self.b, self.feasible, self.free, candidate) is None
        held = np.array([0.5, 0.5])
        assert inverse._validated(a0, self.b, self.feasible, self.free, held).tobytes() == held.tobytes()

    def test_refuses_unequal_free_costs(self):
        # the unit's sum holds, but its free routes cost 0.7 and 0.3
        a0, candidate = np.zeros(2), np.array([0.7, 0.3])
        self._passes_the_other_tests(a0, candidate)
        assert inverse._validated(a0, self.b, self.feasible, self.free, candidate) is None
        balanced = np.array([-0.2, 0.2])
        validated = inverse._validated(balanced, self.b, self.feasible, self.free, candidate)
        assert validated.tobytes() == candidate.tobytes()

"""Inverse assignment: VI solver, certificates, fibers, stability, discrete."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from fleet_inverse import (
    DEFAULT_CONFIG,
    AffineDelay,
    BPRDelay,
    FeasibleSet,
    FleetModelError,
    FleetStrategy,
    InfeasibleProblemError,
    Link,
    Network,
    NotRealisableError,
    ODUnit,
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
    route_ladder,
    symmetric_quadratic,
    three_affine_routes,
    two_od_overlap,
)
from fleet_inverse import inverse

SELFISH = FleetStrategy.preset("selfish")
ALTRUISTIC = FleetStrategy.preset("altruistic")
MALICIOUS = FleetStrategy.preset("malicious")
SOCIAL = FleetStrategy.preset("social")
DISRUPTIVE = FleetStrategy.preset("disruptive")


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
        fset = FeasibleSet.from_network(net)
        pair_a = (np.array([30.0, 0.0, 40.0]), np.array([0.0, 30.0, 0.0]))
        pair_b = (np.array([0.0, 30.0, 40.0]), np.array([30.0, 0.0, 0.0]))
        for h, f in (pair_a, pair_b):
            np.testing.assert_allclose(h + f, q)
            cert = certify_local_min(ALTRUISTIC, h, f, net, fset)
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
    labeling, the KKT system x_free = e_free^T lam, e x = rhs with the other
    coordinates on their bounds, solved by pseudo-inverse (lam need not be
    unique); the feasible solution of least norm is the minimizer."""
    m, n = e.shape
    labels = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
    free = labels == 0
    bound = np.where(labels > 0, upper, 0.0)
    kkt = np.zeros((len(labels), n + m, n + m))
    kkt[:, :n, :n] = np.eye(n)
    kkt[:, :n, n:] = np.where(free[:, :, None], -e.T[None], 0.0)
    kkt[:, n:, :n] = e
    target = np.concatenate([np.where(free, 0.0, bound), np.broadcast_to(rhs, (len(labels), m))], axis=1)
    x = (np.linalg.pinv(kkt) @ target[:, :, None])[:, :n, 0]
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
        # Dykstra's cycles could leave x in place while it was still outside
        # the box; stopping there refused 9 of these 200 flows (the first at
        # draw 7, residual 0.705) although f itself lies in the fiber
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
        for draw in range(8):
            f = rng.dirichlet(np.ones(8)) * 40.0
            upper = f + rng.uniform(0.0, 3.0, 8)
            if draw not in (0, 1, 7):  # draw 7 is the first the early stop refused
                continue
            fiber = route_fiber(net, net.route_to_link(f), upper=upper)
            expected = _min_norm_by_kkt_enumeration(e, e @ f, upper)
            np.testing.assert_allclose(fiber.representative, expected, rtol=0.0, atol=1e-8)


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

    def test_rejects_fractional_observation(self):
        net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
        with pytest.raises(ValueError):
            discrete_recover(SELFISH, np.array([50.5, 49.5]), net)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_fleet_sizes(self, fig_two_route, net_overlap, bad):
        # an infinite size used to pass the capacity check and return f = 0
        with pytest.raises(InfeasibleProblemError, match="finite"):
            solve_inverse(SELFISH, np.array([60.0, 40.0]), fig_two_route, sizes=[bad])
        a = np.array([200.0, 200.0, 200.0, 200.0])
        with pytest.raises(InfeasibleProblemError, match="finite"):
            inverse_link_flows(SELFISH, a, net_overlap, sizes=[bad])


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
    """The certified route VI solved by the extragradient alone: iterates
    until the gap is within tolerance, then one active-set polish.  Also
    reports whether it returns the polished face point and that point keeps
    the partition it was solved on.  The polish solves the face as
    _solve_affine_vi does, in closed form where b is diagonal."""
    config = DEFAULT_CONFIG
    feasible = FeasibleSet(
        blocks=network.unit_blocks(), totals=network.fleet_sizes(),
        n_routes=network.n_routes, upper=q,
    )
    grad = network.route_gradient(q)
    a0 = strategy.lam_crv * network.route_times(q) + grad.T @ (strategy.lam_hdv * q)
    b = strategy.margin * grad.T
    scale = max(1.0, feasible.total_mass)
    tol_gap = config.tol_vi * (1.0 + float(np.linalg.norm(network.route_times(q)))) * scale
    step = config.extragradient_safety / float(np.linalg.norm(b, 2))
    f = feasible.project(inverse._uniform_start(feasible))
    for _ in range(config.max_vi_iter):
        af = a0 + b @ f
        if float(af @ f) - inverse._linear_minimum(af, feasible)[1] <= tol_gap:
            break
        y = feasible.project(f - step * af)
        f = feasible.project(f - step * (a0 + b @ y))
    gap = inverse._vi_gap(a0, b, f, feasible)
    active = inverse._active_partition(f, feasible)
    point = inverse._face_point(a0, b, feasible, active, inverse._diagonal_of(b))
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
def extragradient_calls(monkeypatch):
    """Every (f, iterations, converged) _extragradient returns."""
    calls = []
    extragradient = inverse._extragradient

    def recording(*args):
        out = extragradient(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(inverse, "_extragradient", recording)
    return calls


@pytest.fixture
def walk_calls(monkeypatch):
    """Every (solution, rounds) _active_set_walk returns."""
    calls = []
    walk = inverse._active_set_walk

    def recording(*args):
        out = walk(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(inverse, "_active_set_walk", recording)
    return calls


class TestFaceExit:
    def test_certified_solutions_match_full_run(self, extragradient_calls, walk_calls):
        # the certified VI has one solution and a face point depends only on
        # its partition, so where the full run's polished point keeps the
        # partition it was solved on, the walk ends on the same face and
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
        assert extragradient_calls == []
        assert len(walk_calls) == 50 and all(f is not None for f, _ in walk_calls)

    def test_route_ladder_iteration_gate(self, extragradient_calls, walk_calls):
        # selfish round trips over R single-link BPR routes, R = 5, 20, 50, 100
        for h, net in route_ladder():
            f = fleet_assign(SELFISH, h, net, certify=False).f
            result = solve_inverse(SELFISH, h + f, net)
            assert result.certificate.theorem_applies
            assert float(np.max(np.abs(result.f_hat - f))) <= 1e-6 * net.fleet_sizes()[0]
        # 17,009 extragradient iterations when every solve runs to the gap
        # tolerance, 3,421 when it exits on the first validated face
        assert extragradient_calls == []
        assert len(walk_calls) == 12 and all(f is not None for f, _ in walk_calls)
        assert sum(rounds for _, rounds in walk_calls) <= 195  # 151 now

    def test_walk_frees_a_route_the_kkt_tolerance_would_keep_at_zero(self, walk_calls):
        # route 41 carries 0.0031 fleet vehicles, yet the face with it at 0
        # passes _validated (its multiplier is 8e-6 off, inside the 1e-6
        # relative KKT tolerance) and the gap tolerance; a walk that stopped
        # there would end 3e-3 vehicles off
        h, net = route_ladder(instance_seed=2)[6]
        f = fleet_assign(SELFISH, h, net, certify=False).f
        result = solve_inverse(SELFISH, h + f, net)
        assert walk_calls[0][0] is not None
        assert float(np.max(np.abs(result.f_hat - f))) <= 1e-9 * net.fleet_sizes()[0]
        assert result.residual <= 1e-12

    def test_walk_cap_falls_back_to_the_extragradient(self, extragradient_calls, walk_calls):
        h, net = route_ladder()[3]
        q = h + fleet_assign(SELFISH, h, net, certify=False).f
        walked = solve_inverse(SELFISH, q, net)
        capped = solve_inverse(SELFISH, q, net, config=DEFAULT_CONFIG.replace(vertex_cap=1))
        assert walk_calls[1][0] is None and len(extragradient_calls) == 1
        assert capped.converged and capped.residual <= 1e-12
        assert float(np.max(np.abs(capped.f_hat - walked.f_hat))) <= 1e-9 * net.fleet_sizes()[0]

    def test_uncertified_inverse_runs_to_gap(self, extragradient_calls, walk_calls):
        net = three_affine_routes(q_hdv=70.0, q_crv=30.0)
        result = solve_inverse(ALTRUISTIC, np.array([30.0, 30.0, 40.0]), net)
        assert not result.certificate.theorem_applies
        assert len(extragradient_calls) == 1 and walk_calls == []

    def test_link_inverse_face_exit(self, monkeypatch, extragradient_calls, walk_calls):
        net = two_od_overlap()
        a = net.route_to_link(np.array([30.0, 20.0, 25.0, 25.0]))
        result = inverse_link_flows(SELFISH, a, net)
        assert result.certificate.theorem_applies
        assert extragradient_calls == [] and walk_calls[0][0] is not None
        monkeypatch.setattr(inverse, "_active_set_walk", lambda *args: (None, 0))
        full_run = inverse_link_flows(SELFISH, a, net)
        assert len(extragradient_calls) == 1
        assert float(np.max(np.abs(result.f_hat - full_run.f_hat))) <= 1e-12 * float(np.max(full_run.f_hat))
        assert abs(result.residual) <= 1e-12 and abs(full_run.residual) <= 1e-12


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


class TestActiveSetWalk:
    def test_first_crossing_is_the_ratio_test(self):
        # route 1 is pushed furthest past 0, but the segment from x to the
        # face point reaches route 0's bound first
        feasible = FeasibleSet(blocks=(np.arange(3),), totals=np.array([2.0]), n_routes=3)
        x = np.array([0.2, 1.8, 0.0])
        point = np.array([-0.1, -0.5, 2.6])
        route, label, step = inverse._first_crossing(x, point, np.zeros(3, dtype=int), feasible)
        assert (route, label) == (0, -1)
        assert step == pytest.approx(0.2 / 0.3)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_dense_monotone_vi_needs_no_fallback(self, seed):
        # coupled routes push several free routes past their bounds in one
        # round; the walk still ends on the solution, the one feasible
        # point whose VI gap is within the tolerance
        a0, b, feasible, tol_gap = _dense_monotone_vi(np.random.default_rng(seed))
        f, _ = inverse._active_set_walk(a0, b, feasible, tol_gap, DEFAULT_CONFIG)
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
    def test_defect_instance_without_forward_solves(self, monkeypatch):
        strategy, h, net = _defect_instance()
        forward = fleet_assign(strategy, h, net)
        assert forward.certificate.is_local_min
        np.testing.assert_allclose(forward.f, [0.0, 20.59, 9.41, 0.0], atol=5e-3)

        def no_forward(*args, **kwargs):
            raise AssertionError("the inverse must not run the forward solver")

        monkeypatch.setattr(inverse, "fleet_assign", no_forward)
        result = solve_inverse(strategy, h + forward.f, net)
        assert not result.certificate.theorem_applies
        assert result.exhaustive
        assert result.solutions[0] is result.f_hat
        distance = min(float(np.max(np.abs(f - forward.f))) for f in result.solutions)
        assert distance <= 1e-9 * 30.0

    def test_above_vertex_cap(self):
        strategy, h, net = _defect_instance()
        q = h + fleet_assign(strategy, h, net).f
        full = solve_inverse(strategy, q, net)
        assert len(full.solutions) > 1
        capped = solve_inverse(strategy, q, net, config=DEFAULT_CONFIG.replace(vertex_cap=10))
        assert not capped.exhaustive
        assert capped.solutions == (capped.f_hat,)
        assert capped.f_hat.tobytes() == full.f_hat.tobytes()
        assert capped.residual == full.residual

        link_net = two_od_overlap()
        a = link_net.route_to_link(np.array([30.0, 20.0, 25.0, 25.0]))
        link = inverse_link_flows(ALTRUISTIC, a, link_net)
        assert link.exhaustive
        capped = inverse_link_flows(ALTRUISTIC, a, link_net, config=DEFAULT_CONFIG.replace(vertex_cap=1))
        assert not capped.exhaustive
        assert capped.solutions == (capped.f_hat,)

    def test_zero_margin_returns_the_greedy_minimum(self):
        # the operator is constant, so the extragradient's first point, the
        # greedy minimizer of a0 . f, is exact and the polish must not move it
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
            assert result.f_hat.tobytes() == greedy.tobytes()
            assert result.residual == 0.0 and result.converged

    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 6),
        lam_hdv=st.floats(-1.0, 1.0),
        margin=st.floats(1e-3, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_certified_walk_needs_no_fallback(self, sizes, lam_hdv, margin, seed):
        # under the certificate the active-set walk alone solves the VI: it
        # returns a validated face point within the gap tolerance
        rng = np.random.default_rng(seed)
        net, h = _single_link_network(rng, sizes)
        strategy = FleetStrategy(lam_hdv, lam_hdv + margin)
        forward = fleet_assign(strategy, h, net, seed=0, config=DEFAULT_CONFIG.replace(n_starts=4))
        q = h + forward.f
        if not inverse._certificate(strategy, q, net, DEFAULT_CONFIG).theorem_applies:
            return
        feasible = FeasibleSet(
            blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=net.n_routes, upper=q
        )
        a0, b = inverse._affine_operator(strategy, q, net)
        scale = max(1.0, feasible.total_mass)
        tol_gap = DEFAULT_CONFIG.tol_vi * (1.0 + float(np.linalg.norm(net.route_times(q)))) * scale
        f, _ = inverse._active_set_walk(a0, b, feasible, tol_gap, DEFAULT_CONFIG)
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
        assert result.exhaustive
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

"""Fleet objective evaluation, gradient, and convexity classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_inverse import (
    AffineDelay,
    BPRDelay,
    CrossAffineDelay,
    FleetStrategy,
    ConvexityKind,
    Link,
    Network,
    ODUnit,
    QuadraticDelay,
    Route,
    UnsupportedDelayError,
    WebsterDelay,
    classify_convexity,
    eval_objective,
    objective_gradient_in_f,
    objective_hessian_in_f,
    single_od_network,
)
from fleet_inverse.objective import (
    PRESETS, _curvature_data, _evaluate, _gradient_in_f, _hessian_in_f, link_curvature_sign,
)
from conftest import (
    asymmetric_two_route,
    cross_dependent_two_route,
    eval_objective_link_form,
    link_second_derivatives,
    local_convexity_at,
    overlap_network,
    symmetric_quadratic,
    three_affine_routes,
    two_od_overlap,
)

SELFISH = FleetStrategy.preset("selfish")
ALTRUISTIC = FleetStrategy.preset("altruistic")
MALICIOUS = FleetStrategy.preset("malicious")
SOCIAL = FleetStrategy.preset("social")


class TestPresets:
    def test_values(self):
        assert (SELFISH.lam_hdv, SELFISH.lam_crv) == (0.0, 1.0)
        assert (ALTRUISTIC.lam_hdv, ALTRUISTIC.lam_crv) == (1.0, 0.0)
        assert (MALICIOUS.lam_hdv, MALICIOUS.lam_crv) == (-1.0, 0.0)
        assert (SOCIAL.lam_hdv, SOCIAL.lam_crv) == (1.0, 1.0)
        disruptive = FleetStrategy.preset("disruptive")
        assert (disruptive.lam_hdv, disruptive.lam_crv) == (-1.0, 1.0)
        assert disruptive.margin == 2.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            FleetStrategy.preset("benevolent")


class TestEvalObjective:
    def test_selfish_value(self, fig_two_route):
        # 50 fleet vehicles on route 1 at total flow 60: 50 * 12.2
        value = eval_objective(SELFISH, [10.0, 40.0], [50.0, 0.0], fig_two_route)
        assert value == pytest.approx(610.0, abs=1e-12)

    def test_zero_strategy(self, fig_two_route):
        zero = FleetStrategy(0.0, 0.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            h = rng.uniform(0, 40, 2)
            f = rng.uniform(0, 40, 2)
            assert eval_objective(zero, h, f, fig_two_route) == 0.0

    def test_altruistic_prefers_empty_routes(self):
        net = three_affine_routes()
        h = np.array([30.0, 0.0, 40.0])
        spare = eval_objective(ALTRUISTIC, h, np.array([0.0, 30.0, 0.0]), net)
        crowding = eval_objective(ALTRUISTIC, h, np.array([30.0, 0.0, 0.0]), net)
        base = float(h @ net.route_times(h))
        assert spare == pytest.approx(base, rel=1e-12)
        assert crowding > spare

    def test_route_and_link_forms_agree(self):
        rng = np.random.default_rng(3)
        net = overlap_network()
        for _ in range(1000):
            h = rng.uniform(0.0, 100.0, 4)
            f = rng.uniform(0.0, 100.0, 4)
            s = FleetStrategy(rng.uniform(-1, 1), rng.uniform(-1, 1))
            route_form = eval_objective(s, h, f, net)
            link_form = eval_objective_link_form(s, h, f, net)
            assert link_form == pytest.approx(route_form, rel=1e-10, abs=1e-10)

    def test_link_flow_invariance(self):
        # swapping route flows along a null direction leaves the value fixed
        net = overlap_network()
        rng = np.random.default_rng(4)
        v = np.array([1.0, -1.0, -1.0, 1.0])
        for _ in range(50):
            h = rng.uniform(5.0, 50.0, 4)
            f = rng.uniform(5.0, 50.0, 4)
            s = FleetStrategy(rng.uniform(-1, 1), rng.uniform(-1, 1))
            eps_h, eps_f = rng.uniform(-2, 2), rng.uniform(-2, 2)
            base = eval_objective(s, h, f, net)
            moved = eval_objective(s, h + eps_h * v, f + eps_f * v, net)
            assert moved == pytest.approx(base, rel=1e-10)


class TestGradient:
    def test_zero_strategy(self, fig_two_route):
        g = objective_gradient_in_f(FleetStrategy(0.0, 0.0), [10.0, 40.0], [25.0, 25.0], fig_two_route)
        np.testing.assert_allclose(g, 0.0)

    def test_matches_finite_differences(self, fig_two_route):
        h = np.array([10.0, 40.0])
        f = np.array([25.0, 25.0])
        grad = objective_gradient_in_f(SELFISH, h, f, fig_two_route)
        eps = 1e-6
        for r in range(2):
            fp, fm = f.copy(), f.copy()
            fp[r] += eps
            fm[r] -= eps
            fd = (
                eval_objective(SELFISH, h, fp, fig_two_route)
                - eval_objective(SELFISH, h, fm, fig_two_route)
            ) / (2 * eps)
            assert grad[r] == pytest.approx(fd, rel=1e-6)

    def test_social_gradient_is_marginal_cost(self, fig_two_route):
        h = np.array([10.0, 40.0])
        f = np.array([20.0, 30.0])
        q = h + f
        grad = objective_gradient_in_f(SOCIAL, h, f, fig_two_route)
        marginal = fig_two_route.route_times(q) + fig_two_route.route_gradient(q).T @ q
        np.testing.assert_allclose(grad, marginal, rtol=1e-12)


def _webster_network():
    return single_od_network(
        [WebsterDelay(0.5, 1.0, 60.0), AffineDelay(5.0, 10.0)], q_hdv=0.5, q_crv=0.3
    )


def _evaluation_instance(rng, topology: str):
    """(network, h, f) with positive flows: separable (each route on links
    of its own), overlapping (routes on random shared link sets), Webster
    (overlapping, with signalized links and link flows below saturation)
    or cross-affine (the two-route cross-dependent network)."""
    if topology == "cross_affine":
        net = cross_dependent_two_route(float(rng.uniform(-0.9, 0.9)), float(rng.uniform(-0.9, 0.9)))
    else:
        n_routes = int(rng.integers(2, 6))
        if topology == "separable":
            sets = [[f"{r}.{i}" for i in range(int(rng.integers(1, 4)))] for r in range(n_routes)]
        else:
            n_links = int(rng.integers(2, 6))
            sets = [[f"{i}" for i in np.flatnonzero(rng.random(n_links) < 0.5)] or ["0"] for _ in range(n_routes)]
        ids = sorted({link for links in sets for link in links})

        def delay():
            kind = int(rng.integers(4 if topology == "webster" else 3))
            if kind == 0:
                return BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(0.5, 80)), float(rng.choice([1.0, 2.0, 4.0])))
            if kind == 1:
                return AffineDelay(float(rng.uniform(1, 8)), float(rng.uniform(0.02, 2.0)))
            if kind == 2:
                return QuadraticDelay(float(rng.uniform(1, 8)), float(rng.uniform(1e-3, 1.0)))
            return WebsterDelay(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.5, 2.0)), float(rng.uniform(30, 120)))

        routes = [Route(f"r{r}", tuple(links)) for r, links in enumerate(sets)]
        unit = ODUnit("O", "D", q_hdv=1.0, q_crv=1.0, route_ids=tuple(route.id for route in routes))
        net = Network([Link(i, delay()) for i in ids], routes, units=[unit])
    h, f = rng.uniform(0.0, 50.0, net.n_routes), rng.uniform(0.0, 50.0, net.n_routes) * (rng.random(net.n_routes) < 0.7)
    if topology == "webster":
        scale = 0.9 / float(np.max(net.route_to_link(h + f)))
        h, f = h * scale, f * scale
    return net, h, f


class TestSharedEvaluation:
    @given(
        topology=st.sampled_from(["separable", "overlapping", "webster", "cross_affine"]),
        lam_hdv=st.floats(-1.5, 1.5),
        lam_crv=st.floats(-1.5, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_evaluation_reproduces_every_formula(self, topology, lam_hdv, lam_crv, seed):
        # the descent's evaluated point (_evaluate's point, then the
        # gradient and the Hessian built from its link flows, weights and
        # times) and the public calls all give, bit for bit, the objective,
        # gradient and Hessian formed from the network's own layer at q =
        # h + f; the signs of the weights are drawn independently, so mixed
        # signs included
        strategy = FleetStrategy(lam_hdv, lam_crv)
        net, h, f = _evaluation_instance(np.random.default_rng(seed), topology)
        q, w = h + f, lam_hdv * h + lam_crv * f
        t = net.route_times(q)
        value = float(np.vecdot(w, t))
        curvature = net.route_to_link(w) * link_second_derivatives(net, net.route_to_link(q))
        n, matrix = net.incidence, net.route_gradient(q)
        dense = lam_crv * (matrix + matrix.T) + (n * curvature) @ n.T
        if net.separable:
            slopes = n @ net.delay_table.derivatives(net.route_to_link(q))
            grad, hess = lam_crv * t + slopes * w, 2.0 * lam_crv * slopes + n @ curvature
        else:
            grad, hess = lam_crv * t + matrix.T @ w, dense

        point = _evaluate(strategy, h, f, net)
        descent_grad, route_grad = _gradient_in_f(strategy, point, net)
        got = [
            point.value, point.t, descent_grad, _hessian_in_f(strategy, point, net, route_grad),
            eval_objective(strategy, h, f, net), objective_gradient_in_f(strategy, h, f, net),
            objective_hessian_in_f(strategy, h, f, net),
        ]
        want = [value, t, grad, hess, value, grad, dense]
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]


class TestObjectiveHessian:
    # (network, HDV flow, fleet flow) at interior points; Webster flows stay
    # below saturation
    CASES = {
        "bpr4": (
            lambda: single_od_network(
                [BPRDelay(1.0, 1.0, 10.0, 4.0), BPRDelay(2.0, 1.0, 12.0, 4.0)], q_hdv=30, q_crv=12
            ),
            [18.0, 12.0],
            [5.0, 7.0],
        ),
        "bpr_overlap": (overlap_network, [80.0, 70.0, 90.0, 60.0], [30.0, 20.0, 25.0, 25.0]),
        "quadratic": (symmetric_quadratic, [20.0, 30.0], [35.0, 15.0]),
        "webster": (_webster_network, [0.3, 0.2], [0.13, 0.17]),
        "cross_affine": (lambda: cross_dependent_two_route(2.0, 1.0), [25.0, 25.0], [8.0, 12.0]),
        "two_unit": (two_od_overlap, [12.0, 18.0, 20.0, 10.0], [9.0, 11.0, 4.0, 16.0]),
    }

    @pytest.mark.parametrize("preset", ["selfish", "altruistic", "malicious", "social", "disruptive"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_central_differences_of_gradient(self, case, preset):
        build, h, f = self.CASES[case]
        net = build()
        strategy = FleetStrategy.preset(preset)
        h, f = np.array(h), np.array(f)
        hess = objective_hessian_in_f(strategy, h, f, net)
        eps = 1e-6 * max(1.0, float(np.max(f)))
        fd = np.zeros_like(hess)
        for j in range(len(f)):
            step = np.zeros_like(f)
            step[j] = eps
            fd[:, j] = (
                objective_gradient_in_f(strategy, h, f + step, net)
                - objective_gradient_in_f(strategy, h, f - step, net)
            ) / (2 * eps)
        np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-12 * np.max(np.abs(hess)))
        np.testing.assert_allclose(hess, fd, rtol=0, atol=1e-6 * max(1.0, np.max(np.abs(fd))))

    def test_quadratic_network_hessian_is_constant(self):
        net = cross_dependent_two_route(0.5, 0.5)
        a = objective_hessian_in_f(SELFISH, np.array([10.0, 5.0]), np.array([3.0, 17.0]), net)
        b = objective_hessian_in_f(SELFISH, np.zeros(2), np.zeros(2), net)
        np.testing.assert_array_equal(a, b)

    def test_links_without_flow_add_no_curvature(self):
        # tau'' of a BPR power below 2 is unbounded at zero flow, where the
        # weighted link flow vanishes; the Hessian stays finite
        net = single_od_network([BPRDelay(1.0, 1.0, 10.0, 1.5)] * 2, q_hdv=10, q_crv=5)
        hess = objective_hessian_in_f(SELFISH, np.array([10.0, 0.0]), np.array([5.0, 0.0]), net)
        assert np.all(np.isfinite(hess))
        assert hess[1, 1] == 0.0


class TestClassify:
    def test_disruptive_on_quadratic(self):
        net = single_od_network([QuadraticDelay(1, 1)] * 2, q_hdv=1, q_crv=1)
        assert classify_convexity(FleetStrategy(-1.0, 1.0), net).kind is ConvexityKind.CONVEX_EVERYWHERE

    def test_weak_disruptive_indefinite(self):
        net = single_od_network([QuadraticDelay(1, 1)] * 2, q_hdv=1, q_crv=1)
        assert classify_convexity(FleetStrategy(-1.0, 0.25), net).kind is ConvexityKind.INDEFINITE

    def test_malicious_concave(self, fig_two_route):
        assert classify_convexity(MALICIOUS, fig_two_route).kind is ConvexityKind.CONCAVE_EVERYWHERE

    def test_non_negative_pairs_convex(self, fig_two_route):
        for s in (SELFISH, ALTRUISTIC, SOCIAL):
            assert classify_convexity(s, fig_two_route).kind is ConvexityKind.CONVEX_EVERYWHERE

    def test_heterogeneous_links_most_conservative(self):
        # gamma 2 passes at lam = (-1, 0.6) but gamma 4 needs lam_crv > 1.5
        net = single_od_network(
            [QuadraticDelay(1, 1), BPRDelay(1, 1, 10, 4)], q_hdv=1, q_crv=1
        )
        assert classify_convexity(FleetStrategy(-1.0, 0.6), net).kind is ConvexityKind.INDEFINITE
        assert classify_convexity(FleetStrategy(-1.0, 1.6), net).kind is ConvexityKind.CONVEX_EVERYWHERE

    def test_webster_by_structure(self):
        # Webster delays are convex and nondecreasing: sign-definite weights
        # keep their sign in every link's curvature, mixed signs do not
        net = single_od_network(
            [WebsterDelay(0.5, 1.0, 60.0), AffineDelay(1, 1)], q_hdv=0.4, q_crv=0.2
        )
        selfish = classify_convexity(SELFISH, net)
        assert selfish.kind is ConvexityKind.CONVEX_EVERYWHERE
        assert selfish.per_link == ()
        assert classify_convexity(MALICIOUS, net).kind is ConvexityKind.CONCAVE_EVERYWHERE
        disruptive = FleetStrategy.preset("disruptive")
        assert classify_convexity(disruptive, net).kind is ConvexityKind.INDEFINITE
        # the per-link threshold form stays limited to the power family
        with pytest.raises(UnsupportedDelayError):
            local_convexity_at(SELFISH, np.array([0.2, 0.2]), np.array([0.1, 0.1]), net)

    def test_classifier_against_curvature_signs(self):
        # when the classifier reports convex/concave everywhere, every sampled
        # per-link second derivative sign must agree
        rng = np.random.default_rng(12)
        for _ in range(200):
            gamma = float(rng.choice([1.0, 2.0, 3.0, 4.0]))
            if gamma == 1.0:
                net = single_od_network([AffineDelay(1.0, 1.0)], q_hdv=1, q_crv=1)
            elif gamma == 2.0:
                net = single_od_network([QuadraticDelay(1.0, 1.0)], q_hdv=1, q_crv=1)
            else:
                net = single_od_network([BPRDelay(1.0, 1.0, 10.0, gamma)], q_hdv=1, q_crv=1)
            s = FleetStrategy(rng.uniform(-1, 1), rng.uniform(-1, 1))
            kind = classify_convexity(s, net).kind
            rows = _curvature_data(s, net)
            signs = [
                link_curvature_sign(rows[0], float(eta), float(phi))
                for eta, phi in rng.uniform(0.01, 10.0, size=(20, 2))
            ]
            if kind is ConvexityKind.CONVEX_EVERYWHERE:
                assert all(v >= 0 for v in signs)
            elif kind is ConvexityKind.CONCAVE_EVERYWHERE:
                assert all(v <= 0 for v in signs)


def _boundary_networks() -> dict:
    """Two-route networks at the classification rules' boundaries: BPR powers
    below, at and above 1, each alone, with a Webster link and with a
    cross-affine link, and the other kinds with a cross-affine link."""
    webster = WebsterDelay(0.5, 100.0, 60.0)
    cross = CrossAffineDelay(1.0, 0.5, {"l0": 0.1})
    delays = {}
    for p in (0.5, 1.0, 2.0):
        bpr = BPRDelay(5.0, 1.0, 50.0, p)
        delays[f"bpr{p}"] = [bpr, BPRDelay(15.0, 1.0, 80.0, p)]
        delays[f"bpr{p}+webster"] = [bpr, webster]
        delays[f"bpr{p}+cross"] = [bpr, cross]
    delays["affine+cross"] = [AffineDelay(1.0, 0.5), cross]
    delays["quadratic+cross"] = [QuadraticDelay(1.0, 0.01), cross]
    return {name: single_od_network(d, q_hdv=50.0, q_crv=50.0) for name, d in delays.items()}


CONVEX, CONCAVE, INDEFINITE = "ConvexEverywhere", "ConcaveEverywhere", "Indefinite"
# label per preset, in PRESETS order (selfish, altruistic, malicious, social,
# disruptive)
BOUNDARY_TABLE = {
    "bpr0.5": (INDEFINITE,) * 5,
    "bpr0.5+webster": (INDEFINITE,) * 5,
    "bpr0.5+cross": (INDEFINITE,) * 5,
    "bpr1.0": (CONVEX, CONVEX, CONCAVE, CONVEX, CONVEX),
    "bpr1.0+webster": (CONVEX, CONVEX, CONCAVE, CONVEX, INDEFINITE),
    # a BPR link of power 1 is not affine-flagged: no quadratic-objective rule
    "bpr1.0+cross": (INDEFINITE,) * 5,
    "bpr2.0": (CONVEX, CONVEX, CONCAVE, CONVEX, CONVEX),
    "bpr2.0+webster": (CONVEX, CONVEX, CONCAVE, CONVEX, INDEFINITE),
    "bpr2.0+cross": (INDEFINITE,) * 5,
    "affine+cross": (CONVEX, CONCAVE, CONCAVE, CONVEX, CONVEX),
    "quadratic+cross": (INDEFINITE,) * 5,
}


class TestClassificationTable:
    @pytest.mark.parametrize("name", BOUNDARY_TABLE)
    def test_presets_at_rule_boundaries(self, name):
        net = _boundary_networks()[name]
        classes = [classify_convexity(s, net) for s in PRESETS.values()]
        assert tuple(c.label for c in classes) == BOUNDARY_TABLE[name]
        # only the power-family rule reports per-link curvature data
        power_family = name in ("bpr1.0", "bpr2.0")
        assert all(len(c.per_link) == (2 if power_family else 0) for c in classes)


class TestLocalConvexity:
    def test_threshold_and_signs_gamma4(self):
        net = single_od_network([BPRDelay(1.0, 1.0, 10.0, 4.0)], q_hdv=1, q_crv=1)
        s = FleetStrategy(-1.0, 1.0)
        rows = local_convexity_at(s, np.array([1.0]), np.array([0.5]), net)
        assert rows[0].threshold == pytest.approx(0.2)
        assert rows[0].convex and rows[0].strict
        rows = local_convexity_at(s, np.array([1.0]), np.array([0.1]), net)
        assert not rows[0].convex and rows[0].sign == -1

    def test_strong_margin_convex_for_positive_fleet_flow(self):
        # (-1, 0.25) on gamma 4: curvature sign is (0.5 - 3)*eta + 1.25*phi
        net = single_od_network([BPRDelay(1.0, 1.0, 10.0, 4.0)], q_hdv=1, q_crv=1)
        s = FleetStrategy(-1.0, 0.25)
        rows = local_convexity_at(s, np.array([1.0]), np.array([3.0]), net)
        assert rows[0].convex
        rows = local_convexity_at(s, np.array([1.0]), np.array([1.0]), net)
        assert rows[0].sign == -1  # eta-dominated region flips the sign

    def test_boundary_non_strict(self):
        net = single_od_network([BPRDelay(1.0, 1.0, 10.0, 4.0)], q_hdv=1, q_crv=1)
        rows = local_convexity_at(FleetStrategy(-1.0, 1.0), np.array([0.0]), np.array([0.0]), net)
        assert rows[0].sign == 0 and not rows[0].strict

    def test_requires_positive_fleet_weight(self):
        net = single_od_network([BPRDelay(1.0, 1.0, 10.0, 4.0)], q_hdv=1, q_crv=1)
        with pytest.raises(UnsupportedDelayError):
            local_convexity_at(MALICIOUS, np.array([1.0]), np.array([1.0]), net)

    def test_curvature_sign_matches_finite_differences(self):
        # exact per-link second derivative sign vs a central second difference
        rng = np.random.default_rng(5)
        for _ in range(300):
            gamma = float(rng.choice([2.0, 3.0, 4.0]))
            t0, d, cap = rng.uniform(1, 5), rng.uniform(0.5, 2), rng.uniform(5, 20)
            delay = BPRDelay(t0, d, cap, gamma)
            lam_h = rng.uniform(-1, 1)
            lam_c = rng.uniform(0.05, 1)
            eta, phi = rng.uniform(0.1, 10.0, 2)

            def link_objective(p):
                return (lam_h * eta + lam_c * p) * delay.value(eta + p)

            eps = 1e-4 * max(1.0, phi)
            fd2 = (link_objective(phi + eps) - 2 * link_objective(phi) + link_objective(phi - eps)) / eps**2
            net = single_od_network([delay], q_hdv=1, q_crv=1)
            rows = local_convexity_at(FleetStrategy(lam_h, lam_c), np.array([eta]), np.array([phi]), net)
            scale = 1e-6 * max(1.0, abs(fd2))
            if abs(fd2) > scale:
                assert rows[0].sign == (1 if fd2 > 0 else -1)


class TestScaleInvariance:
    def test_scaling_preserves_argmin(self):
        from fleet_inverse import fleet_assign

        net = asymmetric_two_route()
        h = np.array([10.0, 40.0])
        base = fleet_assign(SELFISH, h, net).f
        scaled = fleet_assign(FleetStrategy(0.0, 2.5), h, net).f
        np.testing.assert_allclose(scaled, base, atol=1e-5)

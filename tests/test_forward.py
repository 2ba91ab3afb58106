"""Forward assignment: projection, the three solvers, dispatch, certificates."""

import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_inverse import (
    DEFAULT_CONFIG,
    AffineDelay,
    BPRDelay,
    FeasibleSet,
    FleetModelError,
    FleetStrategy,
    InfeasibleProblemError,
    Network,
    QuadraticDelay,
    certify_local_min,
    eval_objective,
    fleet_assign,
    single_od_network,
    solve_concave,
    solve_convex,
    solve_general,
    solve_inverse,
)
from fleet_inverse import forward
from fleet_inverse.objective import objective_gradient_in_f
from fleet_inverse.scenario import fixture_path, parse_scenario
from conftest import (
    asymmetric_two_route,
    overlap_network,
    route_ladder,
    symmetric_quadratic,
    three_affine_routes,
    two_od_overlap,
)

SELFISH = FleetStrategy.preset("selfish")
ALTRUISTIC = FleetStrategy.preset("altruistic")
MALICIOUS = FleetStrategy.preset("malicious")
SOCIAL = FleetStrategy.preset("social")
DISRUPTIVE = FleetStrategy.preset("disruptive")


def simple_set(total, n=2, upper=None):
    return FeasibleSet(
        blocks=(np.arange(n),),
        totals=np.array([float(total)]),
        n_routes=n,
        upper=None if upper is None else np.asarray(upper, dtype=float),
    )


def grid_project_oracle(v, total, step=0.01, upper=None):
    """Brute-force nearest feasible point on a 2d grid."""
    best, best_d = None, math.inf
    for x in np.arange(0.0, total + step / 2, step):
        y = total - x
        if upper is not None and (x > upper[0] or y > upper[1]):
            continue
        d = (x - v[0]) ** 2 + (y - v[1]) ** 2
        if d < best_d:
            best, best_d = np.array([x, y]), d
    return best


class TestProjection:
    def test_already_feasible(self):
        fset = simple_set(20.0)
        np.testing.assert_allclose(fset.project([10.0, 10.0]), [10.0, 10.0])

    def test_clipped_corner(self):
        # plain simplex shift gives (25, -5); the feasible answer is the corner
        fset = simple_set(20.0)
        result = fset.project([30.0, 0.0])
        np.testing.assert_allclose(result, [20.0, 0.0], atol=1e-12)
        oracle = grid_project_oracle([30.0, 0.0], 20.0)
        np.testing.assert_allclose(result, oracle, atol=0.01)

    def test_symmetric_negative(self):
        fset = simple_set(10.0)
        np.testing.assert_allclose(fset.project([-5.0, -5.0]), [5.0, 5.0])

    def test_capped_projection_against_grid(self):
        fset = simple_set(20.0, upper=[12.0, 15.0])
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(-10, 30, 2)
            result = fset.project(v)
            oracle = grid_project_oracle(v, 20.0, upper=[12.0, 15.0])
            np.testing.assert_allclose(result, oracle, atol=0.02)
            assert abs(result.sum() - 20.0) < 1e-9
            assert np.all(result <= np.array([12.0, 15.0]) + 1e-9)

    @given(v=st.lists(st.floats(-50, 50), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, v):
        fset = FeasibleSet(blocks=(np.arange(3),), totals=np.array([30.0]), n_routes=3)
        once = fset.project(np.asarray(v))
        twice = fset.project(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)
        assert abs(once.sum() - 30.0) < 1e-9 and np.all(once >= -1e-12)


def vertex_oracle(caps, total):
    """Every point with each route at 0, at its cap or, for at most one
    route, free strictly inside its bounds and taking the rest, that holds
    total within the vertices' tolerance; canonical order."""
    tol = 1e-12 * (1.0 + total)
    out = []
    for labels in itertools.product((-1, 0, 1), repeat=len(caps)):
        # a cap label needs a finite cap, and on a zero cap names the lower point
        if labels.count(0) > 1 or any(l > 0 and not 0.0 < c < math.inf for l, c in zip(labels, caps)):
            continue
        x = np.zeros(len(caps))
        fixed = 0.0
        for i, (label, cap) in enumerate(zip(labels, caps)):
            if label > 0:
                x[i] = cap
                fixed += cap
        if 0 in labels:
            free = labels.index(0)
            x[free] = total - fixed
            if not tol < x[free] < caps[free] - tol:
                continue
        elif abs(fixed - total) > tol:
            continue
        out.append(x)
    return sorted(out, key=lambda v: tuple(-v))


class TestVertices:
    @given(
        caps=st.lists(st.sampled_from([0.0, math.inf]) | st.floats(0.5, 10.0), min_size=1, max_size=5),
        how=st.sampled_from(["zero", "subset", "share"]),
        picks=st.lists(st.booleans(), min_size=5, max_size=5),
        share=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_match_brute_force_labelings(self, caps, how, picks, share):
        finite = [c for c in caps if math.isfinite(c)]
        if how == "zero":
            total = 0.0
        elif how == "subset":  # the capped routes of some labeling hold it exactly
            total = sum(c for c, pick in zip(caps, picks) if pick and math.isfinite(c))
        else:
            total = share * (sum(finite) + (10.0 if len(finite) < len(caps) else 0.0))
        got = simple_set(total, n=len(caps), upper=caps).vertices(DEFAULT_CONFIG.vertex_cap)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in vertex_oracle(caps, total)]

    def test_uncapped_order_is_e0_first_in_each_unit(self):
        fset = FeasibleSet(
            blocks=(np.arange(3), np.arange(3, 5), np.arange(5, 7)),
            totals=np.array([6.0, 4.0, 0.0]),
            n_routes=7,
        )
        expected = []
        for i, j in itertools.product(range(3), range(3, 5)):
            f = np.zeros(7)
            f[i], f[j] = 6.0, 4.0
            expected.append(f.tobytes())
        assert [v.tobytes() for v in fset.vertices(DEFAULT_CONFIG.vertex_cap)] == expected


class TestSolveConvex:
    def test_dependent_routes_stay_off_the_flat_direction(self):
        # r1 - r2 - r3 + r4 has zero link flow, so the objective is flat
        # along it: the Newton step must not move there from the uniform
        # start (a pair-difference reduced basis moves the flow by 11)
        net = overlap_network()
        result = fleet_assign(SELFISH, np.array([100.0, 50.0, 80.0, 70.0]), net)
        assert result.trace.converged and result.certificate.is_local_min
        assert abs(float(result.f @ np.array([1.0, -1.0, -1.0, 1.0]))) <= 1e-12 * 100.0
        np.testing.assert_allclose(result.f, [50 / 3, 100 / 3, 50 / 3, 100 / 3], rtol=1e-12)

    def test_symmetric_split(self):
        net = single_od_network([AffineDelay(1, 1)] * 2, q_hdv=0.0, q_crv=10.0)
        result = solve_convex(SELFISH, np.zeros(2), net, FeasibleSet.from_network(net))
        np.testing.assert_allclose(result.f, [5.0, 5.0], atol=1e-7)
        assert result.certificate.is_local_min

    def test_matches_grid_oracle(self, fig_two_route):
        h = np.array([10.0, 40.0])
        fset = FeasibleSet.from_network(fig_two_route)
        result = solve_convex(SELFISH, h, fig_two_route, fset)
        grid = np.arange(0.0, 50.0005, 0.001)
        values = [
            eval_objective(SELFISH, h, np.array([f1, 50.0 - f1]), fig_two_route)
            for f1 in grid
        ]
        f1_star = grid[int(np.argmin(values))]
        assert result.f[0] == pytest.approx(f1_star, abs=0.01)

    def test_social_completes_system_optimum(self, fig_two_route):
        # with no HDVs the fleet problem is the total-time optimum; any HDV
        # split below it is topped up exactly to that optimum
        fset_all = FeasibleSet.from_network(fig_two_route, totals=[100.0])
        q_so = solve_convex(SOCIAL, np.zeros(2), fig_two_route, fset_all).f
        h = np.array([0.6, 0.4]) * 40.0
        assert np.all(h <= q_so)
        fset = FeasibleSet.from_network(fig_two_route, totals=[100.0 - h.sum()])
        result = solve_convex(SOCIAL, h, fig_two_route, fset)
        np.testing.assert_allclose(result.f, q_so - h, atol=1e-5)


class TestSolveConcave:
    def test_tie_set_on_symmetric_instance(self):
        net = symmetric_quadratic()
        fset = FeasibleSet.from_network(net)
        result = solve_concave(MALICIOUS, np.array([25.0, 25.0]), net, fset)
        assert len(result.minimizer_set) == 2
        np.testing.assert_allclose(result.minimizer_set[0], [50.0, 0.0])
        np.testing.assert_allclose(result.minimizer_set[1], [0.0, 50.0])

    def test_perturbation_breaks_tie(self):
        net = symmetric_quadratic()
        fset = FeasibleSet.from_network(net)
        result = solve_concave(MALICIOUS, np.array([25.1, 24.9]), net, fset)
        assert len(result.minimizer_set) == 1
        np.testing.assert_allclose(result.f, [50.0, 0.0])
        result = solve_concave(MALICIOUS, np.array([24.9, 25.1]), net, fset)
        np.testing.assert_allclose(result.f, [0.0, 50.0])

    def test_three_route_best_corner(self):
        # corner values frozen from direct evaluation with delay 1 + x^2:
        # route 1: -112070, route 2: -91070, route 3: -127070
        net = single_od_network([QuadraticDelay(1, 1)] * 3, q_hdv=70.0, q_crv=10.0)
        h = np.array([30.0, 0.0, 40.0])
        fset = FeasibleSet.from_network(net)
        result = solve_concave(MALICIOUS, h, net, fset)
        np.testing.assert_allclose(result.f, [0.0, 0.0, 10.0])
        assert result.objective == pytest.approx(-127070.0)

    def test_vertex_cap(self):
        net = single_od_network([AffineDelay(1, 1)] * 3, q_hdv=10.0, q_crv=6.0)
        fset = FeasibleSet.from_network(net)
        from fleet_inverse import DEFAULT_CONFIG

        with pytest.raises(FleetModelError):
            solve_concave(MALICIOUS, np.ones(3), net, fset, DEFAULT_CONFIG.replace(vertex_cap=2))


class TestSolveGeneral:
    def test_disruptive_matches_grid(self, fig_two_route):
        h = np.array([10.0, 40.0])
        fset = FeasibleSet.from_network(fig_two_route)
        result = solve_general(DISRUPTIVE, h, fig_two_route, fset, seed=0)
        grid = np.arange(0.0, 50.0005, 0.001)
        values = [
            eval_objective(DISRUPTIVE, h, np.array([f1, 50.0 - f1]), fig_two_route)
            for f1 in grid
        ]
        f1_star = grid[int(np.argmin(values))]
        assert result.f[0] == pytest.approx(f1_star, abs=0.01)

    def test_agrees_with_convex_path(self, fig_two_route):
        h = np.array([10.0, 40.0])
        fset = FeasibleSet.from_network(fig_two_route)
        convex = solve_convex(SELFISH, h, fig_two_route, fset)
        general = solve_general(SELFISH, h, fig_two_route, fset, seed=1)
        np.testing.assert_allclose(general.f, convex.f, atol=1e-5)

    def test_empty_fleet(self):
        net = asymmetric_two_route(q_crv=0.0)
        result = fleet_assign(SELFISH, np.array([10.0, 40.0]), net)
        np.testing.assert_array_equal(result.f, np.zeros(2))
        assert result.objective == pytest.approx(
            eval_objective(SELFISH, [10.0, 40.0], [0.0, 0.0], net)
        )


class TestFleetAssign:
    def test_altruistic_example(self):
        net = three_affine_routes()
        result = fleet_assign(ALTRUISTIC, np.array([30.0, 0.0, 40.0]), net)
        np.testing.assert_allclose(result.f, [0.0, 30.0, 0.0], atol=1e-9)
        assert result.certificate.is_local_min

    def test_malicious_targets_busier_route(self):
        net = symmetric_quadratic(q_hdv=50.0, q_crv=5.0)
        result = fleet_assign(MALICIOUS, np.array([0.0, 50.0]), net)
        np.testing.assert_allclose(result.f, [0.0, 5.0])

    def test_no_hdv_gives_system_optimum(self, fig_two_route):
        # pure-fleet problem: minimize f . t(f) regardless of lam_hdv weight
        for strategy in (SELFISH, SOCIAL, DISRUPTIVE):
            result = fleet_assign(strategy, np.zeros(2), fig_two_route)
            fset = FeasibleSet.from_network(fig_two_route)
            so = solve_convex(SOCIAL, np.zeros(2), fig_two_route, fset)
            np.testing.assert_allclose(result.f, so.f, atol=1e-4)

    def test_multi_unit_dispatch(self):
        net = two_od_overlap()
        h = np.array([20.0, 10.0, 15.0, 15.0])
        result = fleet_assign(SELFISH, h, net)
        blocks = net.unit_blocks()
        for block, unit in zip(blocks, net.units):
            assert float(result.f[block].sum()) == pytest.approx(unit.q_crv, abs=1e-9)


class TestDispatchByStructure:
    @pytest.mark.parametrize("name", ["cross_dependent_stable", "cross_dependent_unstable"])
    def test_malicious_on_cross_affine_enumerates_corners(self, name):
        # lam_crv = 0 makes the objective linear in f
        net = parse_scenario(fixture_path(name)).network
        result = fleet_assign(MALICIOUS, np.array([25.0, 25.0]), net)
        assert result.trace.method == "corner_enumeration"
        assert result.trace.starts == 2

    def test_selfish_on_webster_is_one_start(self):
        sc = parse_scenario(fixture_path("signalized_link"))
        result = fleet_assign(SELFISH, sc.hdv_route_flows, sc.network)
        assert result.trace.method == "projected_gradient"
        assert result.trace.starts == 1
        assert result.trace.converged and result.certificate.is_local_min

    def test_mixed_weights_on_webster_keep_multistart(self):
        sc = parse_scenario(fixture_path("signalized_link"))
        result = fleet_assign(DISRUPTIVE, sc.hdv_route_flows, sc.network)
        assert result.trace.method == "multistart_projected_gradient"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_hdv_flow_rejected(self, fig_two_route, bad):
        with pytest.raises(InfeasibleProblemError):
            fleet_assign(SELFISH, np.array([bad, 40.0]), fig_two_route)


class TestWorkCounters:
    def test_route_ladder_iteration_gate(self):
        total = 0
        for h, net in route_ladder():
            result = fleet_assign(SELFISH, h, net, certify=False)
            assert result.trace.method == "projected_gradient"
            assert result.trace.converged
            total += result.trace.iterations
            # stationary to rounding: the gradient is level on the support
            grad = objective_gradient_in_f(SELFISH, h, result.f, net)[result.f > 0]
            assert grad.max() - grad.min() <= 1e-15 * grad.max()
        # 5,206 with projected gradient steps, a Newton polish and snapping
        assert total <= 300

    def test_disruptive_multistart_at_twenty_routes(self):
        h, net = route_ladder()[3]
        result = fleet_assign(DISRUPTIVE, h, net)
        assert result.trace.method == "multistart_projected_gradient"
        assert result.trace.starts == 40
        assert result.trace.converged and result.certificate.is_local_min
        # the best of 28,814 projected-gradient iterations
        assert result.objective == pytest.approx(-2148.429844953721, rel=1e-12)

    def test_route_ladder_round_trips_build_no_dense_step(self, monkeypatch):
        # the ladder networks are separable, so the forward's Newton steps and
        # the inverse walk's face solves take their O(R) closed forms; only
        # the inverse's operator and its certificate (two) build a route
        # gradient matrix, 188 of them with one per descent iteration
        calls = collections.Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
        monkeypatch.setattr(Network, "route_gradient", counting("route_gradient", Network.route_gradient))
        for h, net in route_ladder():
            f = fleet_assign(SELFISH, h, net, certify=False).f
            assert solve_inverse(SELFISH, h + f, net).certificate.theorem_applies
        assert calls["eigh"] == 0 and calls["lstsq"] == 0
        assert calls["route_gradient"] <= 36


    def test_one_route_gradient_per_descent_iteration(self, monkeypatch):
        # the descent's objective gradient and Hessian share one travel-time
        # gradient per iteration: the matrix, or on the separable ladder and
        # two-route networks its diagonal, and there no matrix at all
        calls = []
        for name in ("route_gradient", "route_gradient_diagonal"):
            method = getattr(Network, name)
            monkeypatch.setattr(
                Network, name, lambda self, q, name=name, method=method: calls.append(name) or method(self, q)
            )
        descend = forward._descend
        descents = []

        def counting(*args):
            before = len(calls)
            f, iterations, converged = descend(*args)
            descents.append((args[2].separable, calls[before:], iterations))
            return f, iterations, converged

        monkeypatch.setattr(forward, "_descend", counting)
        serial = DEFAULT_CONFIG.replace(max_threads=1)
        ladder = route_ladder()
        for strategy, (h, net) in [(SELFISH, ladder[4]), (DISRUPTIVE, ladder[3])]:
            fleet_assign(strategy, h, net, certify=False, config=serial)
        fleet_assign(MALICIOUS, np.array([40.0, 20.0]), asymmetric_two_route(), config=serial)
        fleet_assign(SELFISH, np.array([100.0, 50.0, 80.0, 70.0]), overlap_network(), config=serial)
        assert len(descents) >= 41 and sum(n for *_, n in descents) >= 100
        assert [separable for separable, *_ in descents].count(False) >= 1
        for separable, made, iterations in descents:
            assert 1 <= len(made) <= iterations + 1
            assert set(made) == {"route_gradient_diagonal" if separable else "route_gradient"}


class TestCertify:
    def test_interior_stationary_point(self):
        net = single_od_network([AffineDelay(1, 1)] * 2, q_hdv=0.0, q_crv=10.0)
        fset = FeasibleSet.from_network(net)
        cert = certify_local_min(SELFISH, np.zeros(2), np.array([5.0, 5.0]), net, fset)
        assert cert.is_local_min
        assert cert.min_directional_derivative == pytest.approx(0.0, abs=1e-8)

    def test_corner_minimum_passes(self):
        net = symmetric_quadratic()
        fset = FeasibleSet.from_network(net)
        cert = certify_local_min(MALICIOUS, np.array([25.0, 25.0]), np.array([50.0, 0.0]), net, fset)
        assert cert.is_local_min

    def test_interior_maximum_fails(self):
        # first-order flat but strictly concave along the pair swap
        net = symmetric_quadratic()
        fset = FeasibleSet.from_network(net)
        cert = certify_local_min(MALICIOUS, np.array([25.0, 25.0]), np.array([25.0, 25.0]), net, fset)
        assert not cert.is_local_min

    @pytest.mark.parametrize("name", ["two_route_asymmetric", "signalized_link"])
    def test_flat_derivative_stable_under_one_ulp(self, name):
        # interior minima: the exact derivative is zero, so the reported
        # value is rounding only and must not follow the last bit of f
        sc = parse_scenario(fixture_path(name))
        h = sc.hdv_route_flows
        f = fleet_assign(sc.strategy, h, sc.network, config=sc.config).f
        fset = FeasibleSet.from_network(sc.network)
        base = certify_local_min(sc.strategy, h, f, sc.network, fset, sc.config)
        assert abs(base.min_directional_derivative) <= 1e-12
        for r in range(len(f)):
            for toward in (-np.inf, np.inf):
                g = f.copy()
                g[r] = np.nextafter(g[r], toward)
                cert = certify_local_min(sc.strategy, h, g, sc.network, fset, sc.config)
                moved = abs(cert.min_directional_derivative - base.min_directional_derivative)
                assert moved <= 1e-12


class TestInvariants:
    def test_output_always_feasible(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            net = single_od_network(
                [BPRDelay(rng.uniform(1, 5), 1.0, rng.uniform(20, 60), float(rng.choice([2.0, 4.0]))) for _ in range(n)],
                q_hdv=40.0,
                q_crv=float(rng.uniform(0, 30)),
            )
            strategy = FleetStrategy(rng.uniform(-1, 1), rng.uniform(-1, 1))
            h = rng.uniform(0, 20, n)
            result = fleet_assign(strategy, h, net, seed=int(rng.integers(1000)))
            assert np.all(result.f >= -1e-12)
            assert result.f.sum() == pytest.approx(net.units[0].q_crv, abs=1e-9)

    def test_convex_unique_from_many_starts(self, fig_two_route):
        from fleet_inverse.forward import _descend
        from fleet_inverse import DEFAULT_CONFIG

        h = np.array([10.0, 40.0])
        fset = FeasibleSet.from_network(fig_two_route)
        rng = np.random.default_rng(9)
        solutions = []
        for _ in range(10):
            f0 = fset.random_point(rng)
            f, _, _ = _descend(SELFISH, h, fig_two_route, fset, f0, DEFAULT_CONFIG)
            solutions.append(f)
        for f in solutions[1:]:
            np.testing.assert_allclose(f, solutions[0], atol=1e-6)

    def test_convex_minimizer_moves_continuously(self, fig_two_route):
        h = np.array([10.0, 40.0])
        base = fleet_assign(SELFISH, h, fig_two_route).f
        delta = np.array([1e-3, -1e-3])
        moved = fleet_assign(SELFISH, h + delta, fig_two_route).f
        assert np.linalg.norm(moved - base) <= 10.0 * np.linalg.norm(delta)

    def test_concave_minimizers_are_vertices(self):
        net = symmetric_quadratic()
        fset = FeasibleSet.from_network(net)
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = rng.uniform(0, 50, 2)
            result = solve_concave(MALICIOUS, h, net, fset)
            for f in result.minimizer_set:
                assert np.isclose(f, 0.0).sum() >= 1  # all mass on one route

    def test_link_assignment_single_valued_composition(self, fig_two_route):
        # when the route assignment is unique its link image is as well
        h = np.array([10.0, 40.0])
        r1 = fleet_assign(SELFISH, h, fig_two_route, seed=0)
        r2 = fleet_assign(SELFISH, h, fig_two_route, seed=99)
        assert len(r1.minimizer_set) == 1
        np.testing.assert_allclose(
            fig_two_route.route_to_link(r1.f), fig_two_route.route_to_link(r2.f), atol=1e-6
        )

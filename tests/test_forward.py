"""Forward assignment: projection, the three solvers, dispatch, certificates."""

import ast
import collections
import dataclasses
import hashlib
import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleet_inverse import (
    DEFAULT_CONFIG,
    AffineDelay,
    BPRDelay,
    DimensionMismatchError,
    FeasibleSet,
    FleetModelError,
    FleetStrategy,
    InfeasibleProblemError,
    Network,
    QuadraticDelay,
    certify_local_min,
    eval_objective,
    fleet_assign,
    inverse_link_flows,
    route_fiber,
    single_od_network,
    solve_concave,
    solve_convex,
    solve_general,
    solve_inverse,
)
from fleet_inverse import forward, inverse, network, objective
from fleet_inverse.dynamics import SimulationConfig, simulate
from fleet_inverse.objective import objective_gradient_in_f, objective_hessian_in_f
from fleet_inverse.scenario import fixture_path, list_fixtures, parse_scenario
from conftest import (
    asymmetric_two_route,
    overlap_network,
    route_ladder,
    symmetric_quadratic,
    three_affine_routes,
    two_od_overlap,
)

# sha256 of the route_ladder round trips' bytes (see
# TestWorkCounters.test_ladder_bytes): a change that claims the same results
# keeps it, as REPORT_SHA256 in test_cli.py does for the fixture reports
LADDER_SHA256 = "7ff63864244a36ac8f10cc23499ce9557aa4daf08118b8d9fed628949ad4f628"
# the same at held-out instance seed 77, and the inverses' certificates
# (theorem_applies and the bits of min_rayleigh) at each instance seed
LADDER_BYTES = {
    2024: (LADDER_SHA256, "f637a7bd83de226398329141a1b7978034927a4767650fc027233c54424db688"),
    77: (
        "47e019673a1cf6da833da008182ddac0b8e9c7d5723b68ba3452dd724b58e458",
        "de0dfbd17e1104030027a69c2087037e55ef1179ef61c516e1532031672c4c06",
    ),
}

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
        upper=upper,
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

    def test_no_fleet_projects_to_zero(self):
        np.testing.assert_array_equal(simple_set(0.0).project([3.0, -5.0]), [0.0, 0.0])

    def test_random_point_respects_the_caps(self):
        fset = simple_set(20.0, upper=[4.0, 30.0])
        for seed in range(5):
            assert fset.contains(fset.random_point(np.random.default_rng(seed)))

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

    @given(
        v=st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        caps=st.lists(st.sampled_from([0.0, math.inf]) | st.floats(0.0, 20.0), min_size=12, max_size=12),
        how=st.sampled_from(["zero", "full", "share"]),
        share=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_capped_projection_against_bisection(self, v, caps, how, share):
        v, upper = np.array(v), np.array(caps[: len(v)])
        room = float(np.sum(upper)) if math.isfinite(np.sum(upper)) else 100.0
        total = {"zero": 0.0, "full": room, "share": share * room}[how]
        simplex = forward._project_block_simplex
        with mock.patch.object(forward, "_project_block_simplex", wraps=simplex) as uncapped:
            got = simple_set(total, n=len(v), upper=upper).project(v)
        # a capped set is projected by the breakpoint search alone
        assert uncapped.call_count == 0
        # the projection is clip(v - theta, 0, upper), theta = -mu
        expected = bisection_oracle(-v, np.ones(len(v)), total, upper)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12 * (1.0 + total + np.max(np.abs(v))))

    @given(
        lo=st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        slopes=st.lists(st.floats(0.1, 10.0), min_size=12, max_size=12),
        caps=st.lists(st.sampled_from([0.0, math.inf]) | st.floats(0.0, 20.0), min_size=12, max_size=12),
        how=st.sampled_from(["zero", "full", "share"]),
        share=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_multiplier_point_against_bisection(self, lo, slopes, caps, how, share):
        # the one breakpoint search behind the capped projection and the
        # inverse's separable start, at slopes other than the projection's 1
        lo, slope, upper = np.array(lo), np.array(slopes[: len(lo)]), np.array(caps[: len(lo)])
        room = float(np.sum(upper)) if math.isfinite(np.sum(upper)) else 100.0
        total = {"zero": 0.0, "full": room, "share": share * room}[how]
        got = simple_set(total, n=len(lo), upper=upper)._multiplier_point(lo, slope)
        expected = bisection_oracle(lo, slope, total, upper)
        assert np.all(got[upper == 0.0] == 0.0)
        atol = 1e-12 * (1.0 + total + np.max(np.abs(lo))) / np.min(slope)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=atol)

    @given(v=st.lists(st.floats(-50, 50), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, v):
        fset = FeasibleSet(blocks=(np.arange(3),), totals=np.array([30.0]), n_routes=3)
        once = fset.project(np.asarray(v))
        twice = fset.project(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)
        assert abs(once.sum() - 30.0) < 1e-9 and np.all(once >= -1e-12)


def bisection_oracle(lo, slope, total, upper):
    """clip((mu - lo) / slope, 0, upper) holding total, slopes positive: the
    mass is continuous and nondecreasing in mu, 0 at min(lo) and at least
    total at max(lo) + max(slope) * total, so mu is bisected until its
    bracket is 1e-13 wide."""
    if total >= np.sum(upper):
        return upper.copy()
    left, right = float(np.min(lo)), float(np.max(lo) + np.max(slope) * total)
    while right - left > 1e-13 * (1.0 + abs(left) + abs(right)):
        mid = 0.5 * (left + right)
        if mid in (left, right):
            break
        left, right = (left, mid) if np.sum(np.clip((mid - lo) / slope, 0.0, upper)) >= total else (mid, right)
    return np.clip((0.5 * (left + right) - lo) / slope, 0.0, upper)


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
        n=st.integers(1, 5),
        total=st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]) | st.floats(0.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_match_brute_force_labelings(self, n, total):
        got = simple_set(total, n=n).vertices(DEFAULT_CONFIG.vertex_cap)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in vertex_oracle([math.inf] * n, total)]

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

    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        totals=st.lists(st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]) | st.floats(0.0, 100.0), min_size=3, max_size=3),
        cap=st.integers(1, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_units_combine_in_product_order(self, sizes, totals, cap):
        # the units' oracle vertices in itertools.product order, or the
        # error above the cap
        blocks = tuple(np.arange(sum(sizes[:u]), sum(sizes[:u + 1])) for u in range(len(sizes)))
        n, masses = sum(sizes), totals[:len(sizes)]
        per_unit = [vertex_oracle([math.inf] * size, total) for size, total in zip(sizes, masses)]
        if math.prod(len(points) for points in per_unit) > cap:
            expected = f"vertex enumeration exceeded the cap of {cap}; raise vertex_cap"
        else:
            expected = [np.concatenate(combo).tobytes() for combo in itertools.product(*per_unit)]
        fset = FeasibleSet(blocks=blocks, totals=np.array(masses), n_routes=n)
        try:
            got = [v.tobytes() for v in fset.vertices(cap)]
        except FleetModelError as exc:
            got = str(exc)
        assert got == expected

    def test_a_capped_set_raises(self):
        # only the inverse caps a set, and it enumerates faces, not vertices
        with pytest.raises(FleetModelError, match="uncapped sets only"):
            simple_set(1.0, n=3, upper=np.full(3, math.inf)).vertices(DEFAULT_CONFIG.vertex_cap)

    def test_only_the_inverse_builds_capped_sets(self):
        # a FeasibleSet(...) or FeasibleSet.from_network(...) call given an
        # upper bound, by keyword or by position
        def caps(node) -> bool:
            func = node.func
            if isinstance(func, ast.Name) and func.id == "FeasibleSet":
                positional = 3
            elif isinstance(func, ast.Attribute) and func.attr == "from_network":
                positional = 1
            else:
                return False
            return len(node.args) > positional or any(k.arg == "upper" for k in node.keywords)

        src = Path(forward.__file__).parent
        capped = sorted(
            path.name
            for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and caps(node)
        )
        assert set(capped) == {"inverse.py"}


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
        result = solve_convex(SELFISH, np.zeros(2), net)
        np.testing.assert_allclose(result.f, [5.0, 5.0], atol=1e-7)
        assert result.certificate.is_local_min

    def test_matches_grid_oracle(self, fig_two_route):
        h = np.array([10.0, 40.0])
        result = solve_convex(SELFISH, h, fig_two_route)
        grid = np.arange(0.0, 50.0005, 0.001)
        values = [
            eval_objective(SELFISH, h, np.array([f1, 50.0 - f1]), fig_two_route)
            for f1 in grid
        ]
        f1_star = grid[int(np.argmin(values))]
        assert result.f[0] == pytest.approx(f1_star, abs=0.01)

    def test_social_completes_system_optimum(self):
        # with no HDVs the fleet problem is the total-time optimum; any HDV
        # split below it is topped up exactly to that optimum
        q_so = solve_convex(SOCIAL, np.zeros(2), asymmetric_two_route(q_hdv=0.0, q_crv=100.0)).f
        h = np.array([0.6, 0.4]) * 40.0
        assert np.all(h <= q_so)
        result = solve_convex(SOCIAL, h, asymmetric_two_route(q_hdv=h.sum(), q_crv=100.0 - h.sum()))
        np.testing.assert_allclose(result.f, q_so - h, atol=1e-5)


class TestSolveConcave:
    def test_tie_set_on_symmetric_instance(self):
        net = symmetric_quadratic()
        result = solve_concave(MALICIOUS, np.array([25.0, 25.0]), net)
        assert len(result.minimizer_set) == 2
        np.testing.assert_allclose(result.minimizer_set[0], [50.0, 0.0])
        np.testing.assert_allclose(result.minimizer_set[1], [0.0, 50.0])

    def test_perturbation_breaks_tie(self):
        net = symmetric_quadratic()
        result = solve_concave(MALICIOUS, np.array([25.1, 24.9]), net)
        assert len(result.minimizer_set) == 1
        np.testing.assert_allclose(result.f, [50.0, 0.0])
        result = solve_concave(MALICIOUS, np.array([24.9, 25.1]), net)
        np.testing.assert_allclose(result.f, [0.0, 50.0])

    def test_three_route_best_corner(self):
        # corner values frozen from direct evaluation with delay 1 + x^2:
        # route 1: -112070, route 2: -91070, route 3: -127070
        net = single_od_network([QuadraticDelay(1, 1)] * 3, q_hdv=70.0, q_crv=10.0)
        h = np.array([30.0, 0.0, 40.0])
        result = solve_concave(MALICIOUS, h, net)
        np.testing.assert_allclose(result.f, [0.0, 0.0, 10.0])
        assert result.objective == pytest.approx(-127070.0)

    def test_vertex_cap(self):
        net = single_od_network([AffineDelay(1, 1)] * 3, q_hdv=10.0, q_crv=6.0)
        from fleet_inverse import DEFAULT_CONFIG

        with pytest.raises(FleetModelError):
            solve_concave(MALICIOUS, np.ones(3), net, config=DEFAULT_CONFIG.replace(vertex_cap=2))


class TestSolveGeneral:
    def test_tie_set_holds_only_the_best_objective(self):
        # two distinct local minima, 0.028 apart in objective (-187.180 and
        # -187.152): only the best is a tie
        h, net = route_ladder()[0]
        result = fleet_assign(DISRUPTIVE, h, net)
        assert result.trace.method == "multistart_projected_gradient"
        assert len(result.minimizer_set) == 1
        assert result.minimizer_set[0] is result.f
        assert result.objective == pytest.approx(-187.1798554285854, rel=1e-12)

    def test_disruptive_matches_grid(self, fig_two_route):
        h = np.array([10.0, 40.0])
        result = solve_general(DISRUPTIVE, h, fig_two_route, seed=0)
        grid = np.arange(0.0, 50.0005, 0.001)
        values = [
            eval_objective(DISRUPTIVE, h, np.array([f1, 50.0 - f1]), fig_two_route)
            for f1 in grid
        ]
        f1_star = grid[int(np.argmin(values))]
        assert result.f[0] == pytest.approx(f1_star, abs=0.01)

    def test_agrees_with_convex_path(self, fig_two_route):
        h = np.array([10.0, 40.0])
        convex = solve_convex(SELFISH, h, fig_two_route)
        general = solve_general(SELFISH, h, fig_two_route, seed=1)
        np.testing.assert_allclose(general.f, convex.f, atol=1e-5)

    def test_converged_is_the_flag_of_the_returned_start(self):
        # at max_pg_iter = 5 one of the 25 starts converges, but the best
        # point is start 9's, which did not: the trace used to read True
        h, net = route_ladder()[0]
        runs = []
        descend = forward._descend

        def spy(*args):
            runs.append(descend(*args))
            return runs[-1]

        with mock.patch.object(forward, "_descend", spy):
            result = solve_general(
                DISRUPTIVE, h, net,
                config=DEFAULT_CONFIG.replace(max_pg_iter=5), certify=False,
            )
        best = next(i for i, (f, *_) in enumerate(runs) if f is result.f)
        assert (len(runs), best, sum(converged for _, _, converged, _ in runs)) == (25, 9, 1)
        assert not result.trace.converged

    def test_no_start_raises_the_vertex_cap(self):
        # above vertex_cap vertices only the random points start; with
        # n_starts = 0 there is none, and the vertex enumeration's error is
        # the answer
        sc = parse_scenario(fixture_path("signalized_link"))
        fset = FeasibleSet.from_network(sc.network)
        h = sc.hdv_route_flows
        config = DEFAULT_CONFIG.replace(n_starts=0, vertex_cap=1)
        with pytest.raises(FleetModelError, match="vertex enumeration exceeded the cap of 1"):
            solve_general(DISRUPTIVE, h, sc.network, seed=0, config=config)
        with pytest.raises(FleetModelError, match="vertex enumeration exceeded the cap of 1"):
            fleet_assign(DISRUPTIVE, h, sc.network, seed=0, config=config)
        # one random start is enough to answer
        result = fleet_assign(DISRUPTIVE, h, sc.network, seed=0, config=config.replace(n_starts=1))
        assert result.trace.starts == 1 and fset.contains(result.f)

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
            so = solve_convex(SOCIAL, np.zeros(2), fig_two_route)
            np.testing.assert_allclose(result.f, so.f, atol=1e-4)

    def test_multi_unit_dispatch(self):
        net = two_od_overlap()
        h = np.array([20.0, 10.0, 15.0, 15.0])
        result = fleet_assign(SELFISH, h, net)
        blocks = net.unit_blocks()
        for block, unit in zip(blocks, net.units):
            assert float(result.f[block].sum()) == pytest.approx(unit.q_crv, abs=1e-9)

    def test_a_unit_without_fleet_has_no_free_route(self):
        # the second unit's fleet is 0: each Newton direction leaves its
        # routes at zero and moves the first unit's fleet alone
        base = two_od_overlap()
        net = Network(base.links, base.routes, units=[base.units[0], dataclasses.replace(base.units[1], q_crv=0.0)])
        result = fleet_assign(SELFISH, np.array([20.0, 10.0, 15.0, 15.0]), net)
        np.testing.assert_array_equal(result.f[2:], [0.0, 0.0])
        assert float(result.f[:2].sum()) == pytest.approx(20.0, abs=1e-9)
        assert result.trace.converged and result.certificate.is_local_min


    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize(
        "entry", ["fleet_assign", "certify_local_min", "solve_convex", "solve_concave", "solve_general", "simulate"]
    )
    def test_hdv_flows_of_the_wrong_length(self, fig_two_route, entry, length):
        # each entry that takes HDV flows checks their length once: on two
        # routes a length-1 vector used to broadcast (certify_local_min
        # returned a verdict) and a length-3 one to raise numpy's ValueError
        net, h = fig_two_route, np.full(length, 10.0)
        calls = {
            "fleet_assign": lambda: fleet_assign(SELFISH, h, net),
            "certify_local_min": lambda: certify_local_min(SELFISH, h, np.array([25.0, 25.0]), net),
            "solve_convex": lambda: solve_convex(SELFISH, h, net),
            "solve_concave": lambda: solve_concave(MALICIOUS, h, net),
            "solve_general": lambda: solve_general(DISRUPTIVE, h, net),
            "simulate": lambda: simulate(SimulationConfig(days=2), h, net),
        }
        with pytest.raises(DimensionMismatchError, match=rf"HDV flows must be a vector of length 2, got shape \({length},\)"):
            calls[entry]()


class TestOneSourceOfFleetSizes:
    @pytest.mark.parametrize(
        "entry,keyword",
        [
            ("solve_convex", "feasible"),
            ("solve_concave", "feasible"),
            ("solve_general", "feasible"),
            ("certify_local_min", "feasible"),
            ("_assigner", "feasible"),
            ("_corner_solver", "feasible"),
            ("solve_inverse", "sizes"),
            ("inverse_link_flows", "sizes"),
            ("discrete_recover", "sizes"),
        ],
    )
    def test_no_entry_takes_a_second_copy(self, fig_two_route, entry, keyword):
        # the network's OD units are the one source of fleet sizes: no entry
        # takes them again as a feasible set or a list of sizes, by keyword
        # or in the old argument's place (it once reached the solve as the
        # config and failed there with an AttributeError)
        net = fig_two_route
        value = FeasibleSet.from_network(net) if keyword == "feasible" else net.fleet_sizes()
        args = {
            "certify_local_min": (SELFISH, np.zeros(2), np.array([25.0, 25.0]), net),
            "_assigner": (SELFISH, net, DEFAULT_CONFIG),
            "_corner_solver": (MALICIOUS, net, DEFAULT_CONFIG),
            "inverse_link_flows": (SELFISH, net.route_to_link(np.array([60.0, 40.0])), net),
        }.get(entry, (SELFISH, np.array([60.0, 40.0]), net))
        function = getattr(forward if keyword == "feasible" else inverse, entry)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            function(*args, **{keyword: value})
        with pytest.raises(TypeError, match=rf"takes {len(args)} positional arguments but {len(args) + 1} were given"):
            function(*args, value)


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
        # 5,206 with projected gradient steps, a Newton polish and snapping;
        # 152 with blind halving in the line search, 141 now
        assert total <= 150

    def test_route_ladder_evaluation_gate(self, monkeypatch):
        # each Armijo trial evaluates the objective and the travel times once,
        # and the accepted trial's times give the next gradient: the 12
        # ladder forwards make 249 of each (457 objective and 609 travel-time
        # evaluations with blind halving and the times evaluated again).
        # Each of them ends on the rounding-level Newton step, which moves f,
        # so each still evaluates its final point once.
        calls = collections.Counter()
        for owner, name in ((forward, "_evaluate"), (network.DelayTable, "values")):
            method = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *args, name=name, method=method, **kwargs:
                calls.update([name]) or method(*args, **kwargs)
            )
        for h, net in route_ladder():
            fleet_assign(SELFISH, h, net, certify=False)
        assert calls["_evaluate"] == 249
        assert calls["values"] == 249

    def test_descents_report_their_last_evaluated_point(self, monkeypatch):
        # a descent that stops anywhere but on the rounding-level Newton step
        # reports the value of the point it evaluated last: stopped by
        # max_pg_iter = 5, the 12 ladder forwards make 154 objective
        # evaluations and the 25 disruptive starts at R = 5 make 184 (166
        # and 208 when each evaluated its final point again)
        calls = collections.Counter()
        method = forward._evaluate
        monkeypatch.setattr(forward, "_evaluate", lambda *args: calls.update(["points"]) or method(*args))
        config = DEFAULT_CONFIG.replace(max_pg_iter=5)
        ladder = route_ladder()
        for h, net in ladder:
            result = solve_convex(SELFISH, h, net, config=config, certify=False)
            assert result.objective == eval_objective(SELFISH, h, result.f, net)
        assert calls["points"] == 154
        calls.clear()
        h, net = ladder[0]
        result = solve_general(DISRUPTIVE, h, net, config=config, certify=False)
        assert result.objective == eval_objective(DISRUPTIVE, h, result.f, net)
        assert calls["points"] == 184

    def test_certified_forward_evaluates_its_last_point_once(self, monkeypatch):
        # the certificate reads the descent's last evaluated point: the
        # two_route_asymmetric forward evaluates 6 points (7 when the
        # certificate formed f's flows, weights and times again), and the
        # verdict is certify_local_min's, as it is for the best multistart
        # descent
        calls = []
        method = objective._evaluate
        for owner in (objective, forward):
            monkeypatch.setattr(owner, "_evaluate", lambda *args: calls.append(args) or method(*args))
        sc = parse_scenario(fixture_path("two_route_asymmetric"))
        h, net = sc.hdv_route_flows, sc.network
        result = fleet_assign(sc.strategy, h, net, config=sc.config)
        assert result.trace.method == "projected_gradient" and len(calls) == 6
        assert result.certificate == certify_local_min(sc.strategy, h, result.f, net)
        h, net = route_ladder()[0]
        result = fleet_assign(DISRUPTIVE, h, net)
        assert result.trace.method == "multistart_projected_gradient"
        assert result.certificate == certify_local_min(DISRUPTIVE, h, result.f, net)

    def test_malicious_simulation_enumerates_its_corners_once(self, monkeypatch):
        # the malicious objective is concave on stackelberg_symmetric, so each
        # day's fleet takes the best corner: the dispatch enumerates the
        # vertices once for the run, and each day evaluates every vertex in
        # one batched call and reports the chosen one's value from it (50
        # enumerations and 3 evaluations a day when each day enumerated the
        # vertices again, evaluated them one by one and the chosen one twice)
        calls = collections.Counter()
        for owner, name in ((FeasibleSet, "vertices"), (forward, "_evaluate")):
            method = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *args, name=name, method=method, **kwargs:
                calls.update([name]) or method(*args, **kwargs)
            )
        sc = parse_scenario(fixture_path("stackelberg_symmetric"))
        states = simulate(SimulationConfig(days=50, strategy=MALICIOUS), sc.hdv_route_flows, sc.network, sc.config)
        assert len(states) == 50
        assert calls == {"vertices": 1, "_evaluate": 50}

    def test_route_ladder_forms_each_point_once(self, monkeypatch):
        # one evaluation per point: its link flows N^T (h + f), delays and
        # travel times are formed once, and the gradient (link slopes) and
        # the Hessian (link curvatures and weights N^T w) at an iterate read
        # them.  The 12 ladder forwards take 141 iterations and evaluate 249
        # points, forming link flows 249 times (531 when the gradient and the
        # Hessian each formed them again) and the delay table's values,
        # slopes and curvatures 249, 141 and 141 times.
        calls = collections.Counter()
        for owner, name, key in (
            (network.DelayTable, "values", "values"),
            (network.DelayTable, "derivatives", "derivatives"),
            (network.DelayTable, "second_derivatives", "second_derivatives"),
            # every route-to-link product, checked or not
            (Network, "_route_to_link_at", "to_links"),
        ):
            method = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda self, a, key=key, method=method: calls.update([key]) or method(self, a)
            )
        monkeypatch.setattr(forward, "_evaluate", lambda *args, method=forward._evaluate:
                            calls.update(["points"]) or method(*args))
        iterations = sum(fleet_assign(SELFISH, h, net, certify=False).trace.iterations for h, net in route_ladder())
        assert iterations <= 150 and calls["points"] == 249
        assert calls["values"] == calls["points"]
        assert calls["derivatives"] == calls["second_derivatives"] == iterations
        # every Hessian forms its link weights once; every other product is a
        # point's link flows
        assert calls["to_links"] - calls["second_derivatives"] == calls["points"]

    def test_backtrack_interpolates_within_its_safeguards(self):
        # the quadratic through f(0) = 0, slope -1 and f(1) = 1 has its
        # minimum at 1/4; a flat or concave quadratic halves the step, and
        # the step is min(factor a, max(0.1 a, a*)), so a factor below 0.1
        # always wins
        assert forward._backtrack(1.0, 0.0, -1.0, 1.0, 0.5) == 0.25
        assert forward._backtrack(1.0, 0.0, -1.0, -1.0, 0.5) == 0.5
        assert forward._backtrack(2.0, 0.0, -1.0, 1e9, 0.5) == pytest.approx(0.2)
        assert forward._backtrack(1.0, 0.0, -1.0, -0.5, 0.5) == 0.5
        assert forward._backtrack(1.0, 0.0, -1.0, 1.0, 0.05) == 0.05

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
        # the inverse pivot's face solves take their O(R) closed forms; the
        # inverse's operator and certificate take the gradient's diagonal,
        # so no route gradient matrix is built (12 when each inverse built
        # one, 188 with one per descent iteration)
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
        assert calls["route_gradient"] == 0


    def test_ladder_bytes(self):
        # at each instance seed the 12 selfish round trips keep every byte of
        # the forward's f and the inverse's f_hat, in ladder order, and every
        # inverse its certificate's verdict and min_rayleigh (computed when
        # read)
        for instance_seed, expected in LADDER_BYTES.items():
            flows, certificates = hashlib.sha256(), hashlib.sha256()
            for h, net in route_ladder(instance_seed):
                f = fleet_assign(SELFISH, h, net, certify=False).f
                inv = solve_inverse(SELFISH, h + f, net)
                flows.update(f.tobytes() + inv.f_hat.tobytes())
                certificate = inv.certificate
                certificates.update(bytes([certificate.theorem_applies]) + np.float64(certificate.min_rayleigh).tobytes())
            assert (flows.hexdigest(), certificates.hexdigest()) == expected, instance_seed

    def test_ladder_inverses_certify_without_an_eigendecomposition(self, monkeypatch):
        # the ladder networks are separable and every observed route flows,
        # so the slope rule certifies each inverse: no dense gradient,
        # basis or eigendecomposition (12 of each when every inverse ran the
        # dense test), nor in the forwards.  Each inverse evaluates the link
        # slopes once, for its certificate and its operator, and takes
        # f_hat's VI gap from the pivot (24 slope evaluations and 24 gaps
        # when the operator formed the slopes again and _recover the gap).
        # min_rayleigh is computed when first read, once, from the matrix
        # and its own slope evaluation.
        calls = collections.Counter()
        for owner, name in (
            (np.linalg, "eigvalsh"), (Network, "route_gradient"), (Network, "feasible_direction_basis"),
            (network.DelayTable, "derivatives"), (inverse, "_vi_gap"),
        ):
            method = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *args, name=name, method=method: calls.update([name]) or method(*args)
            )
        observed = [(h + fleet_assign(SELFISH, h, net, certify=False).f, net) for h, net in route_ladder()]
        # the forwards' descents take the slopes at each iteration
        assert set(calls) == {"derivatives"}
        calls.clear()
        inverses = [solve_inverse(SELFISH, q, net) for q, net in observed]
        assert all(inv.certificate.theorem_applies for inv in inverses)
        per_inverse = {"derivatives": 12, "_vi_gap": 12}
        assert calls == per_inverse
        certificate = inverses[-1].certificate
        first = certificate.min_rayleigh
        assert calls == {
            **per_inverse, "derivatives": 13, "eigvalsh": 1, "route_gradient": 1, "feasible_direction_basis": 1,
        }
        assert certificate.min_rayleigh is first and calls["eigvalsh"] == 1

    def test_ladder_link_inverses_take_the_route_slopes(self, monkeypatch):
        # the ladder networks are separable, so the link level builds its
        # operator from the route slopes at the observed link flow, as the
        # route level does: each hands _recover an (R,) operator, and no
        # route gradient matrix is formed (each formed (margin N) J^T N^T,
        # (R, R), and handed it on when _recover reduced it)
        shapes, matrices = [], []
        recover, matrix = inverse._recover, Network._route_gradient_at
        monkeypatch.setattr(inverse, "_recover", lambda *args, **kwargs: shapes.append(args[3].shape)
                            or recover(*args, **kwargs))
        monkeypatch.setattr(Network, "_route_gradient_at",
                            lambda self, slopes: matrices.append(slopes) or matrix(self, slopes))
        for h, net in route_ladder():
            a = net.route_to_link(h + fleet_assign(SELFISH, h, net, certify=False).f)
            assert inverse_link_flows(SELFISH, a, net).certificate.theorem_applies
        assert shapes == [(net.n_routes,) for _, net in route_ladder()]
        assert matrices == []

    def test_uncertified_inverses_take_one_gap_per_validated_face(self, monkeypatch):
        # the 33 route-level inverses of the fixtures under three strategies
        # that the certificate refuses list 103 solutions.  Each face point
        # that validates has its VI gap taken once, by the enumeration, and
        # _recover reads it for the least-norm key and f_hat's residual (251
        # gaps when it took them again)
        calls = collections.Counter()
        gap, validated = inverse._vi_gap, inverse._validated
        monkeypatch.setattr(inverse, "_vi_gap", lambda *args: calls.update(["gap"]) or gap(*args))

        def counting_validated(*args):
            f = validated(*args)
            calls["validated"] += f is not None
            return f

        monkeypatch.setattr(inverse, "_validated", counting_validated)
        solutions = 0
        for name in list_fixtures():
            scenario = parse_scenario(fixture_path(name))
            q, net = scenario.observed_route_flows, scenario.network
            if q is None:
                h = scenario.hdv_route_flows
                q = h + fleet_assign(scenario.strategy, h, net, certify=False).f
            for strategy in (ALTRUISTIC, FleetStrategy(0.5, 0.2), FleetStrategy(1.0, 0.5)):
                result = solve_inverse(strategy, q, net)
                assert not result.certificate.theorem_applies
                solutions += len(result.solutions)
        assert solutions == 103
        assert calls == {"gap": 128, "validated": 128}

    def test_dense_inverses_form_one_route_gradient(self, monkeypatch):
        # on the seven fixtures that are not separable, one route gradient
        # matrix, from one evaluation of the link slopes, gives each inverse
        # its certificate and its operator (14 matrices when the
        # certificate formed its own, 14 slope evaluations when the form's
        # test for shared slopes took its own)
        names = ["two_od", "two_unit", "two_stage_overlap", "two_stage_overlap_concentrated",
                 "two_route_common_links", "cross_dependent_stable", "cross_dependent_unstable"]
        scenarios = [parse_scenario(fixture_path(name)) for name in names]
        assert not any(scenario.network.separable for scenario in scenarios)
        made = collections.Counter()
        for owner, name in ((Network, "_route_gradient_at"), (network.DelayTable, "derivatives")):
            method = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda self, a, name=name, method=method: made.update([name]) or method(self, a)
            )
        for scenario in scenarios:
            solve_inverse(scenario.strategy, scenario.observed_route_flows, scenario.network)
        assert made == {"_route_gradient_at": 7, "derivatives": 7}

    def test_one_route_gradient_per_descent_iteration(self, monkeypatch):
        # the descent's objective gradient and Hessian share one travel-time
        # gradient per iteration, built from one evaluation of the link
        # slopes at the point's link flows: the matrix, or on the separable
        # ladder and two-route networks its diagonal, and there no matrix at
        # all
        calls = []
        form = Network._route_gradient_form_at

        def recording(self, a):
            grad = form(self, a)
            calls.append(grad.ndim)
            return grad

        monkeypatch.setattr(Network, "_route_gradient_form_at", recording)
        slopes = network.DelayTable.derivatives
        evaluations = []
        monkeypatch.setattr(network.DelayTable, "derivatives",
                            lambda self, a: evaluations.append(a) or slopes(self, a))
        descend = forward._descend
        descents = []

        def counting(*args):
            before, evaluated = len(calls), len(evaluations)
            out = descend(*args)
            assert len(evaluations) - evaluated == len(calls) - before
            descents.append((args[2].separable, calls[before:], out[1]))
            return out

        monkeypatch.setattr(forward, "_descend", counting)
        ladder = route_ladder()
        for strategy, (h, net) in [(SELFISH, ladder[4]), (DISRUPTIVE, ladder[3])]:
            fleet_assign(strategy, h, net, certify=False)
        fleet_assign(MALICIOUS, np.array([40.0, 20.0]), asymmetric_two_route())
        fleet_assign(SELFISH, np.array([100.0, 50.0, 80.0, 70.0]), overlap_network())
        assert len(descents) >= 41 and sum(n for *_, n in descents) >= 100
        assert [separable for separable, *_ in descents].count(False) >= 1
        for separable, made, iterations in descents:
            assert 1 <= len(made) <= iterations + 1
            assert set(made) == {1 if separable else 2}


class TestCertify:
    def test_interior_stationary_point(self):
        net = single_od_network([AffineDelay(1, 1)] * 2, q_hdv=0.0, q_crv=10.0)
        cert = certify_local_min(SELFISH, np.zeros(2), np.array([5.0, 5.0]), net)
        assert cert.is_local_min
        assert cert.min_directional_derivative == pytest.approx(0.0, abs=1e-8)

    def test_corner_minimum_passes(self):
        net = symmetric_quadratic()
        cert = certify_local_min(MALICIOUS, np.array([25.0, 25.0]), np.array([50.0, 0.0]), net)
        assert cert.is_local_min

    def test_interior_maximum_fails(self):
        # first-order flat but strictly concave along the pair swap
        net = symmetric_quadratic()
        cert = certify_local_min(MALICIOUS, np.array([25.0, 25.0]), np.array([25.0, 25.0]), net)
        assert not cert.is_local_min

    @pytest.mark.parametrize("name", ["two_route_asymmetric", "signalized_link"])
    def test_flat_derivative_stable_under_one_ulp(self, name):
        # interior minima: the exact derivative is zero, so the reported
        # value is rounding only and must not follow the last bit of f
        sc = parse_scenario(fixture_path(name))
        h = sc.hdv_route_flows
        f = fleet_assign(sc.strategy, h, sc.network, config=sc.config).f
        base = certify_local_min(sc.strategy, h, f, sc.network)
        assert abs(base.min_directional_derivative) <= 1e-12
        for r in range(len(f)):
            for toward in (-np.inf, np.inf):
                g = f.copy()
                g[r] = np.nextafter(g[r], toward)
                cert = certify_local_min(sc.strategy, h, g, sc.network)
                moved = abs(cert.min_directional_derivative - base.min_directional_derivative)
                assert moved <= 1e-12

    def test_saddle_without_a_descending_pair_fails(self):
        # disruptive BPR-4 routes: phi_r'' = 4 t0 x^2 / c^4 * (5 f_r - h_r), so
        # route 0 (h > 5 f) curves down, yet every pair swap curves up; moving
        # mass from routes 1 and 2 into route 0 together descends.  t0 puts
        # phi_r' at 1 on every route: f is first-order stationary.
        h, f, cap = np.array([40.0, 30.0, 30.0]), np.array([4.0, 16.0, 16.0]), 60.0
        x = h + f
        t0 = 1.0 / (1.0 + (x / cap) ** 4 + 4.0 * (f - h) * x**3 / cap**4)
        net = single_od_network([BPRDelay(float(t), 1.0, cap, 4.0) for t in t0], q_hdv=100.0, q_crv=36.0)
        curvature = np.diag(objective_hessian_in_f(DISRUPTIVE, h, f, net))
        assert curvature[0] < 0.0
        assert min(curvature[i] + curvature[j] for i, j in itertools.combinations(range(3), 2)) > 0.0
        assert curvature @ np.array([4.0, 1.0, 1.0]) < 0.0  # along (2, -1, -1)
        cert = certify_local_min(DISRUPTIVE, h, f, net)
        assert cert.min_directional_derivative == pytest.approx(0.0, abs=1e-12)
        assert not cert.is_local_min

    @pytest.mark.parametrize("t0,local_min", [(2.0, False), (1.5, True)])
    def test_degenerate_corner(self, t0, local_min):
        # malicious, t_r = t0_r (1 + x^2): the gradient is -2 t0_r h_r x_r, so
        # at f = (10, 0) the only feasible pair moves mass into the empty
        # route 1 with derivative 400 - 20 t0; at t0 = 2 that pair is flat
        # and curves down (-2 (10 + 20)), at 1.5 it rises at first order
        net = single_od_network([BPRDelay(1.0, 1.0, 1.0, 2.0), BPRDelay(t0, 1.0, 1.0, 2.0)], q_hdv=20.0, q_crv=10.0)
        h, f = np.array([10.0, 10.0]), np.array([10.0, 0.0])
        cert = certify_local_min(MALICIOUS, h, f, net)
        assert cert.min_directional_derivative == pytest.approx(400.0 - 200.0 * t0, abs=1e-9)
        assert cert.is_local_min == local_min

    @pytest.mark.parametrize(
        "h,f,match",
        [
            ([25.0, 25.0], [0.0, 0.0], "fleet flows must be finite and lie in the feasible set"),
            ([25.0, 25.0], [60.0, -10.0], "fleet flows must be finite and lie in the feasible set"),
            ([25.0, 25.0], [math.nan, 50.0], "fleet flows must be finite and lie in the feasible set"),
            ([25.0, math.inf], [25.0, 25.0], "HDV flows must be finite"),
            ([-1.0, 26.0], [25.0, 25.0], "HDV flows must be non-negative"),
        ],
    )
    def test_outside_the_feasible_set_rejected(self, h, f, match):
        # the fleet size is 50: at f = (0, 0) no pair swap is feasible, and
        # the certificate used to pass with derivative inf
        net = symmetric_quadratic()
        with pytest.raises(InfeasibleProblemError, match=match):
            certify_local_min(MALICIOUS, np.array(h), np.array(f), net)

    def test_wrong_length_rejected(self):
        net = symmetric_quadratic()
        with pytest.raises(DimensionMismatchError):
            certify_local_min(SELFISH, np.zeros(2), np.array([50.0, 0.0, 0.0]), net)

    def test_derivative_is_the_least_pair_derivative(self):
        # a non-stationary point with one route at zero: the pairs move mass
        # from a route above 0 into any other route of its unit
        net = overlap_network()
        h, f = np.array([100.0, 50.0, 80.0, 70.0]), np.array([60.0, 0.0, 25.0, 15.0])
        c = objective_gradient_in_f(DISRUPTIVE, h, f, net)
        c = c - np.mean(c)
        least = min(c[i] - c[j] for i, j in itertools.permutations(range(4), 2) if f[j] > 0.0)
        cert = certify_local_min(DISRUPTIVE, h, f, net)
        assert least < 0.0
        assert cert.min_directional_derivative == least
        assert not cert.is_local_min

    def test_work_counters(self, monkeypatch):
        # one evaluation of f's point, one gradient, at most one Hessian,
        # and no other point evaluated or sampled: no finite differences,
        # no random directions
        h, net = route_ladder()[3]
        f = fleet_assign(SELFISH, h, net, certify=False).f
        counts = collections.Counter()
        for name in ("_evaluate", "_gradient_in_f", "_hessian_in_f"):
            def counting(*args, _name=name, _original=getattr(forward, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(forward, name, counting)
        monkeypatch.setattr(FeasibleSet, "random_point", None)
        cert = certify_local_min(SELFISH, h, f, net)
        assert cert.is_local_min
        assert counts["_evaluate"] == 1
        assert counts["_gradient_in_f"] == 1
        assert counts["_hessian_in_f"] <= 1


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
            f, *_ = _descend(SELFISH, h, fig_two_route, fset, f0, DEFAULT_CONFIG)
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
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = rng.uniform(0, 50, 2)
            result = solve_concave(MALICIOUS, h, net)
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


class TestCapValidation:
    # a cap vector of the wrong length used to be accepted (length 4 for 3
    # routes) or to raise numpy's IndexError (length 2), and a negative cap
    # to be accepted until solve_convex refused its own answer
    @pytest.mark.parametrize(
        "upper,error,match",
        [
            ([60.0, 60.0, 60.0, 60.0], DimensionMismatchError, "upper bound vector has wrong length"),
            ([60.0, 60.0], DimensionMismatchError, "upper bound vector has wrong length"),
            ([[60.0, 60.0, 60.0]], DimensionMismatchError, "upper bound vector has wrong length"),
            ([60.0, -1.0, 60.0], InfeasibleProblemError, "upper bounds must be non-negative"),
            ([60.0, -math.inf, 60.0], InfeasibleProblemError, "upper bounds must be non-negative"),
        ],
    )
    def test_both_constructors_refuse_the_cap(self, upper, error, match):
        net = three_affine_routes()
        with pytest.raises(error, match=match):
            FeasibleSet(blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=3, upper=np.array(upper))
        with pytest.raises(error, match=match):
            route_fiber(net, net.route_to_link(np.array([10.0, 10.0, 10.0])), upper=upper)

    def test_lists_are_taken_as_float_arrays(self):
        # totals=[30] and upper as a list used to raise a bare TypeError
        # from the checks; both are converted once, at construction
        net = three_affine_routes()
        feasible = FeasibleSet(blocks=net.unit_blocks(), totals=[30], n_routes=3, upper=[60, 5, 60])
        assert feasible.totals.dtype == feasible.upper.dtype == np.float64
        assert feasible.total_mass == 30.0
        expected = FeasibleSet.from_network(net, upper=np.array([60.0, 5.0, 60.0]))
        v = np.array([40.0, 10.0, -5.0])
        np.testing.assert_array_equal(feasible.project(v), expected.project(v))
        with pytest.raises(InfeasibleProblemError, match="negative fleet mass"):
            FeasibleSet(blocks=net.unit_blocks(), totals=[-1.0], n_routes=3)


def _distinct_pairwise(points, scale):
    """_distinct as a pairwise loop, the reference its array form keeps."""
    kept = []
    for i, f in enumerate(points):
        if not any(float(np.max(np.abs(f - points[j]))) <= forward._TOL_DISTINCT * scale for j in kept):
            kept.append(i)
    return kept


class TestDistinct:
    @given(data=st.data(), scale=st.sampled_from([1.0, 3.0, 51.0, 1e6]), n_routes=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_keeps_the_pairwise_decisions(self, data, scale, n_routes):
        # entries on a grid of the window w, so that many differences are
        # exactly w (kept apart only above it), plus the floats beside w,
        # NaN and inf (never within the window of anything)
        w = forward._TOL_DISTINCT * scale
        values = [0.0, w, 2.0 * w, -w, np.nextafter(w, math.inf), np.nextafter(w, 0.0), 1.0, math.nan, math.inf]
        rows = data.draw(st.lists(st.lists(st.sampled_from(values), min_size=n_routes, max_size=n_routes), max_size=12))
        points = [np.array(row) for row in rows]
        with np.errstate(invalid="ignore"):  # inf - inf
            assert forward._distinct(points, scale) == _distinct_pairwise(points, scale)

    def test_a_difference_of_exactly_the_window_is_not_distinct(self):
        w = forward._TOL_DISTINCT * 2.0
        points = [np.zeros(2), np.array([w, 0.0]), np.array([np.nextafter(w, math.inf), 0.0])]
        assert forward._distinct(points, 2.0) == [0, 2]


class TestExplicitSeed:
    # None used to mean the solver config's seed; no config holds one now,
    # and numpy would take None as a request for fresh OS entropy
    def test_none_is_refused(self):
        sc = parse_scenario(fixture_path("signalized_link"))
        h, net = sc.hdv_route_flows, sc.network
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew a generator")):
            for call in (lambda: fleet_assign(DISRUPTIVE, h, net, seed=None),
                         lambda: fleet_assign(SELFISH, h, net, seed=None),
                         lambda: solve_general(DISRUPTIVE, h, net, seed=None)):
                with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*63\), got None"):
                    call()

"""Two-route Stackelberg analysis: induced equilibria, corner mixtures,
support verification, and the myopic/Nash comparison."""

import inspect

import numpy as np
import pytest

from fleet_inverse import (
    BPRDelay,
    FeasibleSet,
    FleetModelError,
    FleetStrategy,
    GeneralMixture,
    MixedCornerStrategy,
    compare_routings,
    expected_fleet_objective,
    expected_hdv_time,
    induced_ue,
    optimize_corner_mixture,
    single_od_network,
    verify_corner_support,
)
from fleet_inverse.dynamics import SimulationConfig, simulate
from fleet_inverse.network import Network
from fleet_inverse.scenario import fixture_path, parse_scenario
from fleet_inverse import stackelberg
from fleet_inverse.stackelberg import _expected_objectives, _induced_ue_batch
from conftest import (
    asymmetric_two_route,
    cross_dependent_two_route,
    symmetric_quadratic,
    three_affine_routes,
)

MALICIOUS = FleetStrategy.preset("malicious")
# the two-decimal grid steps whose last np.arange point lies above 1
OVERSHOOTING_RESOLUTIONS = [
    k / 100 for k in range(1, 101) if np.arange(0.0, 1.0 + k / 200, k / 100)[-1] > 1.0
]


class TestInducedUE:
    def test_symmetric_even_mixture(self):
        net = symmetric_quadratic()
        h = induced_ue(MixedCornerStrategy(0.5).as_mixture(), network=net)
        np.testing.assert_array_equal(h, [25.0, 25.0])

    def test_symmetric_pure_corner(self):
        net = symmetric_quadratic()
        h = induced_ue(MixedCornerStrategy(1.0).as_mixture(), network=net)
        np.testing.assert_array_equal(h, [0.0, 50.0])

    def test_without_a_network(self):
        with pytest.raises(TypeError, match="network"):
            induced_ue(MixedCornerStrategy(0.5).as_mixture())

    def test_no_fleet_even_split(self):
        net = symmetric_quadratic(q_crv=0.0)
        h = induced_ue(GeneralMixture(points=((0.5, 1.0),)), network=net)
        np.testing.assert_allclose(h, [25.0, 25.0], atol=1e-9)

    def test_equilibrium_residual(self):
        net = asymmetric_two_route()
        for p in np.linspace(0.0, 1.0, 11):
            mixture = MixedCornerStrategy(float(p)).as_mixture()
            h = induced_ue(mixture, network=net)
            if 0.0 < h[0] < 50.0:
                c1 = c2 = 0.0
                for alpha, w in mixture.points:
                    q = np.array([h[0] + alpha * 50.0, h[1] + (1 - alpha) * 50.0])
                    t = net.route_times(q)
                    c1 += w * t[0]
                    c2 += w * t[1]
                assert abs(c1 - c2) <= 1e-8

    def test_monotone_in_p(self):
        net = symmetric_quadratic()
        previous = np.inf
        for p in np.linspace(0.0, 1.0, 21):
            h = induced_ue(MixedCornerStrategy(float(p)).as_mixture(), network=net)
            assert h[0] <= previous + 1e-9
            previous = h[0]

    def test_route_swap_symmetry(self):
        net = symmetric_quadratic()
        for p in (0.2, 0.35, 0.8):
            h = induced_ue(MixedCornerStrategy(p).as_mixture(), network=net)
            h_swapped = induced_ue(MixedCornerStrategy(1.0 - p).as_mixture(), network=net)
            np.testing.assert_allclose(h, h_swapped[::-1], atol=1e-9)

    def test_requires_two_routes(self):
        net = three_affine_routes()
        with pytest.raises(FleetModelError):
            induced_ue(MixedCornerStrategy(0.5).as_mixture(), network=net)


class TestExpectedObjective:
    def test_degenerate_mixture_is_plain_objective(self):
        from fleet_inverse import eval_objective

        net = symmetric_quadratic()
        mixture = GeneralMixture(points=((1.0, 1.0),))
        h = np.array([10.0, 40.0])
        value = expected_fleet_objective(MALICIOUS, mixture, h, net)
        direct = eval_objective(MALICIOUS, h, np.array([50.0, 0.0]), net)
        assert value == pytest.approx(direct, rel=1e-12)

    def test_symmetric_pair_equal(self):
        net = symmetric_quadratic()
        for p in (0.1, 0.3):
            m = MixedCornerStrategy(p).as_mixture()
            m_swap = MixedCornerStrategy(1.0 - p).as_mixture()
            h = induced_ue(m, network=net)
            h_swap = induced_ue(m_swap, network=net)
            v = expected_fleet_objective(MALICIOUS, m, h, net)
            v_swap = expected_fleet_objective(MALICIOUS, m_swap, h_swap, net)
            assert v == pytest.approx(v_swap, rel=1e-10)

    def test_even_mixture_beats_pure_corner(self):
        # frozen values: expected HDV time 156300 at p = 0.5 versus 125050 at
        # p = 1 on the symmetric instance with delay 1 + x^2
        net = symmetric_quadratic()
        m_even = MixedCornerStrategy(0.5).as_mixture()
        m_pure = MixedCornerStrategy(1.0).as_mixture()
        t_even = expected_hdv_time(m_even, induced_ue(m_even, network=net), net)
        t_pure = expected_hdv_time(m_pure, induced_ue(m_pure, network=net), net)
        assert t_even == pytest.approx(156300.0, rel=1e-12)
        assert t_pure == pytest.approx(125050.0, rel=1e-12)
        assert t_even > t_pure


class TestOptimizeCornerMixture:
    def test_symmetric_optimum_at_half(self):
        net = symmetric_quadratic()
        result = optimize_corner_mixture(MALICIOUS, net)
        assert result.p_best == pytest.approx(0.5, abs=1e-5)
        assert result.objective_best == pytest.approx(-156300.0, rel=1e-9)
        assert all(abs(p - 0.5) < 1e-5 or abs((1.0 - p) - 0.5) < 1e-5 for p in result.optima)

    def test_optimum_set_symmetric(self):
        net = symmetric_quadratic()
        result = optimize_corner_mixture(MALICIOUS, net)
        for p in result.optima:
            mirrored = 1.0 - p
            assert any(abs(mirrored - other) < 1e-4 for other in result.optima)

    def test_no_fleet_degenerate(self):
        net = symmetric_quadratic(q_crv=0.0)
        result = optimize_corner_mixture(MALICIOUS, net)
        assert result.degenerate

    def test_asymmetric_matches_grid(self):
        net = asymmetric_two_route()
        result = optimize_corner_mixture(MALICIOUS, net)
        grid = np.arange(0.0, 1.0005, 0.001)
        values = []
        for p in grid:
            m = MixedCornerStrategy(float(p)).as_mixture()
            h = induced_ue(m, network=net)
            values.append(expected_fleet_objective(MALICIOUS, m, h, net))
        p_star = grid[int(np.argmin(values))]
        assert result.p_best == pytest.approx(p_star, abs=0.005)


class TestCornerSupport:
    def test_interior_pure_strategy_dominated(self):
        net = symmetric_quadratic()
        m_mid = GeneralMixture(points=((0.5, 1.0),))
        h_mid = induced_ue(m_mid, network=net)
        t_mid = expected_hdv_time(m_mid, h_mid, net)
        m_even = MixedCornerStrategy(0.5).as_mixture()
        t_even = expected_hdv_time(m_even, induced_ue(m_even, network=net), net)
        assert t_even > t_mid + 1000.0

    def test_grid_margins_nonnegative(self):
        net = symmetric_quadratic()
        report = verify_corner_support(net, resolution=0.05)
        assert report.worst_margin >= -1e-9
        assert report.mixtures_checked == 21**3

    def test_corner_self_comparison_margin_zero(self):
        net = symmetric_quadratic()
        report = verify_corner_support(net, resolution=0.25)
        assert report.worst_margin == pytest.approx(0.0, abs=1e-9)

    def test_one_corner_grid_per_cli_cell(self, tmp_path, monkeypatch):
        # optimize_corner_mixture and verify_corner_support read the same
        # 1,001-point malicious corner grid: a stackelberg run evaluates it
        # once (twice when each evaluated its own), and the grid is read-only
        from fleet_inverse import cli

        rows, grids = [], []
        mixture_values = stackelberg._mixture_values
        monkeypatch.setattr(
            stackelberg, "_mixture_values",
            lambda strategy, alphas, *args: rows.append(len(alphas)) or mixture_values(strategy, alphas, *args),
        )
        corner_grid = stackelberg._corner_grid
        monkeypatch.setattr(stackelberg, "_corner_grid", lambda *args: grids.append(corner_grid(*args)) or grids[-1])
        scenario = str(fixture_path("stackelberg_symmetric"))
        assert cli.main(["stackelberg", "--scenario", scenario, "--out", str(tmp_path / "out.csv")]) == 0
        assert rows.count(1001) == 1
        assert len(grids) == 2 and grids[0] is grids[1] and not grids[0].flags.writeable

    @pytest.mark.parametrize("resolution", OVERSHOOTING_RESOLUTIONS)
    def test_overshooting_grid_is_clipped_to_one(self, resolution):
        # np.arange's last step lands above 1 for these steps (1.05 at 0.15),
        # and the sweep stopped on a split fraction outside [0, 1]
        n = len(np.arange(0.0, 1.0 + resolution / 2.0, resolution))
        report = verify_corner_support(symmetric_quadratic(), resolution=resolution)
        assert report.worst_margin >= -1e-9
        assert report.mixtures_checked == n**3
        assert all(0.0 <= c <= 1.0 for c in report.worst_mixture)


class TestCompareRoutings:
    def test_nash_cycle_detected(self):
        net = symmetric_quadratic()
        result = compare_routings(net, days=60, mu=0.2, seed=0)
        assert not result.nash_exists
        assert len(result.nash_cycle) == 2

    def test_no_fleet_trivial(self):
        net = symmetric_quadratic(q_crv=0.0)
        result = compare_routings(net, days=30, mu=0.2, seed=0)
        assert result.trivial and result.nash_exists

    def test_myopic_average_at_least_stackelberg(self):
        net = symmetric_quadratic()
        result = compare_routings(net, days=200, mu=0.2, seed=0)
        assert result.myopic_mean_hdv_time >= result.stackelberg_hdv_time

    def test_corner_zero_answers_itself(self, monkeypatch):
        # the fleet's best answer to the HDV equilibrium of corner 0 is corner
        # 0 again, a branch none of the pinned cycles below reaches; the
        # check then solves one induced equilibrium
        net = single_od_network(
            [BPRDelay(6.2284, 1.0, 59.23, 2.0), BPRDelay(7.5928, 1.0, 24.383, 1.0)],
            q_hdv=70.46,
            q_crv=30.54,
        )
        calls = []
        monkeypatch.setattr(stackelberg, "induced_ue", lambda *args: calls.append(1) or induced_ue(*args))
        result = compare_routings(net, days=20, mu=0.2, seed=0)
        assert (result.nash_exists, result.nash_cycle) == (True, (0,))
        assert len(calls) == 1

    def test_nash_check_solves_one_equilibrium_per_corner(self, monkeypatch):
        calls = []
        monkeypatch.setattr(stackelberg, "induced_ue", lambda *args: calls.append(1) or induced_ue(*args))
        for name, net in two_route_networks().items():
            calls.clear()
            compare_routings(net, days=5, mu=0.2, seed=0)
            assert 1 <= len(calls) <= 2, name

    def test_corners_enumerated_once_per_search(self, monkeypatch):
        # the myopic simulation and the Nash search each enumerate the fleet's
        # corners once (22 enumerations over 20 days and the search when each
        # day and each search step enumerated them), with the same cycles
        calls = []
        vertices = FeasibleSet.vertices
        monkeypatch.setattr(FeasibleSet, "vertices", lambda *args: calls.append(1) or vertices(*args))
        cycles = {}
        for name, net in two_route_networks().items():
            calls.clear()
            result = compare_routings(net, days=20, mu=0.2, seed=0)
            assert len(calls) == 2, name
            cycles[name] = (result.nash_exists, result.nash_cycle)
        assert cycles == {
            "symmetric_quadratic": (False, (0, 1)),
            "asymmetric_bpr": (False, (0, 1)),
            "cross_affine": (True, (1,)),
            "two_route_common_links": (False, (0, 1)),
            "signalized_link": (False, (0, 1)),
        }

    @pytest.mark.parametrize("days,burn_in", [(1, 0), (3, 0), (4, 1), (30, 7), (200, 50)])
    def test_the_first_quarter_of_the_days_is_discarded(self, days, burn_in):
        net = symmetric_quadratic()
        result = compare_routings(net, days=days, mu=0.2, seed=0)
        states = simulate(
            SimulationConfig(days=days, mu=0.2, seed=0, strategy=MALICIOUS), [30.0, 20.0], net
        )
        assert (result.myopic_days, result.burn_in) == (days, burn_in)
        assert result.myopic_mean_hdv_time == float(np.mean([s.t_hdv for s in states[burn_in:]]))


class TestSignatures:
    # the demands are the network's OD unit's, never per-call overrides
    @pytest.mark.parametrize(
        "fn,parameters",
        [
            (induced_ue, ["mixture", "network"]),
            (expected_fleet_objective, ["strategy", "mixture", "h", "network"]),
            (expected_hdv_time, ["mixture", "h", "network"]),
            (optimize_corner_mixture, ["strategy", "network"]),
            (verify_corner_support, ["network", "resolution"]),
            (compare_routings, ["network", "days", "mu", "seed", "config"]),
        ],
    )
    def test_no_demand_parameters(self, fn, parameters):
        assert list(inspect.signature(fn).parameters) == parameters


def two_route_networks() -> dict[str, Network]:
    nets = {
        "symmetric_quadratic": symmetric_quadratic(),
        "asymmetric_bpr": asymmetric_two_route(),
        "cross_affine": cross_dependent_two_route(2.0, -0.5),
    }
    for name in ("two_route_common_links", "signalized_link"):
        nets[name] = parse_scenario(fixture_path(name)).network
    return nets


def scalar_induced_ue(mixture, network, ue_tol=stackelberg._UE_TOL) -> np.ndarray:
    """One mixture's Illinois solve with scalar arithmetic, point by point:
    the reference the batched solve must match bit for bit."""
    unit = network.units[0]
    q_hdv, q_crv = unit.q_hdv, unit.q_crv

    def diff(h1):
        c1 = c2 = 0.0
        for alpha, w in mixture.points:
            if w == 0.0:
                continue
            t = network.route_times(np.array([h1 + alpha * q_crv, q_hdv - h1 + (1.0 - alpha) * q_crv]))
            c1 += w * t[0]
            c2 += w * t[1]
        return c1 - c2

    a, b = 0.0, q_hdv
    fa = diff(a)
    if fa >= 0.0:
        return np.array([0.0, q_hdv])
    fb = diff(b)
    if fb <= 0.0:
        return np.array([q_hdv, 0.0])
    x, side = 0.5 * (a + b), 0
    for _ in range(200):
        if fb != fa:
            x = (a * fb - b * fa) / (fb - fa)
        if not np.isfinite(x) or not a <= x <= b:
            x = 0.5 * (a + b)
        fx = diff(x)
        if abs(fx) <= ue_tol or (b - a) <= 1e-15 * q_hdv:
            break
        if fx < 0.0:
            a, fa = x, fx
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side == 1:
                fa *= 0.5
            side = 1
    return np.array([x, q_hdv - x])


class TestBatchedIllinois:
    """One vectorized Illinois iterate per grid; each row is bit-identical
    to the single-mixture solve."""

    @pytest.mark.parametrize("name", sorted(two_route_networks()))
    def test_rows_match_induced_ue(self, name):
        net = two_route_networks()[name]
        rng = np.random.default_rng(3)
        alphas = rng.uniform(0.0, 1.0, size=(120, 2))
        w = rng.uniform(0.0, 1.0, size=120)
        alphas[:8] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.5, 0.5]] + [[1.0, 0.0]] * 3
        w[:8] = [0.5, 0.5, 0.3, 0.7, 1.0, 0.0, 1.0, 0.25]  # zero weights are never evaluated
        weights = np.column_stack((w, 1.0 - w))
        unit = net.units[0]
        h = _induced_ue_batch(alphas, weights, unit.q_hdv, unit.q_crv, net)
        values = _expected_objectives(MALICIOUS, alphas, weights, h, net, unit.q_crv)
        for i in range(len(alphas)):
            mixture = GeneralMixture(points=((alphas[i, 0], w[i]), (alphas[i, 1], 1.0 - w[i])))
            single = induced_ue(mixture, network=net)
            assert h[i].tobytes() == single.tobytes()
            assert h[i].tobytes() == scalar_induced_ue(mixture, net).tobytes()
            assert values[i] == expected_fleet_objective(MALICIOUS, mixture, single, net)

    @pytest.mark.parametrize("name", sorted(two_route_networks()))
    def test_three_point_rows_match_the_scalar_solve(self, name):
        # three weighted terms: the sum order over the points shows
        net = two_route_networks()[name]
        rng = np.random.default_rng(4)
        alphas = rng.uniform(0.0, 1.0, size=(40, 3))
        weights = rng.dirichlet(np.ones(3), size=40)
        weights[0, 1] = 0.0
        weights[0] /= weights[0].sum()
        unit = net.units[0]
        h = _induced_ue_batch(alphas, weights, unit.q_hdv, unit.q_crv, net)
        for i in range(len(alphas)):
            mixture = GeneralMixture(points=tuple(zip(alphas[i].tolist(), weights[i].tolist())))
            assert h[i].tobytes() == scalar_induced_ue(mixture, net).tobytes()

    def test_no_hdv_demand(self):
        net = symmetric_quadratic(q_hdv=0.0)
        alphas, weights = np.array([[1.0, 0.0]] * 3), np.array([[0.2, 0.8]] * 3)
        h = _induced_ue_batch(alphas, weights, 0.0, 50.0, net)
        np.testing.assert_array_equal(h, np.zeros((3, 2)))

    def test_corner_support_work_gate(self, monkeypatch):
        # the criterion-7 call: 21**3 mixtures and 1001 corner points take
        # 8 batched route_times calls over 78,317 rows; one scalar solve per
        # grid point took 78,317 calls
        calls, rows = [], []
        route_times = Network.route_times

        def counted(self, q):
            calls.append(1)
            rows.append(len(q) if np.ndim(q) == 2 else 1)
            return route_times(self, q)

        monkeypatch.setattr(Network, "route_times", counted)
        report = verify_corner_support(symmetric_quadratic(), resolution=0.05)
        assert report.mixtures_checked == 21**3
        assert len(calls) <= 100
        assert sum(rows) <= 80_000

"""Day-to-day adaptation loop."""

import math

import numpy as np
import pytest

from fleet_inverse import (
    BPRDelay,
    DayState,
    FleetStrategy,
    Network,
    SimulationConfig,
    fleet_assign,
    hdv_day_update,
    simulate,
    single_od_network,
)
from fleet_inverse.scenario import fixture_path, parse_scenario
from conftest import asymmetric_two_route, symmetric_quadratic, two_od_overlap

MALICIOUS = FleetStrategy.preset("malicious")
SELFISH = FleetStrategy.preset("selfish")


def make_state(net, h, f):
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float)
    times = net.route_times(h + f)
    return DayState(
        day=0, h=h, f=f, route_times=times,
        t_hdv=float(h @ times), t_crv=float(f @ times),
    )


class TestDayUpdate:
    def test_zero_rate_keeps_flows(self):
        net = symmetric_quadratic()
        config = SimulationConfig(mu=0.0, strategy=SELFISH)
        state = make_state(net, [30.0, 20.0], [0.0, 0.0])
        np.testing.assert_array_equal(hdv_day_update(config, state, net), [30.0, 20.0])

    def test_full_rate_is_pure_best_response(self):
        net = asymmetric_two_route()
        config = SimulationConfig(mu=1.0, strategy=SELFISH)
        state = make_state(net, [30.0, 20.0], [0.0, 0.0])
        times = state.route_times
        assert times[0] < times[1]
        np.testing.assert_allclose(hdv_day_update(config, state, net), [50.0, 0.0])

    def test_half_rate_convex_combination(self):
        net = asymmetric_two_route()
        config = SimulationConfig(mu=0.5, strategy=SELFISH)
        state = make_state(net, [30.0, 20.0], [0.0, 0.0])
        target = np.array([50.0, 0.0])
        expected = 0.5 * state.h + 0.5 * target
        np.testing.assert_allclose(hdv_day_update(config, state, net), expected)

    def test_half_rate_toward_emptier_route(self):
        # identical routes, more HDVs on route 1: the target is (0, 50) and
        # the blend lands at (15, 35)
        net = symmetric_quadratic()
        config = SimulationConfig(mu=0.5, strategy=SELFISH)
        state = make_state(net, [30.0, 20.0], [0.0, 0.0])
        np.testing.assert_allclose(hdv_day_update(config, state, net), [15.0, 35.0])

    def test_tie_split_equally(self):
        net = symmetric_quadratic()
        config = SimulationConfig(mu=1.0, strategy=SELFISH)
        state = make_state(net, [25.0, 25.0], [0.0, 0.0])
        np.testing.assert_allclose(hdv_day_update(config, state, net), [25.0, 25.0])

    def test_logit_shares(self):
        net = symmetric_quadratic()
        config = SimulationConfig(mu=1.0, model="logit", theta=0.01, strategy=SELFISH)
        state = make_state(net, [30.0, 20.0], [0.0, 0.0])
        updated = hdv_day_update(config, state, net)
        t = state.route_times
        w = np.exp(-0.01 * (t - t.min()))
        np.testing.assert_allclose(updated, 50.0 * w / w.sum())
        assert updated.sum() == pytest.approx(50.0)


class TestSimulate:
    def test_malicious_corner_alternation(self):
        net = symmetric_quadratic()
        config = SimulationConfig(days=60, mu=0.2, seed=0, strategy=MALICIOUS)
        states = simulate(config, np.array([30.0, 20.0]), net)
        corners = [int(np.argmax(s.f)) for s in states]
        assert corners[0] == 0  # day one: all fleet on the busier route 1
        assert set(corners) == {0, 1}
        # both corners inside every window of ceil(2/mu) + 2 days past transient
        window = math.ceil(2 / config.mu) + 2
        for start in range(20, len(corners) - window):
            assert set(corners[start : start + window]) == {0, 1}

    def test_selfish_stabilizes(self):
        net = asymmetric_two_route()
        config = SimulationConfig(days=300, mu=0.3, seed=0, strategy=SELFISH)
        states = simulate(config, np.array([40.0, 10.0]), net)
        last = states[-1].h - states[-2].h
        assert float(np.max(np.abs(last))) < 1e-3
        # rest point: no HDV gains by switching, so every route carrying HDV
        # flow attains the minimum time (here a corner with route 1 fastest)
        final = states[-1]
        t_min = float(np.min(final.route_times))
        for r in range(2):
            if final.h[r] > 1e-6:
                assert final.route_times[r] <= t_min + 1e-6 * (1.0 + t_min)
        # and the fleet side is a best response too: certificate holds
        from fleet_inverse import FeasibleSet, certify_local_min

        cert = certify_local_min(
            SELFISH, final.h, final.f, net, FeasibleSet.from_network(net)
        )
        assert cert.is_local_min

    def test_no_fleet_tie_state_is_one_step_fixed_point(self):
        # pure best response with the equal-split tie rule: the symmetric
        # state reproduces itself immediately
        net = symmetric_quadratic(q_crv=0.0)
        config = SimulationConfig(days=3, mu=1.0, seed=0, strategy=SELFISH)
        states = simulate(config, np.array([25.0, 25.0]), net)
        np.testing.assert_allclose(states[1].h, [25.0, 25.0])
        np.testing.assert_allclose(states[2].h, [25.0, 25.0])

    def test_conservation_and_time_identities(self):
        net = two_od_overlap()
        config = SimulationConfig(days=40, mu=0.25, seed=1, strategy=SELFISH)
        h0 = np.array([20.0, 10.0, 12.0, 18.0])
        states = simulate(config, h0, net)
        blocks = net.unit_blocks()
        for state in states:
            for block, unit in zip(blocks, net.units):
                assert float(state.h[block].sum()) == pytest.approx(
                    float(h0[block].sum()), abs=1e-9
                )
                assert float(state.f[block].sum()) == pytest.approx(unit.q_crv, abs=1e-9)
            q = state.h + state.f
            total = float(q @ state.route_times)
            assert state.t_hdv + state.t_crv == pytest.approx(total, rel=1e-10)

    def test_deterministic_given_seed(self):
        net = symmetric_quadratic()
        config = SimulationConfig(days=30, mu=0.2, seed=5, strategy=MALICIOUS)
        a = simulate(config, np.array([30.0, 20.0]), net)
        b = simulate(config, np.array([30.0, 20.0]), net)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.h, sb.h)
            np.testing.assert_array_equal(sa.f, sb.f)


def _cross_affine():
    return parse_scenario(fixture_path("cross_dependent_stable")).network


def _bpr4_pair():
    # power 4 under the disruptive strategy is indefinite: multistart with
    # random starts drawn from each day's seed
    return single_od_network([BPRDelay(1.0, 1.0, 10.0, 4.0), BPRDelay(2.0, 1.0, 12.0, 4.0)], q_hdv=30, q_crv=12)


class TestSolverChosenOnce:
    @pytest.mark.parametrize("build,preset,h0,model,days", [
        (_cross_affine, "selfish", [30.0, 20.0], "smoothed", 100),
        (_cross_affine, "malicious", [30.0, 20.0], "logit", 100),
        (_bpr4_pair, "disruptive", [18.0, 12.0], "smoothed", 10),
    ])
    def test_days_match_fleet_assign_with_one_classification(self, build, preset, h0, model, days, monkeypatch):
        # every day solves as fleet_assign(..., seed=seed + day,
        # certify=False) does, bit for bit, but the convexity class (on the
        # cross-affine network one feasible-direction basis) is decided once
        # a run, not once a day
        net = build()
        config = SimulationConfig(days=days, mu=0.2, model=model, seed=7, strategy=FleetStrategy.preset(preset))
        reference, h = [], np.array(h0)
        for day in range(config.days):
            f = fleet_assign(config.strategy, h, net, seed=config.seed + day, certify=False).f
            times = net.route_times(h + f)
            reference.append((h.copy(), f, times, float(h @ times), float(f @ times)))
            h = hdv_day_update(config, make_state(net, h, f), net)
        bases = []
        basis = Network.feasible_direction_basis
        monkeypatch.setattr(Network, "feasible_direction_basis", lambda self: bases.append(1) or basis(self))
        states = simulate(config, np.array(h0), net)
        assert len(bases) == (1 if build is _cross_affine else 0)
        for state, (h, f, times, t_hdv, t_crv) in zip(states, reference, strict=True):
            for got, want in ((state.h, h), (state.f, f), (state.route_times, times)):
                assert got.tobytes() == want.tobytes()
            assert (state.t_hdv, state.t_crv) == (t_hdv, t_crv)


class TestConfigValidation:
    def test_bad_mu(self):
        with pytest.raises(ValueError):
            SimulationConfig(mu=1.5)

    def test_bad_days(self):
        with pytest.raises(ValueError):
            SimulationConfig(days=0)

    def test_bad_model(self):
        with pytest.raises(ValueError):
            SimulationConfig(model="replicator")

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            SimulationConfig(model="logit", theta=0.0)

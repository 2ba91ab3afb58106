"""Cross-module properties: classifier vs numerical curvature, route-level
delay declarations, and seed determinism."""

import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import fleet_inverse
from fleet_inverse import (
    AffineDelay,
    BPRDelay,
    CrossAffineDelay,
    ConvexityKind,
    DEFAULT_CONFIG,
    FleetStrategy,
    Link,
    Network,
    ODUnit,
    Route,
    WebsterDelay,
    classify_convexity,
    eval_objective,
    fleet_assign,
    lipschitz_bound,
    single_od_network,
    verify_corner_support,
)
from fleet_inverse import dynamics, forward, inverse, network, objective, scenario, stackelberg
from fleet_inverse.config import SolverConfig
from conftest import fd_route_gradient, local_convexity_at, stationarity_map, symmetric_quadratic


class TestClassifierSecondDirectionalDerivative:
    def test_global_labels_match_numeric_curvature(self):
        # classify = convex everywhere implies the sampled second directional
        # derivative of the objective in f is never materially negative (and
        # the mirrored statement for concave)
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 4))
            net = single_od_network(
                [
                    BPRDelay(
                        float(rng.uniform(1, 5)),
                        float(rng.uniform(0.5, 2.0)),
                        float(rng.uniform(10, 50)),
                        float(rng.choice([1.0, 2.0, 4.0])),
                    )
                    for _ in range(n)
                ],
                q_hdv=30.0,
                q_crv=20.0,
            )
            strategy = FleetStrategy(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            kind = classify_convexity(strategy, net).kind
            if kind is ConvexityKind.INDEFINITE:
                continue
            h = rng.uniform(0.0, 20.0, n)
            f = rng.uniform(0.5, 15.0, n)
            g = rng.normal(0, 1, n)
            g -= g.mean()
            norm = float(np.max(np.abs(g)))
            if norm < 1e-9:
                continue
            g /= norm
            eps = 1e-3
            d2 = (
                eval_objective(strategy, h, f + eps * g, net)
                - 2.0 * eval_objective(strategy, h, f, net)
                + eval_objective(strategy, h, f - eps * g, net)
            ) / eps**2
            checked += 1
            if kind is ConvexityKind.CONVEX_EVERYWHERE:
                assert d2 >= -1e-8 * (1.0 + abs(d2))
            else:
                assert d2 <= 1e-8 * (1.0 + abs(d2))

    @pytest.mark.parametrize("family", ["webster", "cross_affine"])
    def test_structural_labels_match_numeric_curvature(self, family):
        # the same check on the networks classified by structure: Webster
        # links with affine ones, and affine delays with cross dependence
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 300:
            n = int(rng.integers(2, 4))
            if family == "webster":
                delays = [
                    WebsterDelay(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.5, 2.0)), 60.0)
                    if rng.random() < 0.6
                    else AffineDelay(float(rng.uniform(1, 5)), float(rng.uniform(1, 10)))
                    for _ in range(n)
                ]
                net = single_od_network(delays, q_hdv=0.4, q_crv=0.3)
                h = rng.dirichlet(np.ones(n)) * 0.4
                f = 0.02 + rng.dirichlet(np.ones(n)) * 0.2
                eps = 1e-4
            else:
                ids = [f"l{i}" for i in range(n)]
                links = [
                    Link(
                        ids[i],
                        CrossAffineDelay(
                            float(rng.uniform(1, 5)),
                            float(rng.uniform(0.5, 2.0)),
                            {j: float(rng.uniform(-1.5, 1.5)) for j in ids if j != ids[i]},
                        ),
                    )
                    for i in range(n)
                ]
                routes = [Route(f"r{i}", (ids[i],)) for i in range(n)]
                unit = ODUnit("O", "D", q_hdv=30.0, q_crv=20.0, route_ids=tuple(r.id for r in routes))
                net = Network(links, routes, units=[unit])
                h = rng.dirichlet(np.ones(n)) * 30.0
                f = 1.0 + rng.dirichlet(np.ones(n)) * 15.0
                eps = 1e-2
            strategy = FleetStrategy(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            kind = classify_convexity(strategy, net).kind
            if kind is ConvexityKind.INDEFINITE:
                continue
            g = rng.normal(0, 1, n)
            g -= g.mean()
            g /= float(np.max(np.abs(g)))
            d2 = (
                eval_objective(strategy, h, f + eps * g, net)
                - 2.0 * eval_objective(strategy, h, f, net)
                + eval_objective(strategy, h, f - eps * g, net)
            ) / eps**2
            checked += 1
            if kind is ConvexityKind.CONVEX_EVERYWHERE:
                assert d2 >= -1e-6 * (1.0 + abs(d2))
            else:
                assert d2 <= 1e-6 * (1.0 + abs(d2))


class TestRouteLevelDelays:
    def build(self):
        # delays declared per route; the middle pair depends on each other's
        # route flow, so the system is not additive over physical links
        links = [
            Link("p1", CrossAffineDelay(1.0, 1.0, {"p2": 0.4})),
            Link("p2", CrossAffineDelay(1.0, 1.0, {"p1": 0.3})),
        ]
        routes = [Route("r1", ("p1",)), Route("r2", ("p2",))]
        unit = ODUnit("O", "D", q_hdv=20.0, q_crv=10.0, route_ids=("r1", "r2"))
        return Network(links, routes, units=[unit])

    def test_classified_by_structure(self):
        # affine and cross-affine delays make the objective quadratic, with
        # the constant Hessian lam_crv * (G + G^T) on feasible directions
        net = self.build()
        assert not net.link_additive
        selfish = classify_convexity(FleetStrategy.preset("selfish"), net)
        assert selfish.kind is ConvexityKind.CONVEX_EVERYWHERE
        assert selfish.per_link == ()
        # lam_crv = 0: the objective is linear in f
        malicious = classify_convexity(FleetStrategy.preset("malicious"), net)
        assert malicious.kind is ConvexityKind.CONCAVE_EVERYWHERE

    def test_forward_solver_handles_it(self):
        net = self.build()
        result = fleet_assign(FleetStrategy.preset("selfish"), np.array([12.0, 8.0]), net)
        assert result.trace.method == "projected_gradient"
        assert result.certificate.is_local_min
        assert result.f.sum() == pytest.approx(10.0, abs=1e-9)

    def test_fd_gradient_matches_analytic(self):
        net = self.build()
        q = np.array([14.0, 16.0])
        np.testing.assert_allclose(
            fd_route_gradient(net, q), net.route_gradient(q), rtol=1e-5, atol=1e-7
        )


class TestThreadDeterminism:
    def test_stability_bound_same_result_same_seed(self):
        # the samples are drawn from counter-based substreams of the seed
        net = symmetric_quadratic()
        s = FleetStrategy.preset("selfish")
        a = lipschitz_bound(s, net, samples=40, seed=2)
        b = lipschitz_bound(s, net, samples=40, seed=2)
        assert a == b
        other = lipschitz_bound(s, net, samples=40, seed=3)
        assert (other.rho, other.grad_norm) != (a.rho, a.grad_norm)


class TestLibraryRanges:
    @pytest.mark.parametrize(
        "name,value",
        [("resolution", 0.0), ("resolution", -0.1), ("resolution", 1.5), ("resolution", float("nan")),
         ("samples", 0), ("samples", -3)],
    )
    def test_out_of_range_argument(self, name, value):
        # the ranges the CLI enforces on --resolution and --samples: 0 used
        # to divide by zero, -0.1 to report a worst margin of inf over 0
        # mixtures, and -3 to report samples = -3
        net = symmetric_quadratic()
        with pytest.raises(ValueError, match=f"{name} must"):
            if name == "resolution":
                verify_corner_support(net, resolution=value)
            else:
                lipschitz_bound(FleetStrategy.preset("selfish"), net, samples=value)


def _bpr_pair(power: float):
    return single_od_network([BPRDelay(1.0, 1.0, 50.0, power)] * 2, q_hdv=30.0, q_crv=10.0)


# input checks of the library that no other test reaches, one case each
INPUT_CHECKS = [
    (lambda: FleetStrategy(float("nan"), 1.0), ValueError, "strategy weights must be finite"),
    (lambda: stackelberg.MixedCornerStrategy(1.5), ValueError, r"p must lie in \[0, 1\]"),
    (lambda: stackelberg.GeneralMixture(((0.5,),)), ValueError, "must be .split fraction, weight. pairs"),
    (lambda: stackelberg.GeneralMixture(((0.5, 0.7),)), ValueError, "weights must be non-negative and sum to one"),
    (lambda: stackelberg.GeneralMixture(((1.5, 1.0),)), ValueError, r"split fractions must lie in \[0, 1\]"),
    (lambda: eval_objective(FleetStrategy(0.0, 1.0), [1.0, 1.0], [1.0], _bpr_pair(2.0)),
     fleet_inverse.DimensionMismatchError, "expected two route vectors of length 2"),
    (lambda: local_convexity_at(FleetStrategy(0.0, 1.0), [1.0], [1.0, 1.0], _bpr_pair(2.0)),
     fleet_inverse.DimensionMismatchError, "expected two link vectors of length 2"),
    (lambda: local_convexity_at(FleetStrategy(0.0, 1.0), [1.0, 1.0], [1.0, 1.0], _bpr_pair(0.5)),
     fleet_inverse.UnsupportedDelayError, "exponent 0.5 < 1"),
    (lambda: local_convexity_at(FleetStrategy(0.0, 1.0), [1.0, 1.0], [1.0, 1.0], _bpr_pair(1.0)),
     fleet_inverse.UnsupportedDelayError, "local convexity test needs exponent > 1"),
    (lambda: forward.FeasibleSet.from_network(_bpr_pair(2.0)).project([1.0]),
     fleet_inverse.DimensionMismatchError, "expected vector of length 2"),
    (lambda: stationarity_map(FleetStrategy(0.0, 1.0), [1.0, 1.0], [1.0], _bpr_pair(2.0)),
     fleet_inverse.DimensionMismatchError, "q and f must both be route vectors"),
    (lambda: inverse.route_fiber(_bpr_pair(2.0), [1.0]), fleet_inverse.DimensionMismatchError, "phi must be a link"),
    (lambda: inverse.discrete_recover(FleetStrategy(0.0, 1.0), [4.0, 4.0], _bpr_pair(2.0)),
     fleet_inverse.InfeasibleProblemError, "fleet sizes exceed the observed unit totals"),
    (lambda: scenario.fixture_path("no_such_fixture"), FileNotFoundError, "no bundled scenario 'no_such_fixture.json'"),
]


@pytest.mark.parametrize(
    "call, error, match", INPUT_CHECKS, ids=[re.sub(r"[^\w ]", "", m) for _, _, m in INPUT_CHECKS]
)
def test_input_check(call, error, match):
    with pytest.raises(error, match=match):
        call()


# the SolverConfig fields that became method constants (see config.py)
FIXED_CONSTANTS = (
    "tol_pg", "tol_tie", "tol_dd", "tol_distinct", "armijo_factor", "armijo_c1",
    "discrete_starts", "max_outer_iter", "image_distance_norm", "ue_tol", "tol_p", "mixture_grid",
)


class TestConfigValidation:
    def test_unknown_field_rejected(self):
        # the deleted thread and certificate knobs and the fixed method
        # constants included
        for name in ("no_such_field", "max_threads", "n_dirs", "tol_curv", "pd_rtol", "rank_rtol") + FIXED_CONSTANTS:
            with pytest.raises(ValueError, match="unknown tolerance fields"):
                DEFAULT_CONFIG.replace(**{name: 1})

    def test_the_settable_fields(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "n_starts", "vertex_cap", "max_pg_iter", "tol_vi",
        ]

    def test_signature_defaults_are_the_config_defaults(self):
        # a parameter named after a SolverConfig field defaults to
        # DEFAULT_CONFIG's value (or to None, for "the config's"), so no
        # default is written twice; and no function takes the deleted
        # certificate thresholds, now constants of network.py
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        names = set()
        for module in (network, objective, forward, inverse, stackelberg, dynamics, scenario):
            callables = [v for v in vars(module).values() if inspect.isfunction(v) and v.__module__ == module.__name__]
            for cls in (v for v in vars(module).values() if inspect.isclass(v) and v.__module__ == module.__name__):
                callables += [v for v in vars(cls).values() if inspect.isfunction(v)]
            for fn in callables:
                for name, param in inspect.signature(fn).parameters.items():
                    names.add(name)
                    if name in fields and param.default not in (inspect.Parameter.empty, None):
                        assert param.default == getattr(DEFAULT_CONFIG, name), (fn.__qualname__, name)
        assert "config" in names and not names & {"pd_rtol", "rank_rtol"}

    def test_every_field_is_read(self):
        # a SolverConfig field that no module outside config.py reads is a
        # knob that does nothing (as max_threads was before its deletion)
        package = Path(fleet_inverse.__file__).parent
        source = "\n".join(
            path.read_text() for path in sorted(package.glob("*.py")) if path.name != "config.py"
        )
        unread = [
            f.name for f in dataclasses.fields(SolverConfig)
            if not re.search(rf"\.{f.name}\b", source)
        ]
        assert unread == []

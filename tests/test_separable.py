"""Separable networks: the O(R) closed forms of the forward's Newton step and
the inverse's face solve against the dense eigendecomposition and
least-squares paths they replace there."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleet_inverse import (
    AffineDelay,
    BPRDelay,
    CrossAffineDelay,
    FeasibleSet,
    FleetStrategy,
    Link,
    Network,
    ODUnit,
    QuadraticDelay,
    Route,
    UnsupportedDelayError,
    WebsterDelay,
    single_od_network,
)
from fleet_inverse import forward, inverse
from fleet_inverse.config import DEFAULT_CONFIG
from fleet_inverse.objective import _gradient_in_f, _hessian_in_f
from fleet_inverse.scenario import fixture_path, parse_scenario
from conftest import route_ladder

SEPARABLE_FIXTURES = ["two_route_asymmetric", "signalized_link", "stackelberg_symmetric", "discrete_two_route"]
# link-additive with shared links, then cross-affine
LINK_ADDITIVE_DENSE = [
    "two_od", "two_unit", "two_stage_overlap", "two_stage_overlap_concentrated", "two_route_common_links",
]
DENSE_FIXTURES = LINK_ADDITIVE_DENSE + ["cross_dependent_stable", "cross_dependent_unstable"]


def _random_delay(rng, signalized: bool):
    """A BPR, affine, quadratic or (when signalized) Webster delay; with
    signalized the flows are degrees of saturation below 1, and the other
    kinds are scaled to match."""
    kind = int(rng.integers(4 if signalized else 3))
    if kind == 0:
        capacity = rng.uniform(0.3, 1.5) if signalized else rng.uniform(20, 80)
        return BPRDelay(float(rng.uniform(1, 8)), 1.0, float(capacity), float(rng.choice([1.0, 2.0, 4.0])))
    if kind == 1:
        return AffineDelay(float(rng.uniform(1, 8)), float(rng.uniform(1, 20) if signalized else rng.uniform(0.02, 0.2)))
    if kind == 2:
        coefficient = rng.uniform(1, 20) if signalized else rng.uniform(1e-3, 1e-2)
        return QuadraticDelay(float(rng.uniform(1, 8)), float(coefficient))
    return WebsterDelay(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.5, 2.0)), float(rng.uniform(30, 120)))


def _separable_instance(rng, sizes, signalized: bool, capped: bool):
    """A separable network of len(sizes) OD units, sizes[u] routes in unit
    u, each route over 1-3 links of its own; positive HDV route flows h, a
    feasible fleet flow f with some routes empty, and the feasible set of
    the units' fleets, capped (some caps binding) when `capped`."""
    links, routes, units, h_parts, f_parts = [], [], [], [], []
    for u, k in enumerate(sizes):
        ids = []
        for j in range(k):
            link_ids = tuple(f"l{u}.{j}.{i}" for i in range(int(rng.integers(1, 4))))
            links += [Link(lid, _random_delay(rng, signalized)) for lid in link_ids]
            routes.append(Route(f"r{u}.{j}", link_ids))
            ids.append(f"r{u}.{j}")
        # with signalized links every link flow stays below 0.9
        demand = rng.uniform(0.2, 0.9) if signalized else rng.uniform(15, 100)
        q_hdv = float(demand * rng.uniform(0.3, 0.7))
        q_crv = float(demand) - q_hdv
        units.append(ODUnit("O", f"D{u}", q_hdv=q_hdv, q_crv=q_crv, route_ids=tuple(ids)))
        h_parts.append(rng.dirichlet(np.ones(k)) * q_hdv)
        share = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
        if share.sum() == 0.0:
            share[0] = 1.0
        f_parts.append(share / share.sum() * q_crv)
    net = Network(links, routes, units=units)
    h, f = np.concatenate(h_parts), np.concatenate(f_parts)
    upper = None
    if capped:
        # about a third of the routes sit on their cap
        upper = f + np.where(rng.random(len(f)) < 0.35, 0.0, rng.uniform(0.0, 1.0, len(f)) * f.max())
    feasible = FeasibleSet(blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=net.n_routes, upper=upper)
    return net, h, f, feasible


def _inverse_operator_is_diagonal(net: Network) -> bool:
    q = np.random.default_rng(0).uniform(0.05, 0.45, size=net.n_routes)
    _, b = inverse._affine_operator(FleetStrategy(0.0, 1.0), q, net)
    return inverse._diagonal_of(b) is not None


class TestSeparableFlag:
    @pytest.mark.parametrize("name", SEPARABLE_FIXTURES)
    def test_separable_fixtures(self, name):
        net = parse_scenario(fixture_path(name)).network
        assert net.separable and _inverse_operator_is_diagonal(net)

    @pytest.mark.parametrize("name", DENSE_FIXTURES)
    def test_dense_fixtures(self, name):
        net = parse_scenario(fixture_path(name)).network
        assert not net.separable and not _inverse_operator_is_diagonal(net)

    def test_one_cross_affine_link_is_not_separable(self):
        delays = [AffineDelay(1.0, 1.0), AffineDelay(2.0, 0.5)]
        assert single_od_network(delays, q_hdv=10.0, q_crv=5.0).separable
        links = [Link("a", AffineDelay(1.0, 1.0)), Link("b", CrossAffineDelay(2.0, 0.5, {}))]
        routes = [Route("r1", ("a",)), Route("r2", ("b",))]
        unit = ODUnit("O", "D", q_hdv=10.0, q_crv=5.0, route_ids=("r1", "r2"))
        assert not Network(links, routes, units=[unit]).separable

    def test_ladder_networks_are_separable(self):
        assert all(net.separable for _, net in route_ladder())


class TestRouteGradient:
    @pytest.mark.parametrize("name", SEPARABLE_FIXTURES + LINK_ADDITIVE_DENSE)
    def test_diagonal_matches_the_gradient_matrix(self, name):
        net = parse_scenario(fixture_path(name)).network
        q = np.random.default_rng(0).uniform(0.05, 0.45, size=(4, net.n_routes))
        grads = net.route_gradient(q)
        np.testing.assert_allclose(net.route_gradient_diagonal(q), np.diagonal(grads, axis1=-2, axis2=-1), rtol=1e-15)
        if net.separable:
            assert all(np.count_nonzero(g - np.diag(np.diagonal(g))) == 0 for g in grads)

    def test_cross_affine_network_has_no_diagonal_shortcut(self):
        net = parse_scenario(fixture_path("cross_dependent_stable")).network
        with pytest.raises(UnsupportedDelayError):
            net.route_gradient_diagonal(np.ones(net.n_routes))


class TestClosedForms:
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        signalized=st.booleans(),
        capped=st.booleans(),
        convex=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @example(sizes=[4, 3, 4], signalized=True, capped=True, convex=False, seed=2**32 - 2)  # an indefinite face
    @example(sizes=[4], signalized=True, capped=False, convex=True, seed=18900478)  # a near-singular face
    def test_newton_direction_matches_the_eigendecomposition(self, sizes, signalized, capped, convex, seed):
        # convex weights give a positive diagonal Hessian; other weights may
        # give an indefinite face, which both paths hand to the
        # eigendecomposition, as they do a near-singular one
        rng = np.random.default_rng(seed)
        net, h, f, feasible = _separable_instance(rng, sizes, signalized, capped)
        if convex:
            strategy = FleetStrategy(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 1.5)))
        else:
            strategy = FleetStrategy(float(rng.uniform(-1.5, 0.0)), float(rng.uniform(-1.0, 1.0)))
        grad, slopes = _gradient_in_f(strategy, h, f, net)
        assert slopes.shape == (net.n_routes,)
        p = feasible.project(f - grad)
        eps = 1e-7 * (1.0 + feasible.total_mass)
        args = (strategy, h, net, feasible, f, grad)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            closed = forward._newton_direction(*args, slopes, p, eps, DEFAULT_CONFIG.pd_rtol)
        dense = forward._newton_direction(*args, np.diag(slopes), p, eps, DEFAULT_CONFIG.pd_rtol)
        # a positive definite face takes the closed form; on a face left to
        # the eigendecomposition the two Hessians differ in rounding only
        # (2 lam G against lam (G + G^T))
        hess = _hessian_in_f(strategy, h, f, net, slopes)
        if convex and np.all(hess > DEFAULT_CONFIG.pd_rtol * np.max(hess)):
            assert eigh.call_count == 0
        if closed is None or dense is None:
            assert closed is None and dense is None
        else:
            scale = float(np.max(np.abs(dense)))
            np.testing.assert_allclose(closed, dense, rtol=0.0, atol=1e-10 * scale)

    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 5),
        signalized=st.booleans(),
        lam_hdv=st.floats(-1.0, 1.0),
        margin=st.floats(-1.5, -1e-3) | st.floats(1e-3, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # a free route with b of 6e-8, whose 1 / b dominates the multiplier's sums
    @example(sizes=[3, 2], signalized=False, lam_hdv=0.19510450171301597, margin=0.41547475964637787, seed=2896141237)
    def test_face_point_matches_the_least_squares_solve(self, sizes, signalized, lam_hdv, margin, seed):
        # the inverse's operator b = margin * N diag(tau') N^T is diagonal
        # with entries of the margin's sign, so every labeling's face point
        # takes the closed form
        rng = np.random.default_rng(seed)
        net, h, f, _ = _separable_instance(rng, sizes, signalized, capped=False)
        strategy = FleetStrategy(lam_hdv, lam_hdv + margin)
        q = h + f
        feasible = FeasibleSet(blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=net.n_routes, upper=q)
        a0, b = inverse._affine_operator(strategy, q, net)
        diagonal = inverse._diagonal_of(b)
        assert diagonal is not None
        tol = 1e-7 * (1.0 + feasible.total_mass)
        per_unit = [list(feasible.labelings(s, tol)) for s in range(len(feasible.blocks))]
        active = np.zeros(net.n_routes, dtype=int)
        for combo in itertools.product(*per_unit):
            for block, labels in zip(feasible.blocks, combo):
                active[block] = labels
            with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError("closed form skipped")):
                closed = inverse._face_point(a0, b, feasible, active, diagonal)
            dense = inverse._face_point(a0, b, feasible, active)
            scale = 1.0 + float(np.max(np.abs(dense)))
            np.testing.assert_allclose(closed, dense, rtol=0.0, atol=1e-10 * scale)

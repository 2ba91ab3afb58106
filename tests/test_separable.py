"""Separable networks: the O(R) closed forms of the forward's Newton step,
the inverse's face solve and the inverse's certificate against the dense
eigendecomposition and least-squares paths they replace there."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fleet_inverse import (
    AffineDelay,
    BPRDelay,
    CrossAffineDelay,
    FeasibleSet,
    FleetModelError,
    FleetStrategy,
    Link,
    Network,
    ODUnit,
    QuadraticDelay,
    Route,
    WebsterDelay,
    fleet_assign,
    inverse_link_flows,
    single_od_network,
    solve_inverse,
)
from fleet_inverse import forward, inverse
from fleet_inverse.config import DEFAULT_CONFIG
from fleet_inverse.network import PD_RTOL, RANK_RTOL, PDCertificate, _pd_certificate
from fleet_inverse.objective import _evaluate, _gradient_in_f, _hessian_in_f
from fleet_inverse.scenario import fixture_path, parse_scenario
from conftest import affine_operator, overlapping_routes, route_ladder

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


def _separable_instance(rng, sizes, signalized: bool):
    """A separable network of len(sizes) OD units, sizes[u] routes in unit
    u, each route over 1-3 links of its own; positive HDV route flows h, a
    feasible fleet flow f with some routes empty, and the feasible set of
    the units' fleets."""
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
    return net, h, f, FeasibleSet.from_network(net)


def _inverse_operator_is_diagonal(net: Network) -> bool:
    # the operator solve_inverse builds at a flow on every route
    q = np.random.default_rng(0).uniform(0.05, 0.45, size=net.n_routes)
    grad = net._route_gradient_form_at(net.route_to_link(q))
    _, b = inverse._route_operator(FleetStrategy(0.0, 1.0), q, net.route_times(q), grad)
    return b.ndim == 1


def _unused_connector(exit_t0: float = 1.0):
    """Ten private BPR routes and two routes (s, x1), (s, x2) through a
    shared connector s, x1 and x2 of free-flow time exit_t0, and an
    observed route flow that leaves s empty."""
    rng = np.random.default_rng(0)
    links = [Link(f"l{j}", BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(20, 80)), 2.0))
             for j in range(10)]
    links += [Link("s", BPRDelay(1.0, 1.0, 50.0, 2.0))]
    links += [Link(x, BPRDelay(exit_t0, 1.0, 50.0, 2.0)) for x in ("x1", "x2")]
    routes = [Route(f"r{j}", (f"l{j}",)) for j in range(10)] + [Route("d1", ("s", "x1")), Route("d2", ("s", "x2"))]
    unit = ODUnit("O", "D", q_hdv=100.0, q_crv=50.0, route_ids=tuple(route.id for route in routes))
    net = Network(links, routes, units=[unit])
    return net, np.concatenate([rng.dirichlet(np.ones(10)) * 150.0, [0.0, 0.0]])


def _form(net: Network, q) -> np.ndarray:
    """The route gradient at q in the form Network decides."""
    return net._route_gradient_form_at(net.route_to_link(q))


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

    def test_unused_connector_leaves_the_operator_diagonal(self):
        # the connector s carries no observed flow: the network is not
        # separable, but the BPR slopes vanish at zero flow, so the route
        # gradient is diagonal there, and the enumeration prunes by the
        # multiplier windows; on the dense operator it raises
        # FleetModelError above the labeling cap
        net, q = _unused_connector()
        strategy = FleetStrategy(0.5, 0.2)
        assert not net.separable and _form(net, q).shape == (net.n_routes,)
        result = solve_inverse(strategy, q, net)
        assert not result.certificate.theorem_applies
        assert result.converged and len(result.solutions) == 3

    def test_connector_with_flow_makes_the_gradient_dense(self):
        # once the connector carries flow its slope couples d1 and d2
        net, q = _unused_connector()
        q[-1] = 1.0
        grad = _form(net, q)
        assert grad.shape == (net.n_routes, net.n_routes)
        assert grad.tobytes() == net.route_gradient(q).tobytes() and grad[-1, -2] > 0.0

    @pytest.mark.parametrize("strategy", [FleetStrategy.preset("selfish"), FleetStrategy(0.5, 0.2),
                                          FleetStrategy.preset("disruptive")])
    def test_forward_at_an_unused_connector_matches_the_dense_path(self, strategy, monkeypatch):
        # slow exits keep the connector routes empty: the HDVs leave them
        # so, and the fleet's descent leaves them after its first step, so
        # its later iterations take the route slopes; forced onto the
        # matrix at every point, the forward agrees
        net, q = _unused_connector(exit_t0=10.0)
        h = q * (100.0 / q.sum())
        forms = []
        method = Network._route_gradient_form_at
        monkeypatch.setattr(Network, "_route_gradient_form_at",
                            lambda self, a: forms.append(method(self, a)) or forms[-1])
        diagonal = fleet_assign(strategy, h, net, certify=False)
        assert sum(form.ndim == 1 for form in forms) >= 5 and not np.any(diagonal.f[-2:])
        monkeypatch.setattr(Network, "_route_gradient_form_at",
                            lambda self, a: self._route_gradient_at(self.delay_table.derivatives(a)))
        dense = fleet_assign(strategy, h, net, certify=False)
        mass = float(np.sum(net.fleet_sizes()))
        np.testing.assert_allclose(diagonal.f, dense.f, rtol=0.0, atol=1e-9 * (1.0 + mass))


class TestIndependence:
    def test_flag_and_basis_match_the_svd(self):
        # where every route has a link of its own the flag needs no SVD
        # below the structural bound; where the bound does not decide, the
        # SVD still does and gives the null basis.  Every fixture, every
        # ladder draw (instance seeds 2024, 77, 2), the overlapping draws and
        # separable instances with multi-link routes
        networks = [parse_scenario(fixture_path(name)).network for name in SEPARABLE_FIXTURES + DENSE_FIXTURES]
        networks += [net for seed in (2024, 77, 2) for _, net in route_ladder(seed)]
        networks += [overlapping_routes(r)[1] for r in (20, 50, 100)]
        rng = np.random.default_rng(3)
        networks += [_separable_instance(rng, [3, 2], False)[0] for _ in range(5)]
        for net in networks:
            s = np.linalg.svd(net.incidence, compute_uv=False)
            rank = int(np.sum(s > RANK_RTOL * s[0]))
            result = net.routes_linearly_independent()
            assert result.independent == (rank == net.n_routes)
            assert result.null_basis.shape == (net.n_routes, net.n_routes - rank)

    def test_routes_with_links_of_their_own_run_no_svd(self):
        # every ladder route is one link of its own, and every overlapping
        # route has one: the flag takes no SVD, nor does solve_inverse's
        # fiber on the overlapping draws' selfish round trips (one SVD of
        # the incidence each, 3, when only separable networks skipped it)
        selfish = FleetStrategy.preset("selfish")
        observed = []
        for r in (20, 50, 100):
            h, net = overlapping_routes(r)
            observed.append((h + fleet_assign(selfish, h, net, certify=False).f, net))
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            assert all(net.routes_linearly_independent().independent for _, net in route_ladder())
            assert all(net.routes_linearly_independent().independent for _, net in observed)
            assert svd.call_count == 0
            for q, net in observed:
                assert solve_inverse(selfish, q, net).fiber is None
        assert not any(call.args[0] is net.incidence for call in svd.call_args_list for _, net in observed)


class TestRouteGradient:
    @pytest.mark.parametrize("name", SEPARABLE_FIXTURES + LINK_ADDITIVE_DENSE)
    def test_route_slopes_are_the_gradient_matrix_diagonal(self, name):
        # on link-additive delays each route's summed link slopes N tau'
        # are np.diagonal(route_gradient(q)); on a separable network they
        # are the form the network gives, and the matrix is diagonal
        net = parse_scenario(fixture_path(name)).network
        q = np.random.default_rng(0).uniform(0.05, 0.45, size=(4, net.n_routes))
        grads = net.route_gradient(q)
        slopes = np.array([net.incidence @ net.delay_table.derivatives(a) for a in net.route_to_link(q)])
        np.testing.assert_allclose(slopes, np.diagonal(grads, axis1=-2, axis2=-1), rtol=1e-15)
        if net.separable:
            assert all(np.count_nonzero(g - np.diag(np.diagonal(g))) == 0 for g in grads)
            assert all(_form(net, row).tobytes() == row_slopes.tobytes() for row, row_slopes in zip(q, slopes))

    @pytest.mark.parametrize("name", ["cross_dependent_stable", "cross_dependent_unstable"])
    def test_cross_affine_network_takes_the_matrix(self, name):
        # a cross-affine link reads other links' flows: the form is the
        # matrix at every flow
        net = parse_scenario(fixture_path(name)).network
        q = np.random.default_rng(0).uniform(0.0, 0.45, size=net.n_routes)
        assert _form(net, q).tobytes() == net.route_gradient(q).tobytes()
        assert _form(net, np.zeros(net.n_routes)).shape == (net.n_routes, net.n_routes)


class TestClosedForms:
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        signalized=st.booleans(),
        convex=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @example(sizes=[4, 3, 4], signalized=True, convex=False, seed=2**32 - 2)  # an indefinite face
    @example(sizes=[4], signalized=True, convex=True, seed=18900478)  # a near-singular face
    def test_newton_direction_matches_the_eigendecomposition(self, sizes, signalized, convex, seed):
        # convex weights give a positive diagonal Hessian; other weights may
        # give an indefinite face, which both paths hand to the
        # eigendecomposition, as they do a near-singular one
        rng = np.random.default_rng(seed)
        net, h, f, feasible = _separable_instance(rng, sizes, signalized)
        if convex:
            strategy = FleetStrategy(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 1.5)))
        else:
            strategy = FleetStrategy(float(rng.uniform(-1.5, 0.0)), float(rng.uniform(-1.0, 1.0)))
        point = _evaluate(strategy, h, f, net)
        grad, slopes = _gradient_in_f(strategy, point, net)
        assert slopes.shape == (net.n_routes,)
        p = feasible.project(f - grad)
        eps = 1e-7 * (1.0 + feasible.total_mass)
        args = (strategy, point, net, feasible, f, grad)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            closed = forward._newton_direction(*args, slopes, p, eps)
        dense = forward._newton_direction(*args, np.diag(slopes), p, eps)
        # a positive definite face takes the closed form; on a face left to
        # the eigendecomposition the two Hessians differ in rounding only
        # (2 lam G against lam (G + G^T))
        hess = _hessian_in_f(strategy, point, net, slopes)
        if convex and np.all(hess > PD_RTOL * np.max(hess)):
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
        net, h, f, _ = _separable_instance(rng, sizes, signalized)
        strategy = FleetStrategy(lam_hdv, lam_hdv + margin)
        q = h + f
        feasible = FeasibleSet(blocks=net.unit_blocks(), totals=net.fleet_sizes(), n_routes=net.n_routes, upper=q)
        a0, b = affine_operator(strategy, q, net)
        diagonal = np.diagonal(b)
        per_unit = [list(inverse._labelings(feasible, s, DEFAULT_CONFIG.vertex_cap)) for s in range(len(feasible.blocks))]
        active = np.zeros(net.n_routes, dtype=int)
        for combo in itertools.product(*per_unit):
            for block, labels in zip(feasible.blocks, combo):
                active[block] = labels
            with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError("closed form skipped")):
                closed = inverse._face_point(a0, diagonal, feasible, active)
            dense = inverse._face_point(a0, b, feasible, active)
            scale = 1.0 + float(np.max(np.abs(dense)))
            np.testing.assert_allclose(closed, dense, rtol=0.0, atol=1e-10 * scale)


def _observed_separable(rng, sizes, signalized: bool):
    """A separable network of len(sizes) OD units, sizes[u] routes in unit
    u, each route over one or two links of its own, and an observed route
    flow q that holds every unit's fleet.  About a quarter of the routes
    carry no flow and a quarter nearly none (10^-3 to 10^-12 of their
    share), so their slopes straddle the positive-definiteness threshold."""
    links, routes, units, parts = [], [], [], []
    for u, k in enumerate(sizes):
        ids = []
        for j in range(k):
            link_ids = tuple(f"l{u}.{j}.{i}" for i in range(int(rng.integers(1, 3))))
            links += [Link(lid, _random_delay(rng, signalized)) for lid in link_ids]
            routes.append(Route(f"r{u}.{j}", link_ids))
            ids.append(f"r{u}.{j}")
        # with signalized links every link flow stays below 0.9
        q = rng.dirichlet(np.ones(k)) * (rng.uniform(0.2, 0.9) if signalized else rng.uniform(15, 100))
        kind = rng.choice([0, 0, 1, 2], size=k)
        q = np.where(kind == 1, 0.0, np.where(kind == 2, q * 10.0 ** -rng.uniform(3, 12, k), q))
        q_crv = float(q.sum() * rng.uniform(0.1, 0.9))
        units.append(ODUnit("O", f"D{u}", q_hdv=float(q.sum()) - q_crv, q_crv=q_crv, route_ids=tuple(ids)))
        parts.append(q)
    return Network(links, routes, units=units), np.concatenate(parts)


def _dense_inverse(strategy, q, net, config=DEFAULT_CONFIG, pd=None):
    """solve_inverse as the dense operator gives it, the diagonal of the
    operator margin * grad^T from the route gradient matrix on these
    separable networks, with the positive-definiteness test pd: by default
    the dense test, the feasible-direction basis and eigvalsh."""
    feasible = FeasibleSet.from_network(net, upper=q)
    grad, t = net.route_gradient(q), net.route_times(q)
    if pd is None:
        pd = _pd_certificate(net.feasible_direction_basis(), grad)
    a0, _ = inverse._route_operator(strategy, q, t, grad)
    b = np.diagonal(strategy.margin * grad.T)
    certificate = inverse._certificate(strategy.margin, pd, inverse._ROUTE_REASONS)
    return inverse._recover("route", q, a0, b, feasible, float(np.linalg.norm(t)), certificate, config)


def _outcome(solve, *args):
    """solve's result, or the type and message of the error it raised."""
    try:
        return solve(*args)
    except Exception as exc:  # both paths must raise alike
        return type(exc), str(exc)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _slopes_pass(g, blocks) -> bool:
    """diag(g) positive definite on the zero-sum directions of every block,
    for g >= 0: each block's second-least slope is positive."""
    return bool(np.all(g >= 0.0)) and all(len(block) < 2 or np.sort(g[block])[1] > 0.0 for block in blocks)


def _rounding_allowance(g) -> float:
    """A bound on the dense test's rounding on diag(g), 16 R eps max|g| on
    its least eigenvalue, on min_rayleigh's scale (twice that)."""
    return 2.0 * 16.0 * len(g) * np.finfo(float).eps * float(np.max(np.abs(g)))


def _assert_same_operator(strategy, q, net):
    """The operator from the route slopes has every byte of the dense one's
    a0 and B's diagonal, the signs of their zeros included."""
    t = net.route_times(q)
    a0, b = inverse._route_operator(strategy, q, t, _form(net, q))
    grad = net.route_gradient(q)
    dense_a0, _ = inverse._route_operator(strategy, q, t, grad)
    assert a0.tobytes() == dense_a0.tobytes()
    assert b.tobytes() == np.diagonal(strategy.margin * grad.T).tobytes()


def _assert_same_inverse(result, reference):
    """Every byte of the two inverses: f_hat, the residual, the solutions,
    the verdict and its reason, and min_rayleigh (read last)."""
    if isinstance(reference, tuple) or isinstance(result, tuple):
        assert result == reference
        return
    assert result.f_hat.tobytes() == reference.f_hat.tobytes()
    assert _bits(result.residual) == _bits(reference.residual)
    assert [x.tobytes() for x in result.solutions] == [x.tobytes() for x in reference.solutions]
    assert result.converged == reference.converged and result.fiber is None and reference.fiber is None
    mine, dense = result.certificate, reference.certificate
    assert (mine.theorem_applies, mine.reason, mine.pd.passes) == (dense.theorem_applies, dense.reason, dense.pd.passes)
    assert _bits(mine.min_rayleigh) == _bits(dense.min_rayleigh)


class TestSeparableCertificate:
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        signalized=st.booleans(),
        lam_hdv=st.floats(-1.0, 1.0),
        margin=st.just(0.0) | st.floats(-1.5, -1e-3) | st.floats(1e-3, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_inverse_matches_the_dense_certificate_and_operator(self, sizes, signalized, lam_hdv, margin, seed):
        # the slope rule decides on the gradient matrix's diagonal, passing
        # wherever the dense test does, and the inverse from the gradient's
        # diagonal keeps every byte of the one from the gradient matrix
        # under the same decision (routes of one or two links), min_rayleigh
        # the dense test's.  The null strategy is skipped: with A = 0 every
        # face solves the VI, and enumerating them, not the operator, takes
        # the time.
        assume(lam_hdv != 0.0 or margin != 0.0)
        rng = np.random.default_rng(seed)
        net, q = _observed_separable(rng, sizes, signalized)
        assert net.separable
        grad = net.route_gradient(q)
        pd = net.feasible_direction_pd(q)
        dense = _pd_certificate(net.feasible_direction_basis(), grad)
        assert pd.passes == _slopes_pass(np.diagonal(grad), net.unit_blocks())
        assert pd.passes or not dense.passes
        assert _bits(pd.min_rayleigh) == _bits(dense.min_rayleigh)
        strategy = FleetStrategy(lam_hdv, lam_hdv + margin)
        _assert_same_operator(strategy, q, net)
        same_decision = PDCertificate(passes=pd.passes, threshold=0.0, rayleigh=lambda: dense.min_rayleigh)
        _assert_same_inverse(
            _outcome(solve_inverse, strategy, q, net),
            _outcome(_dense_inverse, strategy, q, net, DEFAULT_CONFIG, same_decision),
        )

    @given(
        sizes=st.lists(st.integers(2, 6), min_size=1, max_size=3),
        signalized=st.booleans(),
        lam_hdv=st.floats(-1.0, 1.0),
        margin=st.floats(1e-3, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_slope_rule_agrees_with_the_dense_test_off_its_rounding(self, sizes, signalized, lam_hdv, margin, seed):
        # a quarter of the routes carry no flow and a quarter nearly none,
        # so their slopes are 0 or straddle the dense threshold.  Where the
        # dense min_rayleigh clears its threshold by more than its rounding
        # allowance the rule passes too; where the rule certifies and the
        # dense test refuses, the enumeration the dense test would run lists
        # one solution, the certified f_hat within the inverse's own
        # distinctness window 1e-6 (1 + fleet mass) (the two may put a route
        # whose cap is below it on different faces), where it ends within
        # its budget
        rng = np.random.default_rng(seed)
        net, q = _observed_separable(rng, sizes, signalized)
        grad = net.route_gradient(q)
        pd = net.feasible_direction_pd(q)
        dense = _pd_certificate(net.feasible_direction_basis(), grad)
        if dense.min_rayleigh > dense.threshold + _rounding_allowance(np.diagonal(grad)):
            assert pd.passes
        if pd.passes == dense.passes:
            return
        assert pd.passes and not dense.passes
        strategy = FleetStrategy(lam_hdv, lam_hdv + margin)
        certified = solve_inverse(strategy, q, net)
        assert certified.certificate.theorem_applies and certified.converged and len(certified.solutions) == 1
        try:
            listed = _dense_inverse(strategy, q, net)
        except FleetModelError:
            return
        mass = float(np.sum(net.fleet_sizes()))
        if not listed.converged:
            # the enumeration validates no face only where a unit's fleet is
            # below the labeling walk's mass tolerance 1e-7 (1 + fleet
            # mass): the walk then keeps no labeling with a free route
            assert np.any(net.fleet_sizes() < 1e-7 * (1.0 + mass))
            return
        assert len(listed.solutions) == 1
        np.testing.assert_allclose(listed.f_hat, certified.f_hat, rtol=0.0, atol=1e-6 * (1.0 + mass))

    @pytest.mark.parametrize("lam_hdv, lam_crv", [(-2.0, -1.0), (-1.0, -2.0), (0.5, -0.5)])
    def test_operator_keeps_the_dense_zeros(self, lam_hdv, lam_crv):
        # zero intercepts and an empty route make lam_crv t and g (lam_hdv q)
        # signed zeros there, and a negative margin signs B's: the operator
        # from the slopes keeps each one's sign
        delays = [AffineDelay(0.0, 0.5), QuadraticDelay(0.0, 0.01), BPRDelay(1.0, 1.0, 30.0, 4.0)]
        net = single_od_network(delays, q_hdv=20.0, q_crv=10.0)
        for q in (np.array([0.0, 12.0, 18.0]), np.array([6.0, 0.0, 24.0]), np.array([10.0, 20.0, 0.0])):
            _assert_same_operator(FleetStrategy(lam_hdv, lam_crv), q, net)

    def test_min_rayleigh_reads_its_own_copy_of_q(self):
        # the slope rule certifies this draw; min_rayleigh, computed when
        # first read, is the one at q even though the caller's array has
        # changed
        h, net = route_ladder()[3]
        q = h + fleet_assign(FleetStrategy.preset("selfish"), h, net, certify=False).f
        expected = _pd_certificate(net.feasible_direction_basis(), net.route_gradient(q))
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            pd = net.feasible_direction_pd(q)
        assert pd.passes and eigvalsh.call_count == 0
        q[:] = q[::-1]
        assert _bits(pd.min_rayleigh) == _bits(expected.min_rayleigh)

    def test_seed_2_ladder_draw_is_certified_by_the_slope_rule(self):
        # instance seed 2, R = 100, draw 1: a route carrying 0.0104 has
        # slope 1.3e-11, so the dense test refuses (min_rayleigh 3.7e-11
        # under its threshold 8.3e-11); every slope is positive, so the rule
        # certifies without an eigendecomposition, and the enumeration the
        # dense test runs lists the certified f_hat as its only solution
        h, net = route_ladder(2)[10]
        selfish = FleetStrategy.preset("selfish")
        q = h + fleet_assign(selfish, h, net, certify=False).f
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            pd = net.feasible_direction_pd(q)
            result = solve_inverse(selfish, q, net)
        assert eigvalsh.call_count == 0 and pd.passes and result.certificate.theorem_applies
        dense = _pd_certificate(net.feasible_direction_basis(), net.route_gradient(q))
        assert not dense.passes and _bits(pd.min_rayleigh) == _bits(dense.min_rayleigh)
        listed = _dense_inverse(selfish, q, net)
        mass = float(np.sum(net.fleet_sizes()))
        assert len(result.solutions) == len(listed.solutions) == 1
        np.testing.assert_allclose(result.f_hat, listed.f_hat, rtol=0.0, atol=1e-9 * (1.0 + mass))

    @pytest.mark.parametrize("passes", [True, False])
    def test_link_level_rule_agrees_with_the_dense_jacobian_test(self, passes):
        # on a separable network the link level decides by the route slopes
        # N tau' at the observed link flow, without the realisable basis or
        # an eigendecomposition (a refusal's reason does not show
        # min_rayleigh, so it runs neither); the dense test of the link
        # jacobian on the realisable directions gives the same verdict and
        # min_rayleigh.
        # Two empty power-4 routes of one unit have zero slopes, so both
        # refuse; the ladder's selfish equilibrium flows on every route
        if passes:
            h, net = route_ladder()[3]
            q = h + fleet_assign(FleetStrategy.preset("selfish"), h, net, certify=False).f
        else:
            net = single_od_network([BPRDelay(2.0, 1.0, 30.0, 4.0), BPRDelay(3.0, 1.0, 40.0, 4.0),
                                     AffineDelay(1.0, 0.1)], q_hdv=20.0, q_crv=10.0)
            q = np.array([0.0, 0.0, 30.0])
        a = net.route_to_link(q)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh, \
                mock.patch.object(inverse, "_link_feasible_basis", wraps=inverse._link_feasible_basis) as basis:
            result = inverse_link_flows(FleetStrategy.preset("selfish"), a, net)
            assert eigvalsh.call_count == basis.call_count == 0
            dense = _pd_certificate(inverse._link_feasible_basis(net), net.link_time_jacobian(a))
        assert result.certificate.pd.passes == dense.passes == passes
        assert result.certificate.theorem_applies == passes
        assert _bits(result.certificate.min_rayleigh) == _bits(dense.min_rayleigh)

    def test_three_link_routes_agree_within_rounding(self):
        # a route's slope sums three link slopes: the diagonal's
        # matrix-vector product may add them in another order than the
        # gradient matrix's products, so the operator may differ in its last
        # bits; f_hat then agrees within 1e-12 * (1 + fleet mass), and the
        # verdict, its reason and min_rayleigh (dense when read) exactly
        rng = np.random.default_rng(5)
        links, routes, units = [], [], []
        for u, k in enumerate((4, 3)):
            ids = [f"r{u}.{j}" for j in range(k)]
            for j, rid in enumerate(ids):
                link_ids = tuple(f"l{u}.{j}.{i}" for i in range(3))
                links += [Link(lid, _random_delay(rng, False)) for lid in link_ids]
                routes.append(Route(rid, link_ids))
            units.append(ODUnit("O", f"D{u}", q_hdv=20.0 * k, q_crv=10.0 * k, route_ids=tuple(ids)))
        net = Network(links, routes, units=units)
        assert net.separable and int(net.incidence.sum(axis=1).min()) == 3
        for strategy in (FleetStrategy.preset("selfish"), FleetStrategy(0.3, 0.8), FleetStrategy(-0.5, 1.0)):
            h = np.concatenate([rng.dirichlet(np.ones(k)) * 20.0 * k for k in (4, 3)])
            q = h + fleet_assign(strategy, h, net, certify=False).f
            result, reference = solve_inverse(strategy, q, net), _dense_inverse(strategy, q, net)
            mass = float(np.sum(net.fleet_sizes()))
            np.testing.assert_allclose(result.f_hat, reference.f_hat, rtol=0.0, atol=1e-12 * (1.0 + mass))
            assert len(result.solutions) == len(reference.solutions)
            mine, dense = result.certificate, reference.certificate
            assert (mine.theorem_applies, mine.reason) == (dense.theorem_applies, dense.reason)
            assert _bits(mine.min_rayleigh) == _bits(dense.min_rayleigh)


@st.composite
def _diagonal_operator(draw, n, zero=None):
    """(B, b, f): a dense operator B that is diagonal, b its diagonal (R,)
    as the inverse carries it (_slope_operator), and n values f of either
    sign, often 0.  B is margin G^T for one of the three route gradients
    G that the inverse meets: diag(g), b = margin * g; N J N^T, N a
    separable incidence, whose form is the slopes N J (at either level);
    and, at a zero margin, the gradient N J N^T of routes that share
    links.  Margins take either sign, zero included; the slopes g and J
    >= 0 are often 0, and all of route `zero`'s are."""
    margin = draw(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, -0.1) | st.floats(0.1, 2.0))
    slope = st.just(0.0) | st.floats(0.1, 10.0)
    f = np.array(draw(st.lists(st.just(0.0) | st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["route", "link", "zero margin"]))
    if kind == "route":
        g = np.array(draw(st.lists(slope, min_size=n, max_size=n)))
        if zero is not None:
            g[zero] = 0.0
        return margin * np.diag(g), inverse._slope_operator(margin, g), f
    if kind == "link":
        owners = np.repeat(np.arange(n), draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
        incidence = (np.arange(n)[:, None] == owners).astype(float)
    else:
        shared = draw(st.lists(st.lists(st.booleans(), min_size=2, max_size=2), min_size=n, max_size=n))
        incidence = np.hstack([np.eye(n), np.array(shared, dtype=float)])
        margin = 0.0
    slopes = np.array(draw(st.lists(slope, min_size=incidence.shape[1], max_size=incidence.shape[1])))
    if zero is not None:
        slopes[incidence[zero] > 0.0] = 0.0
    grad = incidence @ np.diag(slopes) @ incidence.T
    dense = margin * grad.T
    assert np.count_nonzero(dense) == np.count_nonzero(np.diagonal(dense))
    # the form Network._route_gradient_form_at gives the gradient
    b = inverse._slope_operator(margin, incidence @ slopes if kind == "link" else grad)
    assert b.ndim == 1
    return dense, b, f


class TestDiagonalOperator:
    """A diagonal operator B given as its diagonal (R,) keeps every byte of
    the arithmetic on the dense matrix, its off-diagonal zeros' signs
    included: the margin's in margin * G^T at either level, which a zero
    margin on link-additive delays makes +0.  (A zero margin on cross
    slopes below zero gives zeros of both signs, which the diagonal cannot
    keep.)"""

    @given(data=st.data(), n=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_product_matches_the_dense_product(self, data, n):
        dense, b, f = data.draw(_diagonal_operator(n))
        assert inverse._times(b, f).tobytes() == (dense @ f).tobytes()

    @given(data=st.data(), sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_least_squares_face_matches_the_dense_face(self, data, sizes, seed):
        # a free route with a zero slope sends both forms to the
        # least-squares solve of the face's KKT system, whose result reads
        # the zero signs where two units hold free routes
        n = sum(sizes)
        rng = np.random.default_rng(seed)
        zero = int(rng.integers(n))
        dense, b, a0 = data.draw(_diagonal_operator(n, zero))
        bounds = np.cumsum([0] + sizes)
        blocks = tuple(np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
        upper = rng.choice([0.0, 1.0, 2.5, 4.0], size=n)
        totals = np.array([float(rng.uniform(0.0, np.sum(upper[block]))) for block in blocks])
        feasible = FeasibleSet(blocks=blocks, totals=totals, n_routes=n, upper=upper)
        active = rng.integers(-1, 2, size=n)
        active[zero] = 0
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
            diagonal = inverse._face_point(a0, b, feasible, active)
        assert lstsq.call_count == 1
        dense = inverse._face_point(a0, dense, feasible, active)
        assert (diagonal is None) == (dense is None)
        if dense is not None:
            assert diagonal.tobytes() == dense.tobytes()

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; runtime budgets are asserted as well.
"""

import math
import time

import numpy as np
import pytest

from fleet_inverse import (
    BPRDelay,
    FeasibleSet,
    FleetStrategy,
    Link,
    MixedCornerStrategy,
    Network,
    ODUnit,
    Route,
    certify_local_min,
    compare_routings,
    discrete_recover,
    fleet_assign,
    induced_ue,
    inverse_link_flows,
    lipschitz_bound,
    optimize_corner_mixture,
    route_fiber,
    simulate,
    single_od_network,
    solve_inverse,
    verify_corner_support,
)
from fleet_inverse import SimulationConfig
from fleet_inverse.objective import _curvature_data, link_curvature_sign
from conftest import (
    asymmetric_two_route,
    cross_dependent_two_route,
    overlap_network,
    symmetric_quadratic,
    three_affine_routes,
    two_od_overlap,
)

SELFISH = FleetStrategy.preset("selfish")
ALTRUISTIC = FleetStrategy.preset("altruistic")
MALICIOUS = FleetStrategy.preset("malicious")
SOCIAL = FleetStrategy.preset("social")


def finish(name: str, checks: list, started: float, budget: float):
    elapsed = time.perf_counter() - started
    ok = all(passed for _, passed in checks) and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} ({elapsed:.2f}s of {budget:.0f}s budget)")
    for label, passed in checks:
        if not passed:
            print(f"  failed: {label}")
    assert ok, f"{name}: " + "; ".join(label for label, passed in checks if not passed) + (
        f"; elapsed {elapsed:.2f}s over budget {budget}s" if elapsed >= budget else ""
    )


def test_criterion_1_named_example_reproduction():
    started = time.perf_counter()
    checks = []

    # altruistic assignment fills the empty route
    net3 = three_affine_routes(q_hdv=70.0, q_crv=30.0)
    alt = fleet_assign(ALTRUISTIC, np.array([30.0, 0.0, 40.0]), net3)
    checks.append(("altruistic f == (0, 30, 0)", np.allclose(alt.f, [0.0, 30.0, 0.0], atol=1e-9)))

    # malicious tie set and its perturbation
    net2 = symmetric_quadratic(q_hdv=50.0, q_crv=50.0)
    tie = fleet_assign(MALICIOUS, np.array([25.0, 25.0]), net2)
    tie_set = {tuple(np.round(f, 9)) for f in tie.minimizer_set}
    checks.append(
        ("malicious tie set {(50,0),(0,50)}", tie_set == {(50.0, 0.0), (0.0, 50.0)})
    )
    bumped = fleet_assign(MALICIOUS, np.array([25.1, 24.9]), net2)
    checks.append(
        (
            "malicious unique corner after 0.1 perturbation",
            len(bumped.minimizer_set) == 1 and np.allclose(bumped.f, [50.0, 0.0]),
        )
    )

    # selfish inverse on the symmetric observation
    net_inv = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)
    inv = solve_inverse(SELFISH, np.array([50.0, 50.0]), net_inv)
    checks.append(
        ("selfish inverse (9.5, 9.5) within 1e-6", np.allclose(inv.f_hat, [9.5, 9.5], atol=1e-6))
    )

    # dependent-route network: link-level inverse and route fibers
    net8 = overlap_network(q_hdv=300.0, q_crv=100.0)
    for label, q in (("uniform", [100.0] * 4), ("concentrated", [200.0, 0.0, 0.0, 200.0])):
        q = np.asarray(q)
        link_inv = inverse_link_flows(SELFISH, net8.route_to_link(q), net8)
        checks.append(
            (
                f"link inverse (50,50,50,50) within 1e-6 [{label}]",
                np.allclose(link_inv.f_hat, [50.0] * 4, atol=1e-6),
            )
        )
        fiber = route_fiber(net8, link_inv.f_hat, upper=q)
        if label == "uniform":
            lo, hi = fiber.intervals[0]
            checks.append(("route fiber dimension 1 [uniform]", fiber.dimension == 1 and hi - lo > 1.0))
        else:
            lo, hi = fiber.intervals[0]
            checks.append(
                (
                    "unique representative (50,0,0,50) [concentrated]",
                    np.allclose(fiber.representative, [50.0, 0.0, 0.0, 50.0], atol=1e-6)
                    and hi - lo <= 1e-6,
                )
            )

    finish("1 example reproduction", checks, started, budget=5.0)


def test_criterion_2_inverse_round_trip():
    started = time.perf_counter()
    checks = []
    rng = np.random.default_rng(2024)
    strategies = [
        SELFISH,
        MALICIOUS,
        FleetStrategy.preset("disruptive"),
        None,  # placeholder: random strategy with positive margin
    ]

    failures = 0
    worst = 0.0
    for case in range(100):
        multi_od = case % 4 == 3
        if multi_od:
            sizes = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            delays, routes, links, units, offset = [], [], [], [], 0
            for s, n in enumerate(sizes):
                ids = []
                for j in range(n):
                    lid = f"u{s}l{j}"
                    links.append(
                        Link(
                            lid,
                            BPRDelay(
                                float(rng.uniform(1, 8)),
                                float(rng.uniform(0.5, 2.0)),
                                float(rng.uniform(20, 80)),
                                float(rng.choice([2.0, 4.0])),
                            ),
                        )
                    )
                    routes.append(Route(f"u{s}r{j}", (lid,)))
                    ids.append(f"u{s}r{j}")
                units.append(
                    ODUnit(
                        f"O{s}",
                        f"D{s}",
                        q_hdv=float(rng.uniform(10, 60)),
                        q_crv=float(rng.uniform(2, 25)),
                        route_ids=tuple(ids),
                    )
                )
            net = Network(links, routes, units=units)
        else:
            n = int(rng.integers(2, 6))
            net = single_od_network(
                [
                    BPRDelay(
                        float(rng.uniform(1, 8)),
                        float(rng.uniform(0.5, 2.0)),
                        float(rng.uniform(20, 80)),
                        float(rng.choice([2.0, 4.0])),
                    )
                    for _ in range(n)
                ],
                q_hdv=float(rng.uniform(10, 80)),
                q_crv=float(rng.uniform(2, 40)),
            )
        strategy = strategies[case % 4]
        if strategy is None:
            lam_h = float(rng.uniform(-1, 0.8))
            strategy = FleetStrategy(lam_h, float(rng.uniform(lam_h + 0.2, 1.2)))

        blocks = net.unit_blocks()
        h = np.zeros(net.n_routes)
        for block, unit in zip(blocks, net.units):
            h[block] = rng.dirichlet(np.ones(len(block))) * unit.q_hdv
        forward = fleet_assign(strategy, h, net, seed=case, certify=False)
        q = h + forward.f
        inv = solve_inverse(strategy, q, net, seed=case)
        q_crv_total = float(np.sum(net.fleet_sizes()))
        err = float(np.max(np.abs(inv.f_hat - forward.f)))
        worst = max(worst, err / max(q_crv_total, 1e-12))
        if err > 1e-4 * q_crv_total:
            failures += 1
    checks.append((f"all 100 round trips within 1e-4 * fleet (worst rel {worst:.2e})", failures == 0))
    finish("2 inverse round trip", checks, started, budget=60.0)


def test_criterion_3_nonuniqueness_witnesses():
    started = time.perf_counter()
    checks = []
    net = three_affine_routes(q_hdv=70.0, q_crv=30.0)
    q = np.array([30.0, 30.0, 40.0])

    # altruistic: both constructed pairs certify, inverse exhibits >= 2
    pairs = [
        (np.array([30.0, 0.0, 40.0]), np.array([0.0, 30.0, 0.0])),
        (np.array([0.0, 30.0, 40.0]), np.array([30.0, 0.0, 0.0])),
    ]
    both = all(
        np.allclose(h + f, q)
        and certify_local_min(ALTRUISTIC, h, f, net).is_local_min
        for h, f in pairs
    )
    checks.append(("altruistic witness pair certify", both))
    inv_alt = solve_inverse(ALTRUISTIC, q, net)
    checks.append(
        (
            "altruistic inverse: theorem off, >= 2 solutions",
            (not inv_alt.certificate.theorem_applies) and len(inv_alt.solutions) >= 2,
        )
    )

    # social: fleet completes the same total from two different splits
    social_pairs = [
        (np.array([0.0, 30.0, 40.0]), np.array([30.0, 0.0, 0.0])),
        (np.array([30.0, 0.0, 40.0]), np.array([0.0, 30.0, 0.0])),
    ]
    both_social = all(
        np.allclose(h + f, q)
        and certify_local_min(SOCIAL, h, f, net).is_local_min
        for h, f in social_pairs
    )
    checks.append(("social witness pair certify", both_social))
    inv_soc = solve_inverse(SOCIAL, q, net)
    checks.append(
        (
            "social inverse: theorem off, >= 2 solutions",
            (not inv_soc.certificate.theorem_applies) and len(inv_soc.solutions) >= 2,
        )
    )
    finish("3 nonuniqueness witnesses", checks, started, budget=1.0)


def test_criterion_4_classifier_versus_numerical_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(44)
    mismatches = 0
    label_violations = 0
    for _ in range(1000):
        gamma = float(rng.choice([2.0, 3.0, 4.0]))
        t0 = float(rng.uniform(1, 5))
        d = float(rng.uniform(0.5, 2))
        cap = float(rng.uniform(5, 20))
        delay = BPRDelay(t0, d, cap, gamma)
        lam_h = float(rng.uniform(-1, 1))
        lam_c = float(rng.uniform(-1, 1))
        eta, phi = rng.uniform(0.05, 12.0, 2)

        def link_objective(p):
            return (lam_h * eta + lam_c * p) * delay.value(eta + p)

        eps = 1e-4 * max(1.0, phi)
        fd2 = (link_objective(phi + eps) - 2 * link_objective(phi) + link_objective(phi - eps)) / eps**2
        analytic = (
            2 * lam_c + (gamma - 1) * lam_h
        ) * eta + lam_c * (1 + gamma) * phi
        # common positive factor of the curvature expression
        scale_factor = t0 * d / cap**gamma * gamma * (eta + phi) ** (gamma - 2.0)
        scaled = analytic * scale_factor
        tol = 1e-6 * max(1.0, abs(fd2), abs(scaled))
        if abs(fd2 - scaled) > 1e-4 * max(1.0, abs(fd2)):
            mismatches += 1
        if abs(scaled) > tol and abs(fd2) > tol and np.sign(scaled) != np.sign(fd2):
            mismatches += 1

        # classifier must only claim global labels when sampled signs agree
        net = single_od_network([delay], q_hdv=1, q_crv=1)
        from fleet_inverse import classify_convexity, ConvexityKind

        kind = classify_convexity(FleetStrategy(lam_h, lam_c), net).kind
        row = _curvature_data(FleetStrategy(lam_h, lam_c), net)[0]
        signs = [
            link_curvature_sign(row, float(e), float(p))
            for e, p in rng.uniform(0.0, 20.0, size=(30, 2))
        ]
        if kind is ConvexityKind.CONVEX_EVERYWHERE and any(v < 0 for v in signs):
            label_violations += 1
        if kind is ConvexityKind.CONCAVE_EVERYWHERE and any(v > 0 for v in signs):
            label_violations += 1

    checks = [
        ("curvature expression matches central differences on 1000 draws", mismatches == 0),
        ("global labels agree with every sampled sign", label_violations == 0),
    ]
    finish("4 convexity classifier vs oracle", checks, started, budget=10.0)


def test_criterion_5_positive_definiteness_gates():
    started = time.perf_counter()
    checks = []

    net8 = overlap_network()
    dep = net8.routes_linearly_independent()
    v = dep.null_basis[:, 0]
    aligned = np.allclose(np.abs(v), 0.5, atol=1e-12) and (
        v[0] * v[3] > 0 > v[0] * v[1] and v[0] * v[2] < 0
    )
    checks.append(
        ("dependent with null vector proportional to (1,-1,-1,1)", (not dep.independent) and aligned)
    )

    unstable = cross_dependent_two_route(2.0, 1.0)
    cert = unstable.feasible_direction_pd(np.array([30.0, 40.0]))
    checks.append(
        (
            "cross slopes summing to 3 fail with min_rayleigh -1 (1e-9)",
            (not cert.passes) and abs(cert.min_rayleigh + 1.0) <= 1e-9,
        )
    )

    stable = cross_dependent_two_route(0.5, 0.5)
    cert = stable.feasible_direction_pd(np.array([30.0, 40.0]))
    checks.append(
        (
            "cross slopes summing to 1 pass with min_rayleigh 1 (1e-9)",
            cert.passes and abs(cert.min_rayleigh - 1.0) <= 1e-9,
        )
    )

    net_2od = two_od_overlap()
    cert = net_2od.feasible_direction_pd(np.array([25.0, 25.0, 25.0, 25.0]))
    checks.append(
        (
            "two-unit shared-link instance: min_rayleigh 0, strict test fails",
            (not cert.passes) and abs(cert.min_rayleigh) <= 1e-9,
        )
    )
    finish("5 positive definiteness gates", checks, started, budget=1.0)


def test_criterion_6_stability_bound_validation():
    started = time.perf_counter()
    net = asymmetric_two_route()
    bound = lipschitz_bound(SELFISH, net, samples=150, seed=6)
    rng = np.random.default_rng(66)
    violations = 0
    pairs = 0
    worst_ratio = 0.0
    while pairs < 100:
        h1 = rng.dirichlet(np.ones(2)) * 50.0
        h2 = rng.dirichlet(np.ones(2)) * 50.0
        q1 = h1 + fleet_assign(SELFISH, h1, net, certify=False).f
        q2 = h2 + fleet_assign(SELFISH, h2, net, certify=False).f
        gap = float(np.linalg.norm(q1 - q2))
        if gap < 1e-8:
            continue
        pairs += 1
        f1 = solve_inverse(SELFISH, q1, net).f_hat
        f2 = solve_inverse(SELFISH, q2, net).f_hat
        ratio = float(np.linalg.norm(f1 - f2)) / gap
        worst_ratio = max(worst_ratio, ratio)
        if ratio > bound.bound:
            violations += 1
    checks = [
        (
            f"100 observed pairs within bound {bound.bound:.3g} (worst ratio {worst_ratio:.3g})",
            violations == 0 and bound.defined,
        )
    ]
    finish("6 stability bound validation", checks, started, budget=10.0)


def test_criterion_7_stackelberg_suite():
    started = time.perf_counter()
    checks = []
    net = symmetric_quadratic(q_hdv=50.0, q_crv=50.0)

    h_even = induced_ue(MixedCornerStrategy(0.5).as_mixture(), network=net)
    checks.append(("induced equilibrium at p=0.5 is exactly (25,25)", np.array_equal(h_even, [25.0, 25.0])))
    h_pure = induced_ue(MixedCornerStrategy(1.0).as_mixture(), network=net)
    checks.append(("induced equilibrium at p=1 is exactly (0,50)", np.array_equal(h_pure, [0.0, 50.0])))

    optimum = optimize_corner_mixture(MALICIOUS, net)
    symmetric = all(
        any(abs((1.0 - p) - other) < 1e-4 for other in optimum.optima) for p in optimum.optima
    )
    checks.append(("optimum set symmetric about one half", symmetric and abs(optimum.p_best - 0.5) < 1e-4))

    support = verify_corner_support(net, resolution=0.05)
    checks.append(
        (f"corner support worst margin {support.worst_margin:.2e} >= -1e-9", support.worst_margin >= -1e-9)
    )

    comparison = compare_routings(net, days=60, mu=0.2, seed=0)
    checks.append(("best-response cycle rules out pure Nash", not comparison.nash_exists))
    finish("7 stackelberg suite", checks, started, budget=30.0)


def test_criterion_8_myopic_oscillation_and_comparison():
    started = time.perf_counter()
    checks = []
    net = symmetric_quadratic(q_hdv=50.0, q_crv=50.0)
    config = SimulationConfig(days=200, mu=0.2, seed=0, strategy=MALICIOUS)
    states = simulate(config, np.array([30.0, 20.0]), net)
    corners = [int(np.argmax(s.f)) for s in states]
    burn = 50
    window = math.ceil(2 / config.mu) + 2
    alternates = all(
        set(corners[i : i + window]) == {0, 1} for i in range(burn, len(corners) - window)
    )
    checks.append(("fleet corners alternate past burn-in", alternates))

    myopic_mean = float(np.mean([s.t_hdv for s in states[burn:]]))
    optimum = optimize_corner_mixture(MALICIOUS, net)
    stackelberg_time = -optimum.objective_best
    checks.append(
        (
            f"myopic average {myopic_mean:.0f} >= Stackelberg expectation {stackelberg_time:.0f}",
            myopic_mean >= stackelberg_time,
        )
    )
    finish("8 myopic oscillation and comparison", checks, started, budget=10.0)


def test_criterion_9_discrete_pipeline():
    started = time.perf_counter()
    checks = []
    net = symmetric_quadratic(q_hdv=81.0, q_crv=19.0)

    recovery = discrete_recover(SELFISH, np.array([50.0, 50.0]), net)
    target = np.array([40.5, 40.5])
    within = float(np.linalg.norm(recovery.inverse.h_hat - target)) <= recovery.closeness_bound
    checks.append(("recovered HDV flow within the reported radius of (40.5, 40.5)", within))
    cands = {tuple(c) for c in recovery.integer_candidates}
    checks.append(
        ("integer candidates (9,10) and (10,9) inside rounding radius", {(9.0, 10.0), (10.0, 9.0)} <= cands)
    )

    h0 = np.array([31.0, 50.0])
    q = h0 + fleet_assign(MALICIOUS, h0, net).f
    recovery_mal = discrete_recover(MALICIOUS, q, net)
    continuous = solve_inverse(MALICIOUS, q, net)
    coincide = np.allclose(recovery_mal.inverse.f_hat, continuous.f_hat, atol=1e-12) and np.allclose(
        continuous.f_hat, np.round(continuous.f_hat), atol=1e-12
    )
    checks.append(("malicious discrete and continuous inverses coincide exactly", coincide))
    finish("9 discrete pipeline", checks, started, budget=5.0)

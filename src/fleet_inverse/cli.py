"""Batch command-line interface: scenario in, CSV report out.

    fleet-inverse <subcommand> --scenario <path> --out <path> ...

Subcommands: forward, inverse, classify, certify, simulate, stackelberg,
lipschitz, fiber.  Each takes only the flags its solvers read: --seed on
forward, simulate, stackelberg and lipschitz, --days and --mu on simulate
and stackelberg, --resolution on stackelberg, --samples on lipschitz.
OPTIONS, the option table, is the one declaration of the flags (type,
accepted range and the message refusing a value outside it, default,
subcommands); the parser, the usage and help texts and the README's usage
block read it.  A flag is given as `--flag value` or `--flag=value`, the
last of a repeated flag wins, and prefix abbreviations such as `--scen`
are not flags.  A parse error prints a usage line and argparse's wording
of the error to stderr and exits 2.

Reports are CSV (header row from the report's fields, comma delimiter, LF
line endings, full-precision numbers, certificates as 0/1) plus a short
summary on standard output.  Runs are deterministic given the scenario and
seed.

Exit codes: 0 success, 2 parse, 3 infeasible, 4 nonconverged, 5 unsupported.
Solves run on one thread; grid sweeps (the stackelberg grids, the lipschitz
samples) run as vectorized batches.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from collections.abc import Callable
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import dynamics, inverse, stackelberg
from .config import _valid_seed
from .errors import (
    ConvergenceError,
    DelayDomainError,
    FleetModelError,
    InfeasibleProblemError,
    NotRealisableError,
    UnsupportedDelayError,
)
from .forward import certify_local_min, fleet_assign
from .objective import classify_convexity
from .scenario import Scenario, ScenarioError, parse_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGED = 4
EXIT_UNSUPPORTED = 5

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(out_path: str, rows: list[dict]) -> None:
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(_fmt(value) for value in row.values()))
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)


def _need(scenario: Scenario, attr: str, what: str):
    value = getattr(scenario, attr)
    if value is None:
        raise ScenarioError("missing-field", f"$.{attr}", f"{what} is required by this subcommand")
    return value


def _simulation(scenario: Scenario, args) -> dynamics.SimulationConfig:
    """The scenario's simulation settings with the --days, --mu and --seed
    given on the command line in place of its own."""
    overrides = {name: getattr(args, name, None) for name in ("days", "mu", "seed")}
    return dataclasses.replace(
        scenario.simulation, **{name: value for name, value in overrides.items() if value is not None}
    )


# -- subcommand handlers ----------------------------------------------------------


def _run_forward(scenario: Scenario, args) -> tuple[list[dict], list[str]]:
    net = scenario.network
    h = _need(scenario, "hdv_route_flows", "hdv_route_flows")
    result = fleet_assign(scenario.strategy, h, net, seed=_simulation(scenario, args).seed, config=scenario.config)
    if not result.trace.converged:
        raise ConvergenceError("forward solver hit its iteration cap")
    times = net.route_times(h + result.f)
    rows = [
        {
            "route": net.routes[r].id,
            "hdv_flow": float(h[r]),
            "fleet_flow": float(result.f[r]),
            "total_flow": float(h[r] + result.f[r]),
            "route_time": float(times[r]),
            "objective": result.objective,
            "is_local_min": result.certificate.is_local_min,
            "min_directional_derivative": result.certificate.min_directional_derivative,
            "n_minimizers": len(result.minimizer_set),
        }
        for r in range(net.n_routes)
    ]
    summary = [
        f"forward assignment ({result.trace.method}): objective {result.objective:.6g}",
        "fleet flow: " + ", ".join(f"{net.routes[r].id}={result.f[r]:.6g}" for r in range(net.n_routes)),
        f"local minimum certificate: {'pass' if result.certificate.is_local_min else 'FAIL'}",
    ]
    if len(result.minimizer_set) > 1:
        summary.append(f"{len(result.minimizer_set)} tied minimizers found")
    return rows, summary


def _run_inverse(scenario: Scenario, args) -> tuple[list[dict], list[str]]:
    net = scenario.network
    if scenario.observed_link_flows is not None:
        result = inverse.inverse_link_flows(
            scenario.strategy, scenario.observed_link_flows, net, config=scenario.config
        )
        names = [link.id for link in net.links]
        observed = scenario.observed_link_flows
        id_col = "link"
    else:
        observed = _need(scenario, "observed_route_flows", "observed flows")
        result = inverse.solve_inverse(scenario.strategy, observed, net, config=scenario.config)
        names = [route.id for route in net.routes]
        id_col = "route"
    if not result.converged:
        raise ConvergenceError("inverse solver did not reach its residual target")
    fiber_dim = result.fiber.dimension if result.fiber is not None else 0
    rows = [
        {
            id_col: names[i],
            "observed_flow": float(observed[i]),
            "fleet_flow_hat": float(result.f_hat[i]),
            "hdv_flow_hat": float(result.h_hat[i]),
            "residual": result.residual,
            "theorem_applies": result.certificate.theorem_applies,
            "min_rayleigh": result.certificate.min_rayleigh,
            "margin": result.certificate.margin,
            "n_solutions": len(result.solutions),
            "fiber_dimension": fiber_dim,
        }
        for i in range(len(names))
    ]
    summary = [
        f"inverse ({result.level} level): residual {result.residual:.3g}",
        "fleet flow estimate: "
        + ", ".join(f"{names[i]}={result.f_hat[i]:.6g}" for i in range(len(names))),
        f"uniqueness certificate: {'applies' if result.certificate.theorem_applies else 'DOES NOT APPLY'}"
        f" ({result.certificate.reason})",
    ]
    if len(result.solutions) > 1:
        summary.append(f"{len(result.solutions)} distinct solutions exhibited")
    return rows, summary


def _run_classify(scenario: Scenario, args) -> tuple[list[dict], list[str]]:
    result = classify_convexity(scenario.strategy, scenario.network, scenario.config.pd_rtol)
    rows = [
        {
            "lambda_hdv": scenario.strategy.lam_hdv,
            "lambda_crv": scenario.strategy.lam_crv,
            "classification": result.label,
        }
    ]
    return rows, [f"objective classification: {result.label}"]


def _run_certify(scenario: Scenario, args) -> tuple[list[dict], list[str]]:
    net = scenario.network
    h = _need(scenario, "hdv_route_flows", "hdv_route_flows")
    f = _need(scenario, "fleet_route_flows", "fleet_route_flows")
    cert = certify_local_min(scenario.strategy, h, f, net, scenario.config)
    q = np.asarray(h) + np.asarray(f)
    pd = net.feasible_direction_pd(q, scenario.config.pd_rtol)
    independence = net.routes_linearly_independent(scenario.config.rank_rtol)
    # the route flows sharing f's link flow and unit sums
    fiber = inverse.route_fiber(net, net.route_to_link(np.asarray(f)), config=scenario.config)
    rows = [
        {
            "is_local_min": cert.is_local_min,
            "min_directional_derivative": cert.min_directional_derivative,
            "pd_passes": pd.passes,
            "min_rayleigh": pd.min_rayleigh,
            "margin": scenario.strategy.margin,
            "routes_independent": independence.independent,
            "fiber_dimension": fiber.dimension,
        }
    ]
    summary = [
        f"local minimum certificate: {'pass' if cert.is_local_min else 'FAIL'} "
        f"(min directional derivative {cert.min_directional_derivative:.3g})",
        f"feasible-direction PD: {'pass' if pd.passes else 'FAIL'} "
        f"(min pair-swap eigenvalue {pd.min_rayleigh:.3g})",
        f"routes linearly independent: {independence.independent}",
    ]
    return rows, summary


def _run_simulate(scenario: Scenario, args) -> tuple[list[dict], list[str]]:
    net = scenario.network
    h0 = _need(scenario, "hdv_route_flows", "hdv_route_flows")
    sim = _simulation(scenario, args)
    states = dynamics.simulate(sim, h0, net, scenario.config)
    rows = []
    for state in states:
        for r in range(net.n_routes):
            rows.append(
                {
                    "day": state.day,
                    "route": net.routes[r].id,
                    "hdv_flow": float(state.h[r]),
                    "fleet_flow": float(state.f[r]),
                    "route_time": float(state.route_times[r]),
                    "t_hdv": state.t_hdv,
                    "t_crv": state.t_crv,
                }
            )
    mean_hdv = float(np.mean([s.t_hdv for s in states]))
    summary = [
        f"simulated {sim.days} days (mu={sim.mu}, model={sim.model}, seed={sim.seed})",
        f"mean HDV travel time {mean_hdv:.6g}; final day HDV flows: "
        + ", ".join(f"{net.routes[r].id}={states[-1].h[r]:.6g}" for r in range(net.n_routes)),
    ]
    return rows, summary


def _run_stackelberg(scenario: Scenario, args) -> tuple[list[dict], list[str]]:
    net = scenario.network
    sim = _simulation(scenario, args)
    comparison = stackelberg.compare_routings(
        net, days=sim.days, mu=sim.mu, seed=sim.seed, config=scenario.config
    )
    support = stackelberg.verify_corner_support(net, resolution=args.resolution)
    rows = [
        {
            "p_best": comparison.stackelberg.p_best,
            "stackelberg_objective": comparison.stackelberg.objective_best,
            "stackelberg_hdv_time": comparison.stackelberg_hdv_time,
            "myopic_mean_hdv_time": comparison.myopic_mean_hdv_time,
            "nash_exists": comparison.nash_exists,
            "n_optima": len(comparison.stackelberg.optima),
            "worst_corner_margin": support.worst_margin,
            "days": comparison.myopic_days,
            "burn_in": comparison.burn_in,
        }
    ]
    summary = [
        f"optimal corner mixture p = {comparison.stackelberg.p_best:.6g} "
        f"(optima: {', '.join(f'{p:.6g}' for p in comparison.stackelberg.optima)})",
        f"expected HDV time: Stackelberg {comparison.stackelberg_hdv_time:.6g} vs "
        f"myopic time-average {comparison.myopic_mean_hdv_time:.6g}",
        f"pure-strategy Nash point exists: {comparison.nash_exists}",
        f"corner support worst margin {support.worst_margin:.3g} "
        f"over {support.mixtures_checked} mixtures",
    ]
    return rows, summary


def _run_lipschitz(scenario: Scenario, args) -> tuple[list[dict], list[str]]:
    bound = inverse.lipschitz_bound(
        scenario.strategy,
        scenario.network,
        samples=args.samples,
        seed=_simulation(scenario, args).seed,
    )
    rows = [
        {
            "constant": bound.constant,
            "rho": bound.rho,
            "margin": bound.margin,
            "grad_norm": bound.grad_norm,
            "hess_norm": bound.hess_norm,
            "bound": bound.bound if math.isfinite(bound.bound) else math.inf,
            "defined": bound.defined,
            "samples": bound.samples,
        }
    ]
    summary = [
        f"stability bound {bound.bound:.6g} (K={bound.constant:.6g}, rho={bound.rho:.6g}, "
        f"margin={bound.margin:.6g}, {bound.samples} samples)"
    ]
    if not bound.defined:
        summary.append("bound undefined: needs positive margin and positive rho")
    return rows, summary


def _run_fiber(scenario: Scenario, args) -> tuple[list[dict], list[str]]:
    net = scenario.network
    q = scenario.observed_route_flows  # caps the fiber's route flows where given
    if q is not None:
        observed, kind = net.route_to_link(q), "route"
    elif scenario.observed_link_flows is not None:
        observed, kind = scenario.observed_link_flows, "link"
    else:
        raise ScenarioError("missing-field", "$.observed", "fiber needs observed flows")
    phi = inverse.inverse_link_flows(scenario.strategy, observed, net, config=scenario.config).f_hat
    fiber = inverse.route_fiber(net, phi, upper=q, config=scenario.config)
    origin = f"fleet link flow recovered from observed {kind} flows"
    dim = fiber.dimension
    rows = []
    for r in range(net.n_routes):
        rows.append(
            {
                "route": net.routes[r].id,
                "representative": float(fiber.representative[r]),
                "fiber_dimension": dim,
                "residual": fiber.residual,
                "basis_0": float(fiber.basis[r, 0]) if dim >= 1 else 0.0,
                "interval_low_0": fiber.intervals[0][0] if dim >= 1 else 0.0,
                "interval_high_0": fiber.intervals[0][1] if dim >= 1 else 0.0,
            }
        )
    summary = [
        origin,
        "fleet link flow: " + ", ".join(f"{net.links[i].id}={phi[i]:.6g}" for i in range(net.n_links)),
        f"fiber dimension {dim}; representative: "
        + ", ".join(f"{net.routes[r].id}={fiber.representative[r]:.6g}" for r in range(net.n_routes)),
    ]
    if dim >= 1:
        widths = [hi - lo for lo, hi in fiber.intervals]
        summary.append(f"admissible interval widths: {', '.join(f'{w:.6g}' for w in widths)}")
    return rows, summary


HANDLERS = {
    "forward": _run_forward,
    "inverse": _run_inverse,
    "classify": _run_classify,
    "certify": _run_certify,
    "simulate": _run_simulate,
    "stackelberg": _run_stackelberg,
    "lipschitz": _run_lipschitz,
    "fiber": _run_fiber,
}
SUBCOMMANDS = tuple(HANDLERS)


class _Option(NamedTuple):
    """One flag: its metavar, the type its text is read as, the values it
    accepts and the rule it names when it refuses one, its default
    (_REQUIRED when it must be given), the subcommands that take it and its
    help line."""

    metavar: str
    kind: type
    accepts: Callable[[object], bool]
    rule: str
    default: object
    subcommands: tuple[str, ...]
    help: str


_REQUIRED = object()

# The one declaration of the flags, in the order the usage text lists them.
# The parser (_parse_args), the usage and help texts and the README's usage
# block all follow it.
OPTIONS = {
    "scenario": _Option("<path>", str, lambda v: True, "", _REQUIRED, SUBCOMMANDS,
                        "path to the scenario JSON file"),
    "out": _Option("<path>", str, lambda v: True, "", "-", SUBCOMMANDS,
                   "CSV output path, '-' (the default) for stdout"),
    "days": _Option("D", int, lambda v: v >= 1, "must be at least 1", None, ("simulate", "stackelberg"),
                    "override simulation days"),
    "mu": _Option("X", float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]", None,
                  ("simulate", "stackelberg"), "override HDV adaptation rate"),
    "resolution": _Option("R", float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]", 0.1, ("stackelberg",),
                          "corner-support grid resolution, default 0.1"),
    "samples": _Option("N", int, lambda v: v >= 1, "must be at least 1", 200, ("lipschitz",),
                       "stability bound sample count, default 200"),
    "seed": _Option("N", int, _valid_seed, "must lie in [0, 2**63)", None,
                    ("forward", "simulate", "stackelberg", "lipschitz"), "override the scenario seed"),
}
_COMMON = tuple(name for name, option in OPTIONS.items() if option.subcommands == SUBCOMMANDS)


def _synopsis(names) -> str:
    """The named flags as usage lists them, bracketed unless every
    subcommand takes them."""
    flags = {name: f"--{name} {OPTIONS[name].metavar}" for name in names}
    return " ".join(flag if name in _COMMON else f"[{flag}]" for name, flag in flags.items())


def _usage() -> str:
    """The usage block, which the README shows: the flags every subcommand
    takes, then a line for each subcommand that takes more."""
    extra = {
        sub: [name for name, option in OPTIONS.items() if sub in option.subcommands and name not in _COMMON]
        for sub in SUBCOMMANDS
    }
    width = max(len(sub) for sub, names in extra.items() if names)
    return "\n".join(
        [f"fleet-inverse <subcommand> {_synopsis(_COMMON)}"]
        + [f"fleet-inverse {sub:<{width}} ... {_synopsis(names)}" for sub, names in extra.items() if names]
    )


def _help() -> str:
    lines = ["usage: " + _usage().replace("\n", "\n       "), "",
             "subcommands: " + ", ".join(SUBCOMMANDS), "", "options:"]
    for name, option in OPTIONS.items():
        only = "" if name in _COMMON else f" ({', '.join(option.subcommands)})"
        lines.append(f"  {f'--{name} {option.metavar}':<18} {option.help}{only}")
    return "\n".join(lines)


def _parse_args(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The subcommand and the values of the flags it takes, defaults where
    not given, from `--flag value` or `--flag=value`; the last of a repeated
    flag wins, and a prefix of a flag is not that flag.  -h or --help
    prints the help and exits 0.  A parse error prints a usage line and
    argparse's wording of the error to stderr and exits 2."""
    if "-h" in argv or "--help" in argv:
        print(_help())
        raise SystemExit(EXIT_OK)
    subcommand = argv[0] if argv else None
    taken = [name for name, option in OPTIONS.items() if subcommand in option.subcommands]

    def fail(message: str):
        if subcommand in HANDLERS:
            usage, prog = f"fleet-inverse {subcommand} {_synopsis(taken)}", f"fleet-inverse {subcommand}"
        else:
            usage, prog = _usage().split("\n")[0], "fleet-inverse"
        print(f"usage: {usage}\n{prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)

    if subcommand is None:
        fail("the following arguments are required: subcommand")
    if subcommand not in HANDLERS:
        choices = ", ".join(map(repr, SUBCOMMANDS))
        fail(f"argument subcommand: invalid choice: {subcommand!r} (choose from {choices})")
    values = {name: OPTIONS[name].default for name in taken}
    tokens, unrecognized = iter(argv[1:]), []
    for token in tokens:
        flag, given, text = token.partition("=")
        name = flag[2:] if flag.startswith("--") else None
        if name not in values:
            unrecognized.append(token)
            continue
        if not given:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                fail(f"argument {flag}: expected one argument")
        option = OPTIONS[name]
        try:
            values[name] = option.kind(text)
        except ValueError:
            fail(f"argument {flag}: invalid {option.kind.__name__} value: {text!r}")
        if not option.accepts(values[name]):
            fail(f"argument {flag}: {option.rule}, got {text!r}")
    missing = [f"--{name}" for name, value in values.items() if value is _REQUIRED]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        fail(f"unrecognized arguments: {' '.join(unrecognized)}")
    return subcommand, SimpleNamespace(**values)


def run(subcommand: str, scenario: Scenario, out_path: str, args) -> int:
    rows, summary = HANDLERS[subcommand](scenario, args)
    _write_csv(out_path, rows)
    for line in summary:
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    subcommand, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        scenario = parse_scenario(args.scenario)
        return run(subcommand, scenario, args.out, args)
    except ScenarioError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotRealisableError, InfeasibleProblemError, DelayDomainError) as exc:
        print(f"error[infeasible]: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"error[nonconverged]: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (UnsupportedDelayError, FleetModelError) as exc:
        print(f"error[unsupported]: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())

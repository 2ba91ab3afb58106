"""The benchmark's four workloads, driven through the public library API and
the CLI entry point.

Each workload builds its inputs in `setup()` and runs one fixed batch of
operations per `run_pass()`; `pass_s` is its typical pass time on a 2-core
x86 VM, which sets how many passes a run times.  An operation that raises or
fails its output check is recorded as failed; it never aborts the pass.
Output checks use the thresholds of the acceptance suite.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fleet_inverse as fi
from fleet_inverse import cli, scenario

SELFISH = fi.FleetStrategy.preset("selfish")
MALICIOUS = fi.FleetStrategy.preset("malicious")
DISRUPTIVE = fi.FleetStrategy.preset("disruptive")


@dataclass
class Op:
    name: str
    group: str                  # what the op's time is summarised under
    seconds: float
    ok: bool
    detail: str = ""
    parts: dict = field(default_factory=dict)   # phase name -> seconds
    digest: bytes = b""         # result bytes; equal across traced and untraced runs
    trace: dict | None = None   # span aggregates of a forked, traced child
    exit_code: int | None = None


def _failed(name: str, group: str, seconds: float, exc: BaseException) -> Op:
    return Op(name, group, seconds, False, f"{type(exc).__name__}: {exc}")


def _ms(values) -> float:
    return 1e3 * statistics.median(values)


def _percentile_ms(values, q: float) -> float:
    return 1e3 * float(np.percentile(values, q))


# -- roundtrip_mixed -------------------------------------------------------------


def _random_bpr(rng: np.random.Generator) -> fi.BPRDelay:
    return fi.BPRDelay(
        float(rng.uniform(1, 8)),
        float(rng.uniform(0.5, 2.0)),
        float(rng.uniform(20, 80)),
        float(rng.choice([2.0, 4.0])),
    )


def roundtrip_instances(instance_seed: int, count: int = 100):
    """The acceptance suite's criterion-2 generator: single-OD networks with
    2-5 routes plus a two-unit network every fourth case; strategies cycle
    selfish, malicious, disruptive and a random positive-margin strategy."""
    rng = np.random.default_rng(instance_seed)
    cycle = [("selfish", SELFISH), ("malicious", MALICIOUS), ("disruptive", DISRUPTIVE), ("random", None)]
    out = []
    for case in range(count):
        if case % 4 == 3:
            sizes = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            routes, links, units = [], [], []
            for s, n in enumerate(sizes):
                ids = []
                for j in range(n):
                    links.append(fi.Link(f"u{s}l{j}", _random_bpr(rng)))
                    routes.append(fi.Route(f"u{s}r{j}", (f"u{s}l{j}",)))
                    ids.append(f"u{s}r{j}")
                units.append(
                    fi.ODUnit(
                        f"O{s}", f"D{s}",
                        q_hdv=float(rng.uniform(10, 60)),
                        q_crv=float(rng.uniform(2, 25)),
                        route_ids=tuple(ids),
                    )
                )
            net = fi.Network(links, routes, units=units)
        else:
            n = int(rng.integers(2, 6))
            net = fi.single_od_network(
                [_random_bpr(rng) for _ in range(n)],
                q_hdv=float(rng.uniform(10, 80)),
                q_crv=float(rng.uniform(2, 40)),
            )
        label, strategy = cycle[case % 4]
        if strategy is None:
            lam_h = float(rng.uniform(-1, 0.8))
            strategy = fi.FleetStrategy(lam_h, float(rng.uniform(lam_h + 0.2, 1.2)))
        h = np.zeros(net.n_routes)
        for block, unit in zip(net.unit_blocks(), net.units):
            h[block] = rng.dirichlet(np.ones(len(block))) * unit.q_hdv
        out.append((case, label, strategy, h, net))
    return out


def _round_trip(name, group, strategy, h, net, solver_seed, tolerance):
    """One op: forward best response, then the inverse of the observed total."""
    try:
        start = time.perf_counter()
        fwd = fi.fleet_assign(strategy, h, net, seed=solver_seed, certify=False)
        t_fwd = time.perf_counter() - start
        start = time.perf_counter()
        inv = fi.solve_inverse(strategy, h + fwd.f, net, seed=solver_seed)
        t_inv = time.perf_counter() - start
    except Exception as exc:  # a failing op is counted, never fatal
        return _failed(name, group, 0.0, exc)
    mass = float(np.sum(net.fleet_sizes()))
    err = float(np.max(np.abs(inv.f_hat - fwd.f)))
    ok, detail = tolerance(err, mass, inv)
    return Op(
        name, group, t_fwd + t_inv, ok, detail,
        parts={"forward": t_fwd, "inverse": t_inv},
        digest=name.encode() + fwd.f.tobytes() + inv.f_hat.tobytes(),
    )


class RoundtripMixed:
    name = "roundtrip_mixed"
    pass_s = 20.0
    op_unit = "one instance: fleet_assign(certify=False), then solve_inverse on h + f"

    def setup(self, seed: int, instance_seed: int) -> None:
        self.seed = seed
        self.instances = roundtrip_instances(instance_seed)
        self.order = np.random.default_rng(seed).permutation(len(self.instances))

    @staticmethod
    def _tolerance(err, mass, inv):
        ok = err <= 1e-4 * mass
        return ok, "" if ok else f"max|f_hat - f| = {err:.3g} > 1e-4 * fleet mass {mass:.6g}"

    def run_pass(self, tracer=None) -> list[Op]:
        ops = []
        for i in self.order:
            case, label, strategy, h, net = self.instances[i]
            ops.append(
                _round_trip(
                    f"case {case}", label, strategy, h, net,
                    self.seed * 1000 + case, self._tolerance,
                )
            )
        return ops

    def extra_metrics(self, ops: list[Op]) -> list[tuple[str, float, str]]:
        # percentiles over the 100 instances of each instance's median across passes
        per_case: dict[str, dict[str, list[float]]] = {}
        for op in ops:
            for phase, seconds in op.parts.items():
                per_case.setdefault(phase, {}).setdefault(op.name, []).append(seconds)
        out = []
        for phase in ("forward", "inverse"):
            medians = [statistics.median(v) for v in per_case.get(phase, {}).values()]
            for q in (50, 90):
                if medians:
                    out.append((f"{phase}_p{q}_ms", _percentile_ms(medians, q), "ms"))
        return out


# -- route_ladder ----------------------------------------------------------------

RUNGS = (5, 20, 50, 100)
DRAWS_PER_RUNG = 3


def ladder_instances(instance_seed: int):
    """One OD pair over R single-link BPR routes (power 4), q_hdv = 10R,
    q_crv = 5R, h ~ Dirichlet(1) * 10R, for each R in RUNGS."""
    rng = np.random.default_rng(instance_seed)
    out = []
    for r in RUNGS:
        for draw in range(DRAWS_PER_RUNG):
            delays = [
                fi.BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(20, 80)), 4.0)
                for _ in range(r)
            ]
            net = fi.single_od_network(delays, q_hdv=10.0 * r, q_crv=5.0 * r)
            h = rng.dirichlet(np.ones(r)) * 10.0 * r
            out.append((f"R{r}", draw, h, net))
    return out


class RouteLadder:
    name = "route_ladder"
    pass_s = 6.0
    op_unit = "one rung draw: selfish fleet_assign(certify=False), then solve_inverse on h + f"

    def setup(self, seed: int, instance_seed: int) -> None:
        self.seed = seed
        self.instances = ladder_instances(instance_seed)
        self.order = np.random.default_rng(seed).permutation(len(self.instances))

    @staticmethod
    def _tolerance(err, mass, inv):
        ok = err <= 1e-6 * mass and inv.certificate.theorem_applies
        return ok, "" if ok else (
            f"max|f_hat - f| = {err:.3g} (limit 1e-6 * {mass:.6g}), "
            f"theorem_applies={inv.certificate.theorem_applies}"
        )

    def run_pass(self, tracer=None) -> list[Op]:
        ops = []
        for i in self.order:
            rung, draw, h, net = self.instances[i]
            ops.append(
                _round_trip(
                    f"{rung} draw {draw}", rung, SELFISH, h, net,
                    self.seed * 1000 + int(i), self._tolerance,
                )
            )
        return ops

    def extra_metrics(self, ops: list[Op]) -> list[tuple[str, float, str]]:
        out = []
        for phase in ("forward", "inverse"):
            for r in RUNGS:
                times = [op.parts[phase] for op in ops if op.group == f"R{r}" and phase in op.parts]
                if times:
                    out.append((f"{phase}_ms.R{r}", _ms(times), "ms"))
        return out


# -- analysis_suite --------------------------------------------------------------


def _two_quadratic_routes(q_hdv: float, q_crv: float) -> fi.Network:
    return fi.single_od_network(
        [fi.QuadraticDelay(1.0, 1.0), fi.QuadraticDelay(1.0, 1.0)], q_hdv=q_hdv, q_crv=q_crv
    )


def _floats(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class AnalysisSuite:
    name = "analysis_suite"
    pass_s = 3.5
    op_unit = "one library call of the Stackelberg, dynamics, discrete-recovery and stability suite"

    def setup(self, seed: int, instance_seed: int) -> None:
        self.seed = seed
        self.sym = _two_quadratic_routes(50.0, 50.0)
        self.sym_81_19 = _two_quadratic_routes(81.0, 19.0)
        self.asym = fi.single_od_network(
            [fi.BPRDelay(5.0, 1.0, 50.0, 2.0), fi.BPRDelay(15.0, 1.0, 80.0, 2.0)],
            q_hdv=50.0, q_crv=50.0,
        )

    def _calls(self):
        """(name, call, check) triples; check(out, results) -> (ok, detail,
        digest bytes), where results holds this pass's earlier outputs."""
        seed, sym, sym_81_19 = self.seed, self.sym, self.sym_81_19

        def symmetric_optima(out, results):
            symmetric = all(any(abs((1.0 - p) - o) < 1e-4 for o in out.optima) for p in out.optima)
            ok = symmetric and abs(out.p_best - 0.5) < 1e-4
            return ok, f"optima {out.optima} not symmetric about 1/2", _floats(out.p_best, out.objective_best, *out.optima)

        def corner_support(out, results):
            ok = out.worst_margin >= -1e-9
            return ok, f"worst margin {out.worst_margin:.3g} < -1e-9", _floats(out.worst_margin, out.best_corner_value)

        def no_pure_nash(out, results):
            digest = _floats(out.myopic_mean_hdv_time, out.stackelberg_hdv_time, float(out.nash_exists))
            return not out.nash_exists, "a pure Nash point was reported", digest

        def simulate():
            config = fi.SimulationConfig(days=200, mu=0.2, seed=seed, strategy=MALICIOUS)
            return fi.simulate(config, np.array([30.0, 20.0]), sym)

        def myopic_at_least_stackelberg(states, results):
            myopic_mean = float(np.mean([s.t_hdv for s in states[50:]]))
            optimum = results.get("optimize_corner_mixture")
            stackelberg_time = -optimum.objective_best if optimum is not None else float("inf")
            digest = b"".join(s.h.tobytes() + s.f.tobytes() for s in states)
            return myopic_mean >= stackelberg_time, f"myopic mean {myopic_mean:.6g} < Stackelberg {stackelberg_time:.6g}", digest

        def criterion_9_candidates(out, results):
            within = float(np.linalg.norm(out.inverse.h_hat - np.array([40.5, 40.5]))) <= out.closeness_bound
            ok = within and {(9.0, 10.0), (10.0, 9.0)} <= {tuple(c) for c in out.integer_candidates}
            return ok, "recovered flow or integer candidates off", out.inverse.h_hat.tobytes() + _floats(out.closeness_bound)

        def discrete_malicious():
            h0 = np.array([31.0, 50.0])
            q = h0 + fi.fleet_assign(MALICIOUS, h0, sym_81_19).f
            return fi.discrete_recover(MALICIOUS, q, sym_81_19), fi.solve_inverse(MALICIOUS, q, sym_81_19)

        def malicious_coincidence(out, results):
            recovery, continuous = out
            ok = np.allclose(recovery.inverse.f_hat, continuous.f_hat, atol=1e-12) and np.allclose(
                continuous.f_hat, np.round(continuous.f_hat), atol=1e-12
            )
            return ok, "discrete and continuous inverses differ", recovery.inverse.f_hat.tobytes() + continuous.f_hat.tobytes()

        def bound_defined(out, results):
            ok = out.defined and np.isfinite(out.bound) and out.bound > 0
            return ok, f"bound undefined ({out.bound})", _floats(out.bound, out.rho)

        return [
            ("optimize_corner_mixture", lambda: fi.optimize_corner_mixture(MALICIOUS, sym), symmetric_optima),
            ("verify_corner_support", lambda: fi.verify_corner_support(sym, resolution=0.05), corner_support),
            ("compare_routings", lambda: fi.compare_routings(sym, days=60, mu=0.2, seed=seed), no_pure_nash),
            ("simulate", simulate, myopic_at_least_stackelberg),
            ("discrete_recover.selfish",
             lambda: fi.discrete_recover(SELFISH, np.array([50.0, 50.0]), sym_81_19), criterion_9_candidates),
            ("discrete_recover.malicious", discrete_malicious, malicious_coincidence),
            ("lipschitz_bound", lambda: fi.lipschitz_bound(SELFISH, self.asym, samples=150, seed=seed), bound_defined),
        ]

    def run_pass(self, tracer=None) -> list[Op]:
        ops, results = [], {}
        for name, call, check in self._calls():
            start = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failing op is counted, never fatal
                ops.append(_failed(name, name, time.perf_counter() - start, exc))
                continue
            seconds = time.perf_counter() - start
            results[name] = out
            ok, detail, digest = check(out, results)
            ops.append(Op(name, name, seconds, ok, "" if ok else detail, digest=name.encode() + digest))
        return ops

    def extra_metrics(self, ops: list[Op]) -> list[tuple[str, float, str]]:
        names = dict.fromkeys(op.group for op in ops)
        return [(f"call_ms.{n}", _ms([op.seconds for op in ops if op.group == n]), "ms") for n in names]


# -- cli_fixtures ----------------------------------------------------------------

# documented report headers of each subcommand (inverse: "route" or "link" first)
CSV_HEADERS = {
    "forward": "route,hdv_flow,fleet_flow,total_flow,route_time,objective,is_local_min,"
               "min_directional_derivative,n_minimizers",
    "inverse": "observed_flow,fleet_flow_hat,hdv_flow_hat,residual,theorem_applies,"
               "min_rayleigh,margin,n_solutions,fiber_dimension",
    "classify": "lambda_hdv,lambda_crv,classification",
    "certify": "is_local_min,min_directional_derivative,pd_passes,min_rayleigh,margin,"
               "routes_independent,fiber_dimension",
    "simulate": "day,route,hdv_flow,fleet_flow,route_time,t_hdv,t_crv",
    "stackelberg": "p_best,stackelberg_objective,stackelberg_hdv_time,myopic_mean_hdv_time,"
                   "nash_exists,n_optima,worst_corner_margin,days,burn_in",
    "lipschitz": "constant,rho,margin,grad_norm,hess_norm,bound,defined,samples",
    "fiber": "route,representative,fiber_dimension,residual,basis_0,interval_low_0,interval_high_0",
}
DOCUMENTED_ANSWERS = {0, 2, 3, 5}   # 4 (nonconverged) and anything else fail
# runs for more than 300 s at the seed (no documented answer); timed runs leave
# it out, and `run.py --all` includes it, where the deadline turns it into one
# counted, named failure
NON_TERMINATING = {("cross_dependent_unstable", "stackelberg")}
CELL_DEADLINE_S = 60.0   # > 2x the slowest cell that completes, traced or not


def _csv_ok(subcommand: str, text: str) -> tuple[bool, str]:
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        return False, "report needs a header, at least one row and a final newline"
    header, rows = lines[0], lines[1:-1]
    expected = CSV_HEADERS[subcommand]
    if subcommand == "inverse":
        good = header in (f"route,{expected}", f"link,{expected}")
    else:
        good = header == expected
    if not good:
        return False, f"unexpected header {header!r}"
    width = header.count(",")
    if any(row.count(",") != width for row in rows):
        return False, "a row has the wrong number of fields"
    return True, ""


class CliFixtures:
    name = "cli_fixtures"
    pass_s = 26.0
    op_unit = "one fixture x subcommand cell through fleet_inverse.cli.main in a forked child"

    def __init__(self, tmp_dir: Path, full_matrix: bool = False):
        self.tmp = tmp_dir
        self.full_matrix = full_matrix

    def setup(self, seed: int, instance_seed: int) -> None:
        cells = [(fx, sub) for fx in scenario.list_fixtures() for sub in cli.SUBCOMMANDS]
        self.skipped = [] if self.full_matrix else [c for c in cells if c in NON_TERMINATING]
        cells = [c for c in cells if c not in self.skipped]
        order = np.random.default_rng(seed).permutation(len(cells))
        self.cells = [cells[i] for i in order]
        self.tmp.mkdir(parents=True, exist_ok=True)

    def _run_cell(self, fixture: str, subcommand: str, tracer) -> Op:
        name = f"{fixture} {subcommand}"
        out_csv, log, result = (self.tmp / f"{fixture}.{subcommand}{ext}" for ext in (".csv", ".log", ".json"))
        for path in (out_csv, log, result):
            path.unlink(missing_ok=True)
        argv = [subcommand, "--scenario", str(scenario.fixture_path(fixture)), "--out", str(out_csv)]
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            status = 70
            # never outlive the deadline, even if this process loses its parent
            signal.alarm(int(CELL_DEADLINE_S) + 5)
            try:
                fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                os.dup2(fd, 1)
                os.dup2(fd, 2)
                start = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - start
                payload = {"code": code, "seconds": seconds}
                if tracer is not None:
                    payload["trace"] = tracer.aggregate()
                result.write_text(json.dumps(payload))
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)

        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CELL_DEADLINE_S)
            if not ready:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.waitpid(pid, 0)
            os.close(pidfd)
        if not ready:
            return Op(name, subcommand, CELL_DEADLINE_S, False, f"killed at the {CELL_DEADLINE_S:.0f} s deadline",
                      trace={"cli.timeout": 1})
        if not result.exists():
            last = (log.read_text().strip().splitlines() or ["no output"])[-1]
            return Op(name, subcommand, 0.0, False, f"cli.main raised: {last}")
        payload = json.loads(result.read_text())
        code, seconds = payload["code"], payload["seconds"]
        csv_bytes = out_csv.read_bytes() if out_csv.exists() else b""
        op = Op(name, subcommand, seconds, True, exit_code=code, trace=payload.get("trace"),
                digest=f"{name}:{code}:".encode() + csv_bytes)
        if code not in DOCUMENTED_ANSWERS:
            op.ok, op.detail = False, f"exit code {code}"
        elif code == 0:
            op.ok, op.detail = _csv_ok(subcommand, csv_bytes.decode())
        return op

    def run_pass(self, tracer=None) -> list[Op]:
        return [self._run_cell(fx, sub, tracer) for fx, sub in self.cells]

    def extra_metrics(self, ops: list[Op]) -> list[tuple[str, float, str]]:
        codes = sorted(DOCUMENTED_ANSWERS | {4})
        return [(f"exit_{code}", sum(op.exit_code == code for op in ops), "count") for code in codes]

    def cleanup(self) -> None:
        for path in self.tmp.glob("*"):
            path.unlink()
        self.tmp.rmdir()

"""fleet-inverse benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all            # every workload, untraced then traced

Run from the root of a source checkout; the library is imported from its
`src/` directory, never from an installed copy.  Workloads:

  roundtrip_mixed  forward then inverse on the acceptance suite's criterion-2 instances
  route_ladder     selfish forward then inverse on one OD pair with R = 5, 20, 50, 100 routes
  analysis_suite   Stackelberg, dynamics, discrete-recovery and stability library calls
  cli_fixtures     every bundled fixture x every CLI subcommand, one forked child per cell

BENCHMARK.json lists route_ladder and cli_fixtures, whose whole-pass times
held within the 0.25 bound across 10 seeds on a 2-core VM whose speed drifts
by up to ~50%; the pass times of roundtrip_mixed and analysis_suite did not.

`--seed` seeds everything random in a run: the solver seeds passed to the
library, the simulation and sampling seeds, and the order of the operations.
The instance sets of roundtrip_mixed and route_ladder are drawn from
`--instance-seed` (default 2024) and stay fixed across `--seed`, because
their cost varies several-fold from one draw to the next; pass another
`--instance-seed` to check a claim on instances not used while writing it.

With `--trace 0` a run repeats its fixed batch of operations ("a pass")
--seconds // (the workload's typical pass time) times, at least once, and
reports the end-to-end metrics: `setup_s` (median of several fresh-process
set-ups) and `wall_s` (median pass time); it prints each workload's own
detail metrics above them.  With `--trace 1` it runs one untraced pass, then
one pass with spans recorded around every public library function (see
tracing.py), checks that both passes give identical results, prints every
per-layer metric and the tracing overhead, and reports the per-layer metrics
that BENCHMARK.json lists.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("roundtrip_mixed", "route_ladder", "analysis_suite", "cli_fixtures")
SETUP_SAMPLES = 7
DEFAULT_INSTANCE_SEED = 2024
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def pin_environment(workload: str) -> None:
    """Fix thread counts before numpy or the library is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["FLEET_INVERSE_THREADS"] = "2" if workload == "cli_fixtures" else "1"


def make_workload(name: str, full_matrix: bool = False):
    import workloads

    if name == "cli_fixtures":
        return workloads.CliFixtures(TMP, full_matrix)
    return {
        "roundtrip_mixed": workloads.RoundtripMixed,
        "route_ladder": workloads.RouteLadder,
        "analysis_suite": workloads.AnalysisSuite,
    }[name]()


def setup_probe(args) -> None:
    """Time package import plus input generation in this fresh process."""
    start = time.perf_counter()
    make_workload(args.workload).setup(args.seed, args.instance_seed)
    print(repr(time.perf_counter() - start))


def measure_setup(args) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
        "--seed", str(args.seed), "--instance-seed", str(args.instance_seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def digest(ops) -> str:
    h = hashlib.sha256()
    for d in sorted(op.digest for op in ops):
        h.update(hashlib.sha256(d).digest())
    return h.hexdigest()[:16]


def kernel_micro_us() -> dict[str, float]:
    """Untraced per-call cost of four kernels on a 5-route BPR network, for
    comparison with the hand-measured baseline (route_times 23 us,
    objective_gradient_in_f 46 us, FeasibleSet.project 27 us).  The forward
    solvers project onto the plain simplex, the inverse onto the set capped
    by the observed flow."""
    import numpy as np
    import fleet_inverse as fi

    rng = np.random.default_rng(0)
    net = fi.single_od_network(
        [fi.BPRDelay(float(rng.uniform(1, 8)), 1.0, float(rng.uniform(20, 80)), 4.0) for _ in range(5)],
        q_hdv=50.0, q_crv=25.0,
    )
    h, f = rng.dirichlet(np.ones(5)) * 50.0, rng.dirichlet(np.ones(5)) * 25.0
    feasible = fi.FeasibleSet.from_network(net)
    capped = fi.FeasibleSet.from_network(net, upper=h + f)
    selfish = fi.FleetStrategy.preset("selfish")
    kernels = {
        "network.route_times.us_R5": lambda: net.route_times(h + f),
        "objective.objective_gradient_in_f.us_R5": lambda: fi.objective_gradient_in_f(selfish, h, f, net),
        "forward.project.us_R5": lambda: feasible.project(f - 3.0),
        "forward.project_capped.us_R5": lambda: capped.project(f - 3.0),
    }
    out = {}
    for name, call in kernels.items():
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            for _ in range(500):
                call()
            samples.append((time.perf_counter() - start) / 500 * 1e6)
        out[name] = statistics.median(samples)
    return out


def report(ops, extra) -> None:
    attempted = len(ops)
    failed = [op for op in ops if not op.ok]
    print(f"fail_frac: {len(failed) / attempted:.6g} ratio ({len(failed)} of {attempted} ops)")
    for name, value, unit in extra:
        print(f"{name}: {value:.6g} {unit}")
    for op in failed:
        print(f"FAILED {op.name}: {op.detail}")


def run_workload(args) -> int:
    import numpy as np
    import fleet_inverse

    if Path(fleet_inverse.__file__).resolve().parent != (SRC / "fleet_inverse").resolve():
        print(f"error: fleet_inverse imported from {fleet_inverse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup_samples = None if args.trace else measure_setup(args)
    wl = make_workload(args.workload, args.full_matrix)
    wl.setup(args.seed, args.instance_seed)
    print(f"workload: {wl.name} (op = {wl.op_unit})")
    print(
        f"environment: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} FLEET_INVERSE_THREADS={os.environ['FLEET_INVERSE_THREADS']} "
        f"BLAS threads=1 seed={args.seed} instance_seed={args.instance_seed} trace={args.trace}"
    )
    for cell in getattr(wl, "skipped", []):
        print(f"not run: {' '.join(cell)} (no documented answer at the seed; run.py --all runs it)")

    try:
        if args.trace:
            correct, ops, metrics = traced_run(wl)
        else:
            correct, ops, metrics = timed_run(wl, args.seconds)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    if setup_samples:
        metrics["setup_s"] = statistics.median(setup_samples)
    failed = sum(not op.ok for op in ops)
    units = {}
    for name in metrics:
        units[name] = UNITS.get(name) or UNITS.get(name.rsplit(".", 1)[-1], "count")
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def timed_run(wl, seconds: float):
    # the pass count follows from --seconds and the workload's typical pass
    # time, not from the clock, so every run of a workload times the same work
    passes, ops, digests = [], [], set()
    for _ in range(max(1, int(seconds // wl.pass_s))):
        t0 = time.perf_counter()
        batch = wl.run_pass()
        passes.append(time.perf_counter() - t0)
        ops.extend(batch)
        digests.add(digest(batch))
    print(f"passes: {len(passes)} ({', '.join(f'{p:.3f}' for p in passes)} s)")
    report(ops, wl.extra_metrics(ops))
    same = len(digests) == 1
    print(f"result digest: {digests.pop()}" if same else f"FAILED: passes gave different results {digests}")
    return same, ops, {"wall_s": statistics.median(passes)}


def traced_run(wl):
    import tracing

    t0 = time.perf_counter()
    plain = wl.run_pass()
    plain_wall = time.perf_counter() - t0
    kernels = kernel_micro_us()

    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    traced = wl.run_pass(tracer=tracer)
    traced_wall = time.perf_counter() - t0

    agg = tracer.aggregate()
    for op in traced:
        if op.trace:
            tracing.merge(agg, op.trace)
    metrics = tracing.layer_metrics(agg)
    metrics.update(kernels)

    report(traced, wl.extra_metrics(traced))
    print(f"untraced pass {plain_wall:.3f} s, traced pass {traced_wall:.3f} s, "
          f"tracing overhead {traced_wall - plain_wall:.3f} s, spans {len(tracer.starts)}")
    print("kernel cost at R = 5, untraced (hand-measured baseline: route_times 23 us, "
          "objective_gradient_in_f 46 us, project 27 us):")
    for name, value in kernels.items():
        print(f"  {name}: {value:.3g} us")
    print("per-layer metrics:")
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g}")
    same = digest(plain) == digest(traced)
    print(f"result digest: {digest(traced)}" if same else
          f"FAILED: tracing changed a result (untraced {digest(plain)}, traced {digest(traced)})")
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    return same, plain + traced, {name: metrics[name] for name in listed}


UNITS = {
    "setup_s": "s", "wall_s": "s",
    "self_s": "s", "total_s": "s", "us_per_call": "us",
    "us_R5": "us", "ms_per_day": "ms",
    "distinct_per_start": "ratio", "grad_evals_per_solve": "ratio",
    "obj_evals_per_solve": "ratio", "projections_per_solve": "ratio",
    "route_times_per_ue": "ratio",
}


def run_all(args) -> int:
    """Every workload untraced, then traced; the CLI matrix includes the
    cell with no documented answer, so its failure is counted and named."""
    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [
                sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--instance-seed", str(args.instance_seed),
            ]
            if name == "cli_fixtures":
                cmd.append("--full-matrix")
            print(f"== {name} trace={trace}", flush=True)
            status |= subprocess.run(cmd).returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=DEFAULT_INSTANCE_SEED,
                        help="instance set of roundtrip_mixed and route_ladder (held-out checks)")
    # cli_fixtures: also run the cell with no documented answer (--all passes it)
    parser.add_argument("--full-matrix", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fleet_inverse" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}; run from a fleet-inverse checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    pin_environment(args.workload)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

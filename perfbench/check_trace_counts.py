"""The benchmark's own test: traced runs are deterministic and change no result.

For each workload, two traced runs of one seed must report identical
per-layer counts (every metric with unit count or ratio: calls,
forward.iterations, inverse.projections_per_solve,
stackelberg.route_times_per_ue, the cli.exit_* counts, ...), and both, like
an untraced run of the same seed, must report the same result digest (flow
vectors, CSV bytes and exit codes).  Takes about six minutes on two cores.

    python3 -m pytest perfbench/check_trace_counts.py
    python3 perfbench/check_trace_counts.py [workload ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("roundtrip_mixed", "route_ladder", "analysis_suite", "cli_fixtures")
SEED = 1


def bench(workload: str, trace: int) -> tuple[dict, str]:
    """One single-pass run; returns its result object and its result digest."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    digest = next(line.split(": ", 1)[1] for line in lines if line.startswith("result digest: "))
    return json.loads(lines[-1]), digest


def deterministic(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_results_match_untraced(workload):
    first, first_digest = bench(workload, 1)
    second, second_digest = bench(workload, 1)
    plain, plain_digest = bench(workload, 0)
    for result in (first, second, plain):
        assert result["correct"] and result["failed"] == 0
    assert deterministic(first["metrics"]) == deterministic(second["metrics"])
    assert first_digest == second_digest == plain_digest


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(WORKLOADS)
    sys.exit(pytest.main([__file__, "-q", "-k", " or ".join(chosen)]))

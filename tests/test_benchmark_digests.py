"""The benchmark's result digests, one pass each, in process.

perfbench/run.py prints a digest of every pass's results; a change that
claims the same results keeps these.  The benchmark's modules are imported
as they are, from the checkout's perfbench/ directory.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py, with perfbench/workloads.py imported for it; no
    bytecode is written into perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import run
        import workloads  # noqa: F401  (run.make_workload imports it by name)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode
    return run


@pytest.mark.parametrize(
    "workload, instance_seed, expected",
    [
        ("route_ladder", 2024, "c133d0d20062148b"),
        ("route_ladder", 77, "0d278438b2c6b9ba"),
        # one of the 12 draws fails its check here, and the digest holds that too
        ("route_ladder", 2, "8e197304a04b9712"),
        ("roundtrip_mixed", 2024, "39067ffabc7e9304"),
        ("analysis_suite", 2024, "edf26896eb241af1"),
    ],
)
def test_one_pass_keeps_its_digest(run, workload, instance_seed, expected):
    wl = run.make_workload(workload)
    wl.setup(0, instance_seed)
    assert run.digest(wl.run_pass()) == expected


def test_the_cli_matrix_keeps_its_digest(run, tmp_path):
    # every fixture x subcommand cell, one forked cli.main each: the digest
    # holds each cell's exit code with its CSV bytes, so it pins the cells
    # that exit 2 or 5 as well as the exit-0 reports REPORT_SHA256 pins
    import workloads

    wl = workloads.CliFixtures(tmp_path / "cells")
    try:
        wl.setup(0, 2024)
        assert run.digest(wl.run_pass()) == "aa1d663cbe785cd0"
    finally:
        wl.cleanup()

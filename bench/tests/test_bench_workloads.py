import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from workloads import READ, WRITE

RUN = Path(__file__).resolve().parent.parent / "run.py"
HELD_OUT_SEED = 424242


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_generation_is_deterministic_per_seed(name):
    a, b = workloads.make(name, 3), workloads.make(name, 3)
    assert a.ini == b.ini
    assert a.contents() == b.contents()
    assert a.pass_ops(0) == b.pass_ops(0)
    assert a.pass_ops(1) == b.pass_ops(1)


@pytest.mark.parametrize("name", ["write_wire", "rmw_mixed"])
def test_seeds_and_passes_differ(name):
    assert workloads.make(name, 1).pass_ops(0) != workloads.make(name, 2).pass_ops(0)
    assert workloads.make(name, 1).pass_ops(0) != workloads.make(name, 1).pass_ops(1)
    assert workloads.make(name, 1).contents() != workloads.make(name, 2).contents()


@pytest.mark.parametrize("seed", [1, 7, HELD_OUT_SEED])
def test_operation_counts(seed):
    scan = workloads.make("read_scan", seed).pass_ops(0)
    assert [op.word for op in scan] == list(range(256))
    wire = workloads.make("write_wire", seed).pass_ops(0)
    assert len(wire) == 100 and {op.kind for op in wire} == {WRITE}
    assert {op.mode for op in wire} == {"parallel"}
    rmw = workloads.make("rmw_mixed", seed).pass_ops(1)
    kinds = [op.kind for op in rmw]
    assert kinds.count(READ) == 200 and kinds.count(WRITE) == 100
    assert kinds != sorted(kinds)  # shuffled, not all reads first
    assert {op.mode for op in rmw if op.kind == WRITE} == {"self_enable_serial"}


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.make("nope", 1)


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_clean_on_held_out_seed(name):
    """Pass 0 runs with no failure and a consistent traced re-run."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(HELD_OUT_SEED),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * len(workloads.make(name, 0).pass_ops(0))

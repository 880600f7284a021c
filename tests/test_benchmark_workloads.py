"""The benchmark's workloads still run against the package's API.

Each workload in ``perfbench/workloads.py`` runs its op once, at the seed of
op 0 of a seed-1 run, and its own check and digest must accept the outcome.
A change to the API the benchmark calls then fails here, in the test suite,
and not only in the benchmark's self-tests (``python -m pytest perfbench``).
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_op_passes_its_check_and_digests(name):
    wl = workloads.WORKLOADS[name]
    out = wl.op(workloads.op_seed(1, 0))
    assert wl.check(out) is None
    assert json.loads(json.dumps(wl.digest(out)))

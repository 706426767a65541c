"""The benchmark's plans run against the library and pass their own checks.

perfbench/ calls the library by name.  A name it calls that is deleted or
renamed, or an answer that changes, fails here and not first in a benchmark
run.  The plans and their checks are perfbench's own, imported unchanged.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import queries  # noqa: E402
import workloads  # noqa: E402

# queries at its self-test size: 60 requests, every op among them
PLANS = {"tower": (workloads.tower, "full"), "kernels": (workloads.kernels, "full"),
         "census": (workloads.census, "full"), "queries": (queries.queries, "tiny")}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_passes_its_check_and_catches_the_planted_answer(name):
    make, size = PLANS[name]
    plan = make(1, size)
    outputs = []
    for _, call in plan.calls:
        try:
            outputs.append(call())
        except Exception as exc:      # the benchmark records a raise as the answer
            outputs.append(exc)
    attempted, failures = plan.check(outputs, False)
    assert attempted >= len(plan.calls) > 0
    assert failures == []
    _, planted = plan.check(outputs, True)
    assert len(planted) == 1

"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is reported with its
unit, and that a corrupted program output is counted as a failure.  It
asserts no timings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(scope="module", autouse=True)
def process():
    run.prepare_process()


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_with_its_unit(workload, trace):
    result = run.measure(workload, seed=1, seconds=0, trace=trace, small=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    if trace:
        # every span the workload recorded belongs to a named function
        values = {name: value for name, (value, _) in result["metrics"].items()}
        for module, functions in run.LAYER_FUNCTIONS.items():
            named = sum(values[f"{module}.{fn}.calls"] for fn in functions)
            assert named == values[f"{module}.calls"]


def test_corrupted_choi_round_trip_is_counted(monkeypatch):
    import cpumap
    import numpy as np

    choi_from_kraus = cpumap.choi_from_kraus

    def perturbed(k):
        z = choi_from_kraus(k)
        return cpumap.ChoiMatrix(dim=z.dim, matrix=z.matrix + 1e-6 * np.eye(z.dim**2))

    monkeypatch.setattr(cpumap, "choi_from_kraus", perturbed)
    result = run.measure("fixed-point", seed=1, seconds=0, trace=False, small=True)
    # at the smallest size half the specs are completely positive and round-trip
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2

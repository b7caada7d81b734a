"""Smoke test of the benchmark itself, at tiny sizes.

Run from the checkout root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from subforest import forest, tree  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "sim-honest": workloads.SimSizes("cosine", 2, n=60, b=6, k=4, mode=tree.HONEST, max_rmse_share=0.5, check_b=4),
    "sim-cart": workloads.SimSizes("xor", 5, n=60, b=6, k=4, mode=tree.CART, max_rmse_share=0.8, check_b=4),
    "cli-lifecycle": workloads.CliSizes(n=60, b=6, k=5, check_b=4),
}


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count, maps serially."""

    created: list = []

    def __init__(self, max_workers):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def test_spec_matches_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    result = run.run_benchmark(workload, seed=3, seconds=0.01, trace=bool(trace), sizes=TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert result["attempted"] >= 1
    # tiny forests are too small for the accuracy check; every other check and every op must pass
    failed = [line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()
              if line.startswith("check ") and line.split()[2] == "FAILED"]
    assert set(failed) <= ({"sim.accuracy"} if workload.startswith("sim-") else set())
    assert result["failed"] == len(failed)


def test_worker_count_is_capped_at_nproc():
    assert workloads.worker_count(cores=1) == 1
    assert workloads.worker_count(cores=64) == 2
    assert workloads.worker_count(cores=0) == 1
    assert workloads.worker_count() <= workloads.nproc()


@pytest.mark.parametrize("cores", [1, 2])
def test_cli_pool_never_exceeds_the_cap(monkeypatch, cores):
    RecordingPool.created = []
    monkeypatch.setattr(forest, "ProcessPoolExecutor", RecordingPool)
    wl = workloads.CliWorkload("cli-lifecycle", 3, str(run.SRC), str(run.OUT / "work"), TINY["cli-lifecycle"], cores=cores)
    assert wl.workers == min(2, cores)
    record = wl.run(0.01, None)
    assert record.failed == 0
    assert all(w <= cores for w in RecordingPool.created)
    assert (len(RecordingPool.created) > 0) == (cores > 1)

"""The newest committed benchmark record, ``BENCH_<n>.json`` at the repo root,
keeps the schema every later record follows: each workload and metric that
``BENCHMARK.json`` names, ten seeds per workload and one traced run."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = 10


@pytest.fixture(scope="module")
def record() -> dict:
    """The ``BENCH_<n>.json`` with the largest n."""
    numbered = {}
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            numbered[int(match[1])] = path
    assert numbered, "no BENCH_<n>.json at the repo root"
    return json.loads(numbered[max(numbered)].read_text(encoding="utf-8"))


def test_names_every_workload(record):
    assert sorted(record["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ten_seeds_each_with_its_tally(record, workload):
    seeds = record["workloads"][workload]["seeds"]
    assert sorted(s["seed"] for s in seeds) == list(range(SEEDS))
    for run in seeds:
        assert run["command"] in record["commands"]
        assert run["attempted"] >= 1
        assert 0 <= run["failed"] <= run["attempted"]
        assert run["correct"] is (run["failed"] == 0)


@pytest.mark.parametrize("metric", SPEC["end_to_end"], ids=lambda m: m["name"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_quartiles_come_from_the_seeds(record, workload, metric):
    entry = record["workloads"][workload]["end_to_end"][metric["name"]]
    assert entry["unit"] == metric["unit"]
    assert entry["q1"] <= entry["median"] <= entry["q3"]
    values = [s["metrics"][metric["name"]] for s in record["workloads"][workload]["seeds"]]
    quartiles = statistics.quantiles(values, n=4, method=record["quartiles"])
    assert [entry["q1"], entry["median"], entry["q3"]] == pytest.approx(quartiles, rel=1e-12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_lists_every_per_layer_metric(record, workload):
    traced = record["workloads"][workload]["traced"]
    assert traced["command"] in record["commands"]
    assert "--trace 1" in traced["command"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["per_layer"].items()} == want


def test_run_conditions_are_recorded(record):
    conditions = record["conditions"]
    for key in ("nproc", "python", "numpy", "openblas", "OPENBLAS_NUM_THREADS",
                "PYTHONDONTWRITEBYTECODE", "bytecode_cached"):
        assert key in conditions

"""Golden-value regression snapshots for the figure harnesses.

One fast cell per figure (iteration times per system at 16 NPUs, drive
bandwidths, DSE ratios, Table IV totals) is pinned to the exact values the
simulator produced when the snapshot was taken.  The simulator is fully
deterministic, so these comparisons are tight (rel=1e-9): any perf refactor
that silently changes simulated results — not just crashes — fails here.

To intentionally re-baseline after a modelled-behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_regression_golden.py -q

and commit the regenerated ``tests/golden_values.json`` together with the
change that motivated it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.experiments.common import FAST_CHUNK_BYTES, PAPER_SYSTEMS, run_grid
from repro.experiments.fig4_microbench import run_fig4
from repro.experiments.fig5_membw_sweep import run_fig5
from repro.experiments.fig6_sm_sweep import run_fig6
from repro.experiments.fig9_dse import run_fig9a, run_fig9b
from repro.experiments.fig10_overlap import run_fig10
from repro.experiments.fig11_scaling import run_fig11
from repro.experiments.fig12_dlrm_opt import run_fig12
from repro.experiments.table4_area import run_table4
from repro.runner import ResultCache, SweepRunner, encode_result, training_job
from repro.units import MB

GOLDEN_PATH = Path(__file__).parent / "golden_values.json"
UPDATE_ENV = "REPRO_UPDATE_GOLDEN"

#: Tolerance for comparisons.  The simulator is deterministic; the tolerance
#: only absorbs float-formatting of the snapshot itself.
REL_TOL = 1e-9


def compute_golden_values() -> dict:
    """One fast, 16-NPU cell per figure harness."""
    runner = SweepRunner(workers=1, cache=ResultCache())
    values: dict = {}

    grid = run_grid(
        systems=PAPER_SYSTEMS, workloads=("resnet50",), sizes=(16,), fast=True,
        runner=runner,
    )
    values["grid_resnet50_16npus_iteration_us"] = {
        r.system_name: r.iteration_time_us for r in grid
    }

    values["fig4_slowdowns"] = {
        r["case"]: r["slowdown"] for r in run_fig4(fast=True, runner=runner)
    }

    values["fig5_16npus"] = {
        str(r["memory_bw_gbps"]): {
            "baseline_net_bw_gbps": r["baseline_net_bw_gbps"],
            "ace_net_bw_gbps": r["ace_net_bw_gbps"],
            "ideal_net_bw_gbps": r["ideal_net_bw_gbps"],
        }
        for r in run_fig5(fast=True, sizes=(16,), payload_bytes=16 * MB, runner=runner)
    }

    values["fig6_16npus"] = {
        str(int(r["comm_sms"])): r["baseline_net_bw_gbps"]
        for r in run_fig6(fast=True, sizes=(16,), payload_bytes=16 * MB, runner=runner)
    }

    values["fig9a_performance_vs_reference"] = {
        f"{r['sram_mb']}MB_{r['num_fsms']}fsm": r["performance_vs_reference"]
        for r in run_fig9a(fast=True, sizes=(16,), runner=runner)
    }

    fig9b = run_fig9b(fast=True, workloads=("resnet50",), num_npus=16, runner=runner)[0]
    values["fig9b_resnet50_16npus"] = {
        "forward": fig9b["ace_util_forward"],
        "backward": fig9b["ace_util_backward"],
    }

    values["fig10_dlrm_16npus_iteration_us"] = {
        r["system"]: r["iteration_time_us"]
        for r in run_fig10(fast=True, workloads=("dlrm",), num_npus=16, runner=runner)
    }

    fig11 = run_fig11(fast=True, workloads=("dlrm",), sizes=(16,), runner=runner)
    values["fig11_dlrm_16npus_speedup_vs_best_baseline"] = fig11["speedups"][0][
        "speedup_vs_best_baseline"
    ]

    values["fig12_16npus_improvements"] = {
        r["system"]: r["total_time_us"]
        for r in run_fig12(fast=True, num_npus=16, runner=runner)
        if r["loop"] == "improvement"
    }

    table4 = run_table4(runner=runner)
    total = next(r for r in table4 if r["component"] == "ACE (Total)")
    values["table4_totals"] = {
        "area_um2": total["area_um2"],
        "power_mw": total["power_mw"],
        "overhead_area_pct": table4[-1]["area_um2"],
        "overhead_power_pct": table4[-1]["power_mw"],
    }
    return values


def assert_matches_golden(actual, golden, path=""):
    """Recursive exact-shape, tight-tolerance comparison with a useful path."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: expected mapping"
        assert set(actual) == set(golden), (
            f"{path}: keys changed (added {set(actual) - set(golden)}, "
            f"removed {set(golden) - set(actual)})"
        )
        for key in golden:
            assert_matches_golden(actual[key], golden[key], f"{path}/{key}")
    elif isinstance(golden, float):
        assert actual == pytest.approx(golden, rel=REL_TOL), (
            f"{path}: {actual!r} != golden {golden!r}"
        )
    else:
        assert actual == golden, f"{path}: {actual!r} != golden {golden!r}"


@pytest.fixture(scope="module")
def actual_values():
    return compute_golden_values()


@pytest.fixture(scope="module")
def golden_values(actual_values):
    if os.environ.get(UPDATE_ENV):
        GOLDEN_PATH.write_text(
            json.dumps(actual_values, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"{GOLDEN_PATH} is missing; regenerate it with {UPDATE_ENV}=1 "
            "(see the module docstring)"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "key",
    [
        "grid_resnet50_16npus_iteration_us",
        "fig4_slowdowns",
        "fig5_16npus",
        "fig6_16npus",
        "fig9a_performance_vs_reference",
        "fig9b_resnet50_16npus",
        "fig10_dlrm_16npus_iteration_us",
        "fig11_dlrm_16npus_speedup_vs_best_baseline",
        "fig12_16npus_improvements",
        "table4_totals",
    ],
)
def test_golden(actual_values, golden_values, key):
    assert key in golden_values, (
        f"golden file has no entry {key!r}; regenerate with {UPDATE_ENV}=1"
    )
    assert_matches_golden(actual_values[key], golden_values[key], path=key)


def test_golden_file_has_no_stale_entries(actual_values, golden_values):
    assert set(golden_values) == set(actual_values)


#: SHA-256 of the sorted-key ``encode_result`` JSON of four 16-NPU,
#: one-iteration cells: ``(system, workload, backend) -> digest``.  The
#: golden values above compare iteration times at rel=1e-9 only; these pins
#: also catch float drift in utilization series and breakdowns.  Together
#: the cells cover the three endpoints, the three network backends,
#: all-reduce and all-to-all.  Utilization means add strictly left to right
#: (``repro.network.backend.mean_utilization``), so the digests are the same
#: on every Python version.  Re-pin only with a modelled-behaviour change.
RESULT_PINS = {
    ("ace", "dlrm", None): (
        "7e5b0d8244e8c9caf7736eaf636ff6bd7297662359132fbc16251bd13255c033"
    ),
    ("baseline_comm_opt", "dlrm", "detailed"): (
        "9e71dbb4db21fd2777155639f630c9bbe15b2557bf6211945fbddcf358aae6b3"
    ),
    ("ideal", "resnet50", None): (
        "842dc98273dceece7ab2cb0691f8cb922f43b6ee9c02a3934c65342f89b64069"
    ),
    ("ace", "resnet50", "hybrid"): (
        "84a0478c1bf93a3e11404e3bdf4ba93ebcb0dcfe244e10ef3975b2c661157d75"
    ),
}

#: The same digest for the ten ACE ResNet-50 backend cells (fast-mode
#: chunks, two iterations): ``(backend, num_npus) -> digest``.  Symmetric
#: runs at every size, detailed at the sizes ``auto`` gives it and hybrid at
#: the 64/128 rung.  ``benchmarks/test_backend_wall_ratio.py`` times two of
#: these cells.
BACKEND_CELL_PINS = {
    ("symmetric", 8): "9bbb7f289d47cd7f377b1ec2782c84e624a436af752c81491fbcc3862eedcbee",
    ("symmetric", 16): "c58fd7565f3606183abc8d99bbc403added48758b2646a10edbf6478ac5612d3",
    ("symmetric", 32): "aa4583c48caaa13a2668c47e377c827056b0463d87b4ac9037629673f73a7f7f",
    ("symmetric", 64): "62cd4a0e649ed238b9bc12a3769e8bd3f01c0a6fcbbe8fe5803bf1a18fbcb607",
    ("symmetric", 128): "5395b2195a7eac3dbef83f0b0ad0ac4243df052495d6ce02fd9c9086ef557abf",
    ("detailed", 8): "26c41fc8185b362584afc88aca97a8271bb000f4d0b72fcf9bfe6a58eca5df7e",
    ("detailed", 16): "cdccff4e24fee8c7a753932c2c80e68382b3494ad0cecf845cb0a677f8ddd3c7",
    ("detailed", 32): "463eaad76296e53f4d700f745894f576048bd47f469f947652dac667e53d6934",
    ("hybrid", 64): "01638c7cb2cdfc9d9cccf8e61a576f3204352bfbbcdb6b06bde4364fc44b6638",
    ("hybrid", 128): "edf3cf116c35942bdb96941ed03fec58e58fc093ad988814abb7e2c738586c3b",
}


def _result_digest(job) -> str:
    text = json.dumps(encode_result(job.execute()), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("system,workload,backend", sorted(RESULT_PINS, key=str))
def test_encoded_result_is_byte_identical(system, workload, backend):
    job = training_job(system, workload, num_npus=16, iterations=1, backend=backend)
    assert _result_digest(job) == RESULT_PINS[system, workload, backend]


@pytest.mark.parametrize("backend,num_npus", sorted(BACKEND_CELL_PINS))
def test_backend_cell_is_byte_identical(backend, num_npus):
    job = training_job(
        "ace",
        "resnet50",
        num_npus=num_npus,
        backend=backend,
        iterations=2,
        chunk_bytes=FAST_CHUNK_BYTES["resnet50"],
    )
    assert _result_digest(job) == BACKEND_CELL_PINS[backend, num_npus]

"""Cross-topology sweep: the manifest holds every planner-feasible pairing,
runs through the SweepRunner, caches, and the paper's choice wins."""

from pathlib import Path

import pytest

from oracles import feasible_algorithms
from repro.config.presets import torus_shape_for_npus
from repro.network.topology import TOPOLOGY_KINDS, topology_from_spec
from repro.runner import ResultCache, SimJob, SweepRunner
from repro.scenarios import find_scenario, scenario_jobs

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

#: One fabric of each kind per platform size: the paper's canonical torus,
#: the square 2D torus, a flat ring, a switch group and a fully-connected
#: fabric.
FABRICS = {
    16: ["torus:4x2x2", "torus2d:4x4", "ring:16", "switch:16", "fc:16"],
    64: ["torus:4x4x4", "torus2d:8x8", "ring:64", "switch:64", "fc:64"],
}


@pytest.fixture(scope="module")
def jobs():
    return scenario_jobs(find_scenario("cross-topology", SCENARIO_DIR))


def _rows(runner, jobs):
    """One row per 16-NPU cell of the sweep, run through ``runner``."""
    cells = [job for job in jobs if topology_from_spec(job.fabric).num_nodes == 16]
    return [
        {
            "fabric": job.fabric,
            "algorithm": job.algorithm,
            "npus": drive.num_npus,
            "duration_us": drive.duration_ns / 1e3,
        }
        for job, drive in zip(cells, runner.run_values(cells))
    ]


@pytest.fixture(scope="module")
def sweep(jobs):
    """The 16-NPU cells run once for the module, via a caching runner."""
    runner = SweepRunner(workers=1, cache=ResultCache())
    return runner, _rows(runner, jobs)


class TestJobConstruction:
    def test_fabric_specs_cover_all_five_topology_kinds(self, jobs):
        for num_npus, specs in FABRICS.items():
            assert [spec.split(":")[0] for spec in specs] == list(TOPOLOGY_KINDS)
            assert specs[0] == "torus:" + "x".join(map(str, torus_shape_for_npus(num_npus)))
            assert all(topology_from_spec(spec).num_nodes == num_npus for spec in specs)
        fabrics = list(dict.fromkeys(job.fabric for job in jobs))
        assert fabrics == FABRICS[16] + FABRICS[64]

    def test_only_feasible_pairings_are_emitted(self, jobs):
        # Size-major, each fabric's feasible algorithms in planner order.
        feasible = [
            (spec, algorithm)
            for num_npus in (16, 64)
            for spec in FABRICS[num_npus]
            for algorithm in feasible_algorithms("all_reduce", topology_from_spec(spec))
        ]
        assert [(job.fabric, job.algorithm) for job in jobs] == feasible
        assert len(jobs) == 22
        # Hierarchical never leaves the torus; tree never enters it.
        assert not any(a == "hierarchical" for f, a in feasible if not f.startswith("torus"))
        assert not any(a == "tree" for f, a in feasible if f.startswith("torus"))

    def test_jobs_are_valid_simjobs(self, jobs):
        for job in jobs:
            assert isinstance(job, SimJob)
            assert (job.kind, job.system, job.op) == ("network_drive", "ace", "all_reduce")
            rebuilt = SimJob.from_json(job.to_json())
            assert rebuilt == job


class TestSweepResults:
    def test_rows_cover_every_fabric(self, sweep):
        _, rows = sweep
        assert {row["fabric"] for row in rows} == set(FABRICS[16])
        assert all(row["duration_us"] > 0 for row in rows)

    def test_hierarchical_wins_on_its_home_turf(self, sweep):
        # The paper's choice: on the torus, the hierarchical 4-phase
        # all-reduce beats the flat ring embedding.
        _, rows = sweep
        for fabric in ("torus:4x2x2", "torus2d:4x4"):
            cells = [row for row in rows if row["fabric"] == fabric]
            fastest = min(cells, key=lambda row: row["duration_us"])
            assert fastest["algorithm"] == "hierarchical", cells

    def test_cached_rerun_serves_every_cell_from_cache(self, sweep, jobs):
        runner, rows = sweep
        hits_before = runner.stats.cache_hits
        rerun = _rows(runner, jobs)
        assert runner.stats.cache_hits == hits_before + len(rows)
        assert rerun == rows

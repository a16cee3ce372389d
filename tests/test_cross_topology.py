"""Cross-topology sweep: runs through the SweepRunner, caches, paper's choice wins."""

import pytest

from repro.experiments.cross_topology import cross_topology_jobs, fabric_specs_for
from repro.runner import ResultCache, SimJob, SweepRunner


def _rows(runner):
    """One row per cell of the 16-NPU ACE sweep, run through ``runner``."""
    jobs = cross_topology_jobs(sizes=(16,), systems=("ace",))
    return [
        {
            "fabric": job.fabric,
            "algorithm": job.algorithm,
            "npus": drive.num_npus,
            "duration_us": drive.duration_ns / 1e3,
        }
        for job, drive in zip(jobs, runner.run_values(jobs))
    ]


@pytest.fixture(scope="module")
def sweep():
    """One 16-NPU sweep shared by the module, via a caching runner."""
    runner = SweepRunner(workers=1, cache=ResultCache())
    return runner, _rows(runner)


class TestJobConstruction:
    def test_fabric_specs_cover_all_five_topology_kinds(self):
        specs = fabric_specs_for(16)
        assert specs == [
            "torus:4x2x2",
            "torus2d:4x4",
            "ring:16",
            "switch:16",
            "fc:16",
        ]

    def test_only_feasible_pairings_are_emitted(self):
        jobs = cross_topology_jobs(sizes=(16,))
        pairs = {(job.fabric, job.algorithm) for job in jobs}
        assert ("torus:4x2x2", "hierarchical") in pairs
        assert ("torus:4x2x2", "ring") in pairs
        # Hierarchical never leaves the torus; tree never enters it.
        assert not any(a == "hierarchical" for f, a in pairs if not f.startswith("torus"))
        assert not any(a == "tree" for f, a in pairs if f.startswith("torus"))

    def test_jobs_are_valid_simjobs(self):
        for job in cross_topology_jobs(sizes=(16,)):
            assert isinstance(job, SimJob)
            assert job.kind == "network_drive"
            rebuilt = SimJob.from_json(job.to_json())
            assert rebuilt == job


class TestSweepResults:
    def test_rows_cover_every_fabric(self, sweep):
        _, rows = sweep
        assert {row["fabric"] for row in rows} == set(fabric_specs_for(16))
        assert all(row["duration_us"] > 0 for row in rows)

    def test_hierarchical_wins_on_its_home_turf(self, sweep):
        # The paper's choice: on the torus, the hierarchical 4-phase
        # all-reduce beats the flat ring embedding.
        _, rows = sweep
        for fabric in ("torus:4x2x2", "torus2d:4x4"):
            cells = [row for row in rows if row["fabric"] == fabric]
            fastest = min(cells, key=lambda row: row["duration_us"])
            assert fastest["algorithm"] == "hierarchical", cells

    def test_cached_rerun_serves_every_cell_from_cache(self, sweep):
        runner, rows = sweep
        hits_before = runner.stats.cache_hits
        rerun = _rows(runner)
        assert runner.stats.cache_hits == hits_before + len(rows)
        assert rerun == rows

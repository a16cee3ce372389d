"""Concurrency behaviour of the sharded ResultCache and its claim files.

Concurrent runs share one cache directory: writer threads/processes race
``store()`` against readers and against maintenance (``prune()`` /
``clear()``), and runners claim the specs they simulate.  The guarantees
under test:

* concurrent writers of the same key never produce a torn entry — every
  read observes either nothing or one complete, valid payload (atomic
  temp-file + rename writes),
* a reader racing ``prune()``/``clear()`` sees only ``None`` or complete
  payloads, never corruption,
* runs sharing a directory simulate each unique spec once between them: a
  runner waits out another live run's claim and serves the stored entry
  from the cache, a failed job is never cached and is retried, a dead
  owner's claim is taken over, and no path leaves a ``.claim`` file behind,
* the write-through memory layer serves repeat lookups without re-reading
  disk, with hits split out in ``stats``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runner import ResultCache, SweepRunner, network_drive_job, trace_job
from repro.runner.cache import CLAIM_POLL_S
from repro.runner.serialization import encode_result
from repro.units import MB

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def make_job(i: int = 0):
    return network_drive_job("ace", (i + 1) * MB, topology=(2, 2, 2))


def payload_for(job):
    return encode_result(SweepRunner(workers=1).run_one(job))


class TestConcurrentWriters:
    def test_same_key_writers_never_tear(self, tmp_path):
        """N threads racing store() of one key: reads are all-or-nothing."""
        job = make_job()
        payload = payload_for(job)
        writers = 8
        rounds = 25
        stop = threading.Event()
        failures = []

        def write_loop():
            cache = ResultCache(tmp_path)
            for _ in range(rounds):
                cache.store(job, payload)

        def read_loop():
            while not stop.is_set():
                # A fresh cache each lookup defeats the memory layer so every
                # read exercises the disk path being raced.
                cache = ResultCache(tmp_path)
                seen = cache.lookup(job)
                if seen is not None and seen != payload:
                    failures.append(seen)
                if cache.stats["corrupted"]:
                    failures.append("corrupted")

        reader = threading.Thread(target=read_loop)
        reader.start()
        threads = [threading.Thread(target=write_loop) for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
        assert not failures
        final = ResultCache(tmp_path)
        assert final.lookup(job) == payload
        assert final.stats["corrupted"] == 0

    def test_distinct_key_writers_all_land(self, tmp_path):
        jobs = [make_job(i) for i in range(8)]
        payloads = {job.spec_hash(): payload_for(job) for job in jobs}

        def write(job):
            ResultCache(tmp_path).store(job, payloads[job.spec_hash()])

        threads = [threading.Thread(target=write, args=(job,)) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        cache = ResultCache(tmp_path)
        for job in jobs:
            assert cache.lookup(job) == payloads[job.spec_hash()]
        assert cache.stats["disk_entries"] == len(jobs)

    def test_reader_racing_prune_and_clear_sees_no_corruption(self, tmp_path):
        """Maintenance deletes whole entries; readers get None or a payload."""
        jobs = [make_job(i) for i in range(4)]
        payloads = {job.spec_hash(): payload_for(job) for job in jobs}
        stop = threading.Event()
        failures = []

        def maintain_loop():
            cache = ResultCache(tmp_path)
            for _ in range(15):
                for job, payload in [(j, payloads[j.spec_hash()]) for j in jobs]:
                    cache.store(job, payload)
                cache.prune()
                cache.clear()

        def read_loop():
            while not stop.is_set():
                cache = ResultCache(tmp_path)
                for job in jobs:
                    seen = cache.lookup(job)
                    if seen is not None and seen != payloads[job.spec_hash()]:
                        failures.append(seen)
                if cache.stats["corrupted"]:
                    failures.append("corrupted")

        reader = threading.Thread(target=read_loop)
        maintainer = threading.Thread(target=maintain_loop)
        reader.start()
        maintainer.start()
        maintainer.join(timeout=120)
        stop.set()
        reader.join(timeout=60)
        assert not failures


def claim_files(directory):
    return sorted(Path(directory).rglob("*.claim"))


def run_in_thread(runner, jobs):
    """Start ``runner.run(jobs)`` on a thread; the outcomes land in a list."""
    outcomes = []
    thread = threading.Thread(target=lambda: outcomes.extend(runner.run(jobs)))
    thread.start()
    return thread, outcomes


#: A child process that builds six distinct jobs plus a duplicate of the
#: first, waits for a go file, runs them on a disk cache and prints its
#: runner stats and encoded results as JSON.
RACE_CHILD = """
import json, sys, time
from pathlib import Path
from repro.runner import ResultCache, SweepRunner, network_drive_job
from repro.runner.serialization import encode_result
from repro.units import MB
jobs = [network_drive_job("ace", (i + 1) * 8 * MB, topology=(4, 2, 2)) for i in range(6)]
jobs.append(jobs[0])
runner = SweepRunner(workers=1, cache=ResultCache(sys.argv[1]))
print("READY", flush=True)
go = Path(sys.argv[2])
while not go.exists():
    time.sleep(0.001)
outcomes = runner.run(jobs)
print(json.dumps({
    "stats": runner.stats.as_dict(),
    "results": [encode_result(o.value) for o in outcomes],
}))
"""


class TestSingleFlight:
    def test_runner_waits_for_a_live_claim_and_serves_its_entry(self, tmp_path):
        job = make_job()
        payload = payload_for(job)
        holder = ResultCache(tmp_path)
        key = holder.key_for(job)
        assert holder.claim(key)
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        thread, outcomes = run_in_thread(runner, [job])
        try:
            time.sleep(4 * CLAIM_POLL_S)
            assert thread.is_alive()
            # The entry alone is not enough: the waiter reads it only once
            # the claim is gone.
            holder.store(job, payload, key=key)
            time.sleep(4 * CLAIM_POLL_S)
            assert thread.is_alive()
        finally:
            holder.release(key)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert runner.stats.executed == 0
        assert runner.stats.cache_hits == 1
        assert outcomes[0].from_cache
        assert encode_result(outcomes[0].value) == payload
        assert runner.cache.misses == 1  # polls read no entry
        assert claim_files(tmp_path) == []

    def test_waiter_simulates_a_spec_whose_owner_released_without_an_entry(self, tmp_path):
        job = make_job()
        holder = ResultCache(tmp_path)
        key = holder.key_for(job)
        assert holder.claim(key)
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        thread, outcomes = run_in_thread(runner, [job])
        try:
            time.sleep(4 * CLAIM_POLL_S)
            assert thread.is_alive()
        finally:
            holder.release(key)  # the owner failed: nothing was stored
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert runner.stats.executed == 1
        assert outcomes[0].ok and not outcomes[0].from_cache
        assert ResultCache(tmp_path).lookup(job) == payload_for(job)
        assert claim_files(tmp_path) == []

    def test_processes_racing_one_batch_execute_each_spec_once(self, tmp_path):
        cache_dir = tmp_path / "cache"
        go = tmp_path / "go"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        children = [
            subprocess.Popen(
                [sys.executable, "-c", RACE_CHILD, str(cache_dir), str(go)],
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            for _ in range(3)  # more runs than this suite's 2-core CI machines
        ]
        try:
            for child in children:
                assert child.stdout.readline().strip() == "READY"
            go.touch()
            reports = [json.loads(child.communicate(timeout=120)[0]) for child in children]
        finally:
            for child in children:
                child.kill()
                child.wait(timeout=30)
        assert [child.returncode for child in children] == [0, 0, 0]
        unique_specs = 6
        assert sum(r["stats"]["executed"] for r in reports) == unique_specs
        assert [r["stats"]["errors"] for r in reports] == [0, 0, 0]
        assert reports[0]["results"] == reports[1]["results"] == reports[2]["results"]
        assert claim_files(cache_dir) == []

    def test_failed_job_releases_its_claim_and_is_not_cached(self, tmp_path):
        bad = trace_job("ace", "no_such_trace", num_npus=8, iterations=1)
        first = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        assert not first.run([bad])[0].ok
        assert claim_files(tmp_path) == []
        assert ResultCache(tmp_path).stats["disk_entries"] == 0
        second = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        outcome = second.run([bad])[0]
        assert not outcome.ok and not outcome.from_cache
        assert "no_such_trace" in outcome.error
        assert second.stats.executed == 1  # retried, not served from cache
        assert claim_files(tmp_path) == []

    def test_claim_of_a_dead_owner_on_this_host_is_taken_over(self, tmp_path):
        job = make_job()
        cache = ResultCache(tmp_path)
        key = cache.key_for(job)
        claim = tmp_path / key[:2] / f"{key}.claim"
        claim.parent.mkdir()
        # A live owner on this host, and any owner on another host, keep
        # their claim.
        claim.write_text(f"{socket.gethostname()} {os.getpid()}", encoding="utf-8")
        assert not cache.claim(key)
        claim.write_text("some-other-host 1", encoding="utf-8")
        assert not cache.claim(key)
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait(timeout=30)
        claim.write_text(f"{socket.gethostname()} {dead.pid}", encoding="utf-8")
        runner = SweepRunner(workers=1, cache=cache)
        outcome = runner.run([job])[0]
        assert outcome.ok and not outcome.from_cache
        assert runner.stats.executed == 1
        assert claim_files(tmp_path) == []

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_exception_in_execute_leaves_no_claim_file(self, tmp_path, monkeypatch, error):
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path))

        def explode(jobs):
            assert len(claim_files(tmp_path)) == len(jobs) == 2
            raise error("interrupted mid-batch")

        monkeypatch.setattr(runner, "_execute", explode)
        with pytest.raises(error):
            runner.run([make_job(0), make_job(1)])
        assert claim_files(tmp_path) == []

    def test_exception_while_claiming_releases_earlier_claims(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        claim = cache.claim

        def claim_once(key):
            if claim_files(tmp_path):
                raise KeyboardInterrupt
            return claim(key)

        monkeypatch.setattr(cache, "claim", claim_once)
        with pytest.raises(KeyboardInterrupt):
            SweepRunner(workers=1, cache=cache).run([make_job(0), make_job(1)])
        assert claim_files(tmp_path) == []

    def test_memory_only_cache_creates_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache()
        job = make_job()
        key = cache.key_for(job)
        assert cache.claim(key) and cache.claim(key)
        cache.release(key)
        runner = SweepRunner(workers=1, cache=cache)
        runner.run([job, job])
        assert runner.stats.executed == 1
        assert list(tmp_path.iterdir()) == []


class TestMaintenance:
    def test_clear_removes_every_entry(self, tmp_path):
        job = make_job()
        cache = ResultCache(tmp_path)
        cache.store(job, payload_for(job))
        assert cache.stats["disk_entries"] == 1
        cache.clear()
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(job) is None
        assert fresh.stats["disk_entries"] == 0


class TestMemoryLayer:
    def test_disk_hits_promote_to_memory(self, tmp_path):
        job = make_job()
        payload = payload_for(job)
        ResultCache(tmp_path).store(job, payload)
        cache = ResultCache(tmp_path)
        assert cache.lookup(job) == payload  # disk read, promoted
        # Remove the file behind the cache's back: the memory layer answers.
        key = job.spec_hash()
        (tmp_path / key[:2] / f"{key}.json").unlink()
        assert cache.lookup(job) == payload
        assert cache.stats["disk_hits"] == 1
        assert cache.stats["memory_hits"] == 1

    def test_store_is_write_through(self, tmp_path):
        job = make_job()
        payload = payload_for(job)
        cache = ResultCache(tmp_path)
        cache.store(job, payload)
        key = job.spec_hash()
        (tmp_path / key[:2] / f"{key}.json").unlink()
        assert cache.lookup(job) == payload
        assert cache.stats["memory_hits"] == 1
        assert cache.stats["disk_hits"] == 0

    def test_clear_also_drops_the_memory_layer(self, tmp_path):
        job = make_job()
        cache = ResultCache(tmp_path)
        cache.store(job, payload_for(job))
        cache.clear()
        assert cache.lookup(job) is None

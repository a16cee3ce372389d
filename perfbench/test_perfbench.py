"""The benchmark's own checks: tracing and hash seeds change no result.

Each test starts ``passes.py`` processes running whole workloads, so the
module is marked slow; run it with
``PYTHONPATH=src python -m pytest -m slow perfbench``.
"""

import json

import pytest

import run as bench

pytestmark = pytest.mark.slow

REFERENCES = json.loads(bench.DIGESTS.read_text(encoding="utf-8"))


def _digests(result):
    return [done["digests"] for done in result["passes"]]


def _exact_counts(traced):
    """A traced repetition's counts, which must repeat exactly."""
    counts = {f"{layer}.calls": calls for layer, calls in traced["layers"]["calls"].items()}
    counts.update(traced["counts"])
    for key in ("events", "bytes_written", "warm_hits", "warm_lookups"):
        counts[key] = traced[key]
    return counts


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tracing_changes_no_result_and_counts_repeat(workload):
    _, plain = bench.spawn(workload, 0)
    _, traced = bench.spawn(workload, 0, "--trace")
    _, again = bench.spawn(workload, 1, "--trace")
    assert bench.tally(plain, REFERENCES[workload])[1:] == (0, True)
    # A traced repetition runs one warm pass; compare it with the first.
    assert _digests(traced) == _digests(plain)[: len(traced["passes"])]
    assert _digests(again) == _digests(traced)
    # Another seed submits the cells in another order; the counts hold.
    assert _exact_counts(again) == _exact_counts(traced)


def test_sweep_rerun_digests_ignore_the_hash_seed():
    _, zero = bench.spawn("sweep-rerun", 0, env={"PYTHONHASHSEED": "0"})
    _, other = bench.spawn("sweep-rerun", 0, env={"PYTHONHASHSEED": "12345"})
    assert _digests(zero) == _digests(other)
    assert bench.tally(other, REFERENCES["sweep-rerun"])[1:] == (0, True)

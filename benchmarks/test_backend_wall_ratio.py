"""Wall-time price of the detailed network model at 32 NPUs.

Times the ACE ResNet-50 cell (128 KB chunks, two iterations) on the
symmetric and on the detailed backend and bounds the detailed/symmetric wall
ratio.  Each wall is the fastest of three uncached runs, which keeps
scheduler noise out of sub-second cells.  Both walls come from one process on
one machine, so the ratio does not depend on the hardware.  The simulated
results of these cells are pinned in ``tests/test_regression_golden.py``.

Run with:  PYTHONPATH=src python -m pytest -q -m slow benchmarks
"""

from __future__ import annotations

import time

import pytest

from repro.runner import training_job
from repro.units import KB

NUM_NPUS = 32
REPEATS = 3
MAX_DETAILED_RATIO = 2.5


def _wall_s(backend: str) -> float:
    job = training_job(
        "ace",
        "resnet50",
        num_npus=NUM_NPUS,
        backend=backend,
        iterations=2,
        chunk_bytes=128 * KB,
    )
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        job.execute()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow
def test_detailed_wall_ratio_at_32_npus():
    # Back to back, so both walls see the same machine load.
    symmetric = _wall_s("symmetric")
    detailed = _wall_s("detailed")
    ratio = detailed / symmetric
    assert ratio <= MAX_DETAILED_RATIO, (
        f"detailed backend too slow at {NUM_NPUS} NPUs: {detailed:.3f}s vs "
        f"symmetric {symmetric:.3f}s = {ratio:.2f}x wall (max {MAX_DETAILED_RATIO}x)"
    )

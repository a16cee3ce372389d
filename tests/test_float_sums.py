"""Results carry the same bits on every Python version.

Python 3.12 made ``sum()`` over floats compensated (Neumaier), so a total
that 3.11 adds left to right can come out a last bit apart on 3.12.  Result
paths add floats through :func:`repro.units.left_sum` instead.  The tests
swap ``builtins.sum`` for an emulation of 3.12's and require byte-identical
results: a float ``sum()`` left on a result path shows up as a changed
encoding.
"""

from __future__ import annotations

import builtins
import math

import pytest

from repro.runner import SimJob, area_power_job, training_job
from repro.runner.pool import encode_result
from repro.units import KB, left_sum

_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


def _compensated_sum(iterable, /, start=0):
    """``sum()`` as Python 3.12 computes it.

    Exact ints add as ints; from the first float on, exact floats (and ints
    that fit a C long) add with Neumaier compensation, the compensation
    being folded in at the end or before the first item of another type;
    anything else adds with ``+``.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float or (type(item) in (int, bool) and _LONG_MIN <= item <= _LONG_MAX):
                x = float(item)
                t = total + x
                if abs(total) >= abs(x):
                    compensation += (total - t) + x
                else:
                    compensation += (x - t) + total
                total = t
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def test_the_emulation_is_compensated_and_left_sum_is_not():
    values = [0.1] * 10
    assert _compensated_sum(values) == 1.0
    assert left_sum(values) == 0.9999999999999999
    assert _compensated_sum([1, 2, 3]) == 6 and type(_compensated_sum([1, 2])) is int
    assert left_sum([]) == 0 and type(left_sum([])) is int


#: An ``area_power`` job (Table IV's totals) and a small Megatron cell whose
#: fused kernels, pipeline stages and injected bytes add floats.
_JOBS = {
    "area_power": area_power_job(),
    "megatron-pipeline": training_job(
        "ace",
        "megatron",
        fabric="torus:2x2x2",
        iterations=1,
        chunk_bytes=256 * KB,
        parallelism="pipeline:2x2",
    ),
}


@pytest.mark.parametrize("name", list(_JOBS))
def test_results_do_not_move_under_a_compensated_sum(name, monkeypatch):
    job: SimJob = _JOBS[name]
    plain = encode_result(job.execute())
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert encode_result(job.execute()) == plain

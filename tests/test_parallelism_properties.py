"""Property-based tests (hypothesis) locking down the parallelism strategies.

Two families of invariants of the ``zero`` and ``pipeline`` strategies:

* **Byte conservation** — replacing each layer's weight-gradient all-reduce
  (data parallelism) with a reduce-scatter + parameter all-gather (ZeRO) must
  move exactly the same number of bytes over the wire on ring algorithms:
  ``(n-1)/n + (n-1)/n == 2(n-1)/n`` per payload byte, for *any* layer list.
  Both are checked on what :class:`~repro.training.loop.TrainingLoop`
  actually issues.
* **Bubble accounting** — the closed form ``(S-1)/(M+S-1)`` used by the
  training loop must match the makespan of an explicitly constructed 1F1B
  schedule (warmup / steady-state / drain with real cross-stage dependencies)
  for *any* geometry, not just the hand-checked ones.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles import one_f_one_b_schedule
from repro.collectives.base import CollectiveOp
from repro.collectives.planner import plan_collective
from repro.compute.kernels import KernelCost
from repro.config.presets import make_system
from repro.errors import WorkloadError
from repro.network.topology import topology_from_spec
from repro.training.loop import TrainingLoop
from repro.training.parallelism import (
    parse_parallelism,
    pipeline_bubble_fraction,
    pipeline_stages,
)
from repro.units import KB, MB
from repro.workloads.base import Layer, Workload

# Keep hypothesis example counts modest so the suite stays fast.
DEFAULT_SETTINGS = settings(max_examples=40, deadline=None)


def _kernel(name: str, flops: float = 1e9) -> KernelCost:
    return KernelCost(name=name, flops=flops, bytes_read=1e6, bytes_written=1e6)


def _layer(index: int, params_bytes: int, flops: float = 1e9) -> Layer:
    return Layer(
        name=f"layer{index}",
        forward=_kernel(f"fwd{index}", flops),
        input_grad=_kernel(f"igrad{index}", flops),
        weight_grad=_kernel(f"wgrad{index}", flops),
        params_bytes=params_bytes,
    )


# ----------------------------------------------------------------------
# Byte conservation: data vs zero, on what the training loop issues
# ----------------------------------------------------------------------
#: Small layer lists: at most 6 layers, each with 64 KB - 4 MB of parameters
#: or none at all.
loop_layer_lists = st.lists(
    st.one_of(st.just(0), st.integers(min_value=64 * KB, max_value=4 * MB)),
    min_size=1,
    max_size=6,
).map(lambda sizes: [_layer(i, size, flops=1e6) for i, size in enumerate(sizes)])

LOOP_SETTINGS = settings(max_examples=25, deadline=None)


def _run_loop(layers, strategy):
    """One ACE iteration of ``layers`` on ``ring:8`` with the ring algorithm."""
    system = make_system("ace").with_overrides(
        parallelism=strategy, collective_algorithm="ring"
    )
    workload = Workload(name="layers", layers=tuple(layers), batch_size_per_npu=1)
    loop = TrainingLoop(system, topology_from_spec("ring:8"), workload, iterations=1)
    return loop, loop.run()


@LOOP_SETTINGS
@given(layers=loop_layer_lists)
def test_zero_requests_conserve_payload_bytes(layers):
    """Per layer with parameters, the loop issues one all-reduce under data
    parallelism and one reduce-scatter plus one all-gather of the same bytes
    under ZeRO; layers without parameters issue nothing."""
    issued = {}
    for strategy in ("data", "zero"):
        loop, _ = _run_loop(layers, strategy)
        issued[strategy] = Counter(
            (handle.op, handle.payload_bytes) for handle in loop.executor.handles
        )
    expected_data = Counter()
    expected_zero = Counter()
    for layer in layers:
        if layer.params_bytes > 0:
            expected_data[(CollectiveOp.ALL_REDUCE, layer.params_bytes)] += 1
            expected_zero[(CollectiveOp.REDUCE_SCATTER, layer.params_bytes)] += 1
            expected_zero[(CollectiveOp.ALL_GATHER, layer.params_bytes)] += 1
    assert issued["data"] == expected_data
    assert issued["zero"] == expected_zero


@LOOP_SETTINGS
@given(layers=loop_layer_lists)
def test_zero_ring_wire_bytes_equal_data_parallel(layers):
    """On a ring, RS + AG inject exactly the bytes of the AR they replace."""
    topology = topology_from_spec("ring:8")
    ar = plan_collective("all_reduce", topology, algorithm="ring")
    rs = plan_collective("reduce_scatter", topology, algorithm="ring")
    ag = plan_collective("all_gather", topology, algorithm="ring")
    assert rs.total_injected_fraction + ag.total_injected_fraction == pytest.approx(
        ar.total_injected_fraction, rel=1e-12
    )
    _, data = _run_loop(layers, "data")
    _, zero = _run_loop(layers, "zero")
    assert zero.bytes_injected == pytest.approx(data.bytes_injected, rel=1e-9)
    params = sum(layer.params_bytes for layer in layers)
    assert data.bytes_injected == pytest.approx(params * ar.total_injected_fraction, rel=1e-9)


# ----------------------------------------------------------------------
# 1F1B bubble accounting
# ----------------------------------------------------------------------
@DEFAULT_SETTINGS
@given(
    num_stages=st.integers(min_value=1, max_value=10),
    num_microbatches=st.integers(min_value=1, max_value=40),
)
def test_bubble_fraction_matches_explicit_1f1b_schedule(num_stages, num_microbatches):
    """Closed form (S-1)/(M+S-1) equals the real schedule's idle fraction."""
    makespan = one_f_one_b_schedule(num_stages, num_microbatches)
    # With unit fwd/bwd slots the schedule runs (M + S - 1) slot pairs.
    expected_makespan = 2.0 * (num_microbatches + num_stages - 1)
    assert makespan == pytest.approx(expected_makespan, rel=1e-12)
    busy = 2.0 * num_microbatches
    idle_fraction = (makespan - busy) / makespan
    assert idle_fraction == pytest.approx(
        pipeline_bubble_fraction(num_stages, num_microbatches), rel=1e-12
    )


@DEFAULT_SETTINGS
@given(
    num_stages=st.integers(min_value=1, max_value=8),
    num_microbatches=st.integers(min_value=1, max_value=24),
    slot=st.floats(min_value=0.25, max_value=8.0),
)
def test_bubble_fraction_is_slot_scale_invariant(num_stages, num_microbatches, slot):
    """Scaling all slot times scales the makespan; the fraction is unchanged."""
    base = one_f_one_b_schedule(num_stages, num_microbatches)
    scaled = one_f_one_b_schedule(
        num_stages, num_microbatches, forward_slot=slot, backward_slot=slot
    )
    assert scaled == pytest.approx(base * slot, rel=1e-9)


@DEFAULT_SETTINGS
@given(
    num_layers=st.integers(min_value=1, max_value=32),
    num_stages=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_pipeline_stage_split_is_a_contiguous_partition(num_layers, num_stages, seed):
    """Stage splitting covers every layer exactly once, in order."""
    import random

    rng = random.Random(seed)
    layers = [
        _layer(i, 1024, flops=rng.uniform(1e8, 1e11)) for i in range(num_layers)
    ]
    if num_stages > num_layers:
        with pytest.raises(WorkloadError):
            pipeline_stages(layers, num_stages)
        return
    stages = pipeline_stages(layers, num_stages)
    assert len(stages) == num_stages
    assert all(stage for stage in stages)
    flattened = [layer for stage in stages for layer in stage]
    assert flattened == layers


@DEFAULT_SETTINGS
@given(
    num_stages=st.integers(min_value=1, max_value=64),
    num_microbatches=st.integers(min_value=1, max_value=64),
)
def test_pipeline_spec_round_trips(num_stages, num_microbatches):
    """A pipeline spec string parses to exactly its stages and microbatches."""
    spec = parse_parallelism(f"pipeline:{num_stages}x{num_microbatches}")
    assert spec.stages == num_stages
    assert spec.microbatches == num_microbatches
    assert parse_parallelism(f"pipeline:{spec.stages}x{spec.microbatches}") == spec

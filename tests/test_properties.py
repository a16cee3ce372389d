"""Property-based tests (hypothesis) on core data structures and invariants."""

from dataclasses import fields as dataclass_fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import dataops
from repro.collectives.hierarchical import hierarchical_all_reduce_plan
from repro.collectives.ring import ring_all_reduce, ring_reduce_scatter
from repro.config.presets import SYSTEM_CONFIG_NAMES
from repro.errors import ConfigurationError
from repro.network.messages import split_payload
from repro.network.routing import ring_distance
from repro.network.topology import Torus3D
from repro.runner import SimJob
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource
from repro.sim.trace import IntervalTracer, UtilizationTrace

# Keep hypothesis example counts modest so the suite stays fast.
DEFAULT_SETTINGS = settings(max_examples=40, deadline=None)


@DEFAULT_SETTINGS
@given(
    num_nodes=st.integers(min_value=2, max_value=8),
    shard_elems=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_ring_all_reduce_always_sums(num_nodes, shard_elems, seed):
    rng = np.random.default_rng(seed)
    data = [rng.normal(size=num_nodes * shard_elems) for _ in range(num_nodes)]
    out = ring_all_reduce(data)
    expected = np.sum(np.stack(data), axis=0)
    for node_result in out:
        np.testing.assert_allclose(node_result, expected, rtol=1e-9, atol=1e-9)


@DEFAULT_SETTINGS
@given(
    num_nodes=st.integers(min_value=2, max_value=8),
    shard_elems=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_ring_reduce_scatter_preserves_total_sum(num_nodes, shard_elems, seed):
    rng = np.random.default_rng(seed)
    data = [rng.normal(size=num_nodes * shard_elems) for _ in range(num_nodes)]
    shards = ring_reduce_scatter(data)
    total_from_shards = sum(float(np.sum(s)) for s in shards)
    expected_total = float(np.sum(np.stack(data)))
    assert total_from_shards == pytest.approx(expected_total, rel=1e-9, abs=1e-9)


@DEFAULT_SETTINGS
@given(
    num_nodes=st.integers(min_value=1, max_value=16),
    shard_elems=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_all_to_all_is_a_permutation_of_the_data(num_nodes, shard_elems, seed):
    rng = np.random.default_rng(seed)
    data = [rng.normal(size=num_nodes * shard_elems) for _ in range(num_nodes)]
    out = dataops.all_to_all(data)
    before = np.sort(np.concatenate(data))
    after = np.sort(np.concatenate(out))
    np.testing.assert_allclose(before, after)


@DEFAULT_SETTINGS
@given(
    payload=st.integers(min_value=1, max_value=10_000_000),
    chunk=st.integers(min_value=1, max_value=1_000_000),
)
def test_split_payload_conserves_bytes(payload, chunk):
    sizes = split_payload(payload, chunk)
    assert sum(sizes) == payload
    assert all(0 < s <= chunk for s in sizes)
    assert len([s for s in sizes if s < chunk]) <= 1


@DEFAULT_SETTINGS
@given(
    size=st.integers(min_value=1, max_value=64),
    src=st.integers(min_value=0, max_value=63),
    dst=st.integers(min_value=0, max_value=63),
)
def test_ring_distance_bounds_and_symmetry(size, src, dst):
    src %= size
    dst %= size
    hops, direction = ring_distance(size, src, dst)
    assert 0 <= hops <= size // 2
    assert direction in (+1, -1)
    back_hops, _ = ring_distance(size, dst, src)
    assert back_hops == hops


@DEFAULT_SETTINGS
@given(
    shape=st.tuples(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    ).filter(lambda s: s[0] * s[1] * s[2] >= 2),
)
def test_hierarchical_allreduce_plan_invariants(shape):
    torus = Torus3D(*shape)
    plan = hierarchical_all_reduce_plan(torus)
    # The resident fraction returns to 1 and injected bytes are bounded by
    # two full traversals of the two all-reduce dimensions (2 + 2 = 4).
    assert plan.phases[-1].resident_fraction_out == pytest.approx(1.0)
    assert 0.0 < plan.total_injected_fraction <= 4.0
    # Reductions never exceed half the injected traffic... plus local RS.
    assert plan.total_reduced_fraction <= plan.total_injected_fraction


@DEFAULT_SETTINGS
@given(
    requests=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6),   # earliest start
            st.floats(min_value=1.0, max_value=1e6),   # bytes
        ),
        min_size=1,
        max_size=30,
    ),
    bandwidth=st.floats(min_value=0.5, max_value=500.0),
)
def test_bandwidth_resource_never_overlaps_transfers(requests, bandwidth):
    pipe = BandwidthResource("p", bandwidth)
    reservations = []
    for earliest, num_bytes in requests:
        reservations.append(pipe.reserve(num_bytes, earliest))
    # Serialization intervals must be non-overlapping and ordered (FIFO).
    for first, second in zip(reservations, reservations[1:]):
        first_serialization_end = first.start + first.num_bytes / bandwidth
        assert second.start >= first_serialization_end - 1e-6
    total_busy = sum(r.num_bytes for r in reservations) / bandwidth
    assert pipe.busy_time == pytest.approx(total_busy, rel=1e-6)


@DEFAULT_SETTINGS
@given(
    intervals=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e4),
            st.floats(min_value=0.0, max_value=1e3),
        ),
        max_size=30,
    )
)
def test_interval_tracer_busy_time_is_bounded_by_span(intervals):
    tracer = IntervalTracer()
    for start, length in intervals:
        tracer.record(start, start + length)
    busy = tracer.busy_time()
    assert busy <= tracer.total_span() + 1e-6
    assert busy >= 0.0


#: How an interval relates to the last non-empty one recorded before it.
_INTERVAL_SHAPES = (
    "back_to_back",
    "overlapping",
    "contained",
    "out_of_order",
    "zero_length",
    "gap",
)


def _shaped_interval(shape, previous, fraction, length):
    """An interval of ``shape`` relative to ``previous`` (``fraction`` in [0, 1])."""
    prev_start, prev_end = previous
    inside = prev_start + fraction * (prev_end - prev_start)
    if shape == "back_to_back":
        return prev_end, prev_end + length
    if shape == "overlapping":
        return inside, prev_end + length
    if shape == "contained":
        return inside, min(prev_end, inside + length)
    if shape == "out_of_order":
        start = max(0.0, prev_start - length - 100.0 * fraction)
        return start, start + length
    if shape == "zero_length":
        return inside, inside - length * fraction
    return prev_end + length, prev_end + length + 1.0 + 100.0 * fraction


def _sorted_union(intervals):
    """Reference union: sorted, disjoint, touching intervals merged."""
    union = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if union and start <= union[-1][1]:
            union[-1][1] = max(union[-1][1], end)
        else:
            union.append([start, end])
    return union


@DEFAULT_SETTINGS
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(_INTERVAL_SHAPES),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        max_size=40,
    ),
    windows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=3000.0),
            st.floats(min_value=0.0, max_value=1000.0),
        ),
        min_size=1,
        max_size=5,
    ),
    window_ns=st.floats(min_value=1.0, max_value=500.0),
)
def test_interval_tracer_keeps_the_union_of_any_record_sequence(steps, windows, window_ns):
    tracer = IntervalTracer()
    recorded = []
    previous = (0.0, 0.0)
    for shape, fraction, length in steps:
        start, end = _shaped_interval(shape, previous, fraction, length)
        recorded.append((start, end))
        tracer.record(start, end)
        if end > start:
            previous = (start, end)
    union = _sorted_union(recorded)

    starts, ends = tracer.merged_arrays()
    assert np.array_equal(starts, np.array([s for s, _ in union], dtype=np.float64))
    assert np.array_equal(ends, np.array([e for _, e in union], dtype=np.float64))

    # A tracer fed the union itself stores it unchanged: every query must
    # agree with it bit for bit, and with a plain loop over the union.
    reference = IntervalTracer()
    for start, end in union:
        reference.record(start, end)
    for low, width in windows:
        high = low + width
        expected = sum(max(0.0, min(e, high) - max(s, low)) for s, e in union)
        assert tracer.busy_time(low, high) == reference.busy_time(low, high)
        assert tracer.busy_time(low, high) == pytest.approx(expected, rel=1e-9, abs=1e-9)
    horizon = max(low + width for low, width in windows)
    trace = UtilizationTrace(window_ns)
    series = trace.utilization_series([tracer], horizon)
    assert series == trace.utilization_series([reference], horizon)
    for index, (_, utilization) in enumerate(series):
        low = index * window_ns
        high = min(horizon, (index + 1) * window_ns)
        busy = sum(max(0.0, min(e, high) - max(s, low)) for s, e in union)
        assert utilization == pytest.approx(min(1.0, busy / (high - low)), rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# SimJob spec hashing and serialization
# ---------------------------------------------------------------------------

_POLICY_FIELDS = (
    "comm_sms",
    "comm_memory_bandwidth_gbps",
    "comm_uses_npu_sms",
    "comm_uses_memory",
)
_ACE_FIELDS = ("sram_bytes", "num_fsms", "num_alus", "chunk_bytes")


@DEFAULT_SETTINGS
@given(
    policy=st.dictionaries(st.sampled_from(_POLICY_FIELDS), st.integers(0, 6)),
    ace=st.dictionaries(st.sampled_from(_ACE_FIELDS), st.integers(1, 64)),
    data=st.data(),
)
def test_simjob_hash_is_stable_under_dict_ordering(policy, ace, data):
    sections = [("policy", list(policy.items())), ("ace", list(ace.items()))]
    shuffled = [
        (name, dict(data.draw(st.permutations(items)) if items else items))
        for name, items in data.draw(st.permutations(sections))
    ]

    def build(overrides):
        return SimJob(workload="resnet50", num_npus=16, overrides=overrides)

    try:
        job = build({"policy": policy, "ace": ace})
    except ConfigurationError as exc:
        # An invalid set (e.g. chunk_bytes below message_bytes) is rejected
        # at construction, with the same error in every order.
        with pytest.raises(ConfigurationError) as reordered_exc:
            build(dict(shuffled))
        assert str(reordered_exc.value) == str(exc)
        return
    reordered = build(dict(shuffled))
    assert reordered == job
    assert hash(reordered) == hash(job)
    assert reordered.to_json() == job.to_json()
    assert reordered.spec_hash() == job.spec_hash()


@DEFAULT_SETTINGS
@given(
    system=st.sampled_from(SYSTEM_CONFIG_NAMES),
    workload=st.sampled_from(("resnet50", "gnmt", "dlrm", "megatron")),
    num_npus=st.sampled_from((16, 32, 64, 128)),
    iterations=st.integers(1, 4),
    chunk=st.one_of(st.none(), st.integers(1024, 2**20)),
    overlap=st.booleans(),
)
def test_simjob_roundtrips_through_json(system, workload, num_npus, iterations, chunk, overlap):
    job = SimJob(
        system=system,
        workload=workload,
        num_npus=num_npus,
        iterations=iterations,
        chunk_bytes=chunk,
        overlap_embedding=overlap,
    )
    clone = SimJob.from_json(job.to_json())
    assert clone == job
    assert hash(clone) == hash(job)
    assert clone.spec_hash() == job.spec_hash()
    assert clone.to_json() == job.to_json()


@DEFAULT_SETTINGS
@given(
    payload=st.integers(1, 2**26),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).filter(
        lambda s: s[0] * s[1] * s[2] >= 2
    ),
    op=st.sampled_from(("all_reduce", "all_to_all", "reduce_scatter", "all_gather")),
)
def test_network_drive_simjob_roundtrips_and_distinct_specs_differ(payload, shape, op):
    job = SimJob(kind="network_drive", system="ideal", payload_bytes=payload,
                 topology=shape, op=op)
    clone = SimJob.from_dict(job.to_dict())
    assert clone == job
    assert clone.spec_hash() == job.spec_hash()
    bigger = SimJob(kind="network_drive", system="ideal", payload_bytes=payload + 1,
                    topology=shape, op=op)
    assert bigger.spec_hash() != job.spec_hash()


@DEFAULT_SETTINGS
@given(
    system=st.sampled_from(SYSTEM_CONFIG_NAMES),
    workload=st.sampled_from(("resnet50", "gnmt", "dlrm")),
    num_npus=st.sampled_from((8, 16, 32)),
    backend=st.one_of(st.none(), st.sampled_from(("symmetric", "detailed", "auto"))),
)
def test_simjob_backend_round_trips(system, workload, num_npus, backend):
    job = SimJob(system=system, workload=workload, num_npus=num_npus, backend=backend)
    clone = SimJob.from_json(job.to_json())
    assert clone == job
    assert clone.backend == backend
    assert clone.spec_hash() == job.spec_hash()
    assert clone.build_system().network_backend == (backend or "symmetric")


@DEFAULT_SETTINGS
@given(
    kind=st.sampled_from(("training", "network_drive", "area_power")),
    backend=st.one_of(st.none(), st.sampled_from(("symmetric", "detailed", "hybrid"))),
    chunk=st.one_of(st.none(), st.integers(1024, 2**20)),
    overlap=st.booleans(),
)
def test_simjob_canonical_json_lists_every_field(kind, backend, chunk, overlap):
    """The canonical JSON has one key per SimJob field, set or not."""
    job = SimJob(
        kind=kind,
        workload="resnet50" if kind == "training" else None,
        num_npus=None if kind == "area_power" else 16,
        payload_bytes=1024 if kind == "network_drive" else None,
        backend=backend,
        chunk_bytes=chunk,
        overlap_embedding=overlap,
    )
    assert list(job.to_dict()) == [f.name for f in dataclass_fields(SimJob)]
    assert SimJob.from_dict(job.to_dict()) == job


@DEFAULT_SETTINGS
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_simulator_clock_is_monotonic(delays):
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)

"""Workload models: ResNet-50, GNMT, DLRM, Megatron, microbenchmarks."""

import pytest

from repro.collectives.base import CollectiveOp
from repro.compute.kernels import elementwise_cost
from repro.config.presets import make_system
from repro.errors import WorkloadError
from repro.traces import find_trace, lower_trace
from repro.training.loop import TrainingLoop
from repro.units import MB
from repro.workloads import microbench
from repro.workloads.base import EmbeddingStage, Layer, Workload
from repro.workloads.registry import available_workloads, build_workload


class TestResNet50(object):
    def test_parameter_count_matches_reference(self, resnet50_workload):
        params = resnet50_workload.total_params_bytes / 2  # FP16 bytes -> params
        assert params == pytest.approx(25.5e6, rel=0.03)

    def test_layer_count(self, resnet50_workload):
        # 53 convolutions (incl. downsample projections) + 1 FC layer.
        assert resnet50_workload.num_layers == 54

    def test_flops_per_iteration(self, resnet50_workload):
        # ~3.8 GMAC (7.7 GFLOP) per sample forward, x3 for training, x32 batch.
        expected = 2 * 3.8e9 * 3 * 32
        flops = sum(layer.total_flops for layer in resnet50_workload.layers)
        assert resnet50_workload.embedding is None
        assert flops == pytest.approx(expected, rel=0.15)

    def test_every_layer_communicates(self, resnet50_workload):
        assert all(layer.params_bytes > 0 for layer in resnet50_workload.layers)

    def test_batch_size_default(self, resnet50_workload):
        assert resnet50_workload.batch_size_per_npu == 32
        assert resnet50_workload.parallelism == "data"


class TestGnmt:
    def test_parameter_count_in_range(self, gnmt_workload):
        params_m = gnmt_workload.total_params_bytes / 2 / 1e6
        assert 150 <= params_m <= 300

    def test_large_per_layer_collectives(self, gnmt_workload):
        biggest = max(l.params_bytes for l in gnmt_workload.layers)
        assert biggest > 16 * MB

    def test_batch_size_default(self, gnmt_workload):
        assert gnmt_workload.batch_size_per_npu == 128


class TestDlrm:
    def test_hybrid_parallelism_with_embedding_stage(self, dlrm_workload):
        assert dlrm_workload.parallelism == "hybrid"
        assert dlrm_workload.embedding is not None
        assert dlrm_workload.embedding.alltoall_forward_bytes > 1 * MB

    def test_alltoall_marker_is_first_top_layer(self, dlrm_workload):
        marker = dlrm_workload.embedding.alltoall_before_layer
        assert dlrm_workload.layers[marker].name.startswith("top.")
        assert dlrm_workload.layers[marker - 1].name.startswith("bottom.")

    def test_mlp_gradients_in_paper_range(self, dlrm_workload):
        total_mb = dlrm_workload.total_params_bytes / MB
        assert 50 <= total_mb <= 300

    def test_batch_size_default(self, dlrm_workload):
        assert dlrm_workload.batch_size_per_npu == 512


class TestMegatron:
    def test_tensor_parallel_activation_allreduces(self):
        megatron = build_workload("megatron")
        assert megatron.parallelism == "model"
        assert all(l.forward_allreduce_bytes > 0 for l in megatron.layers)
        assert all(l.backward_allreduce_bytes > 0 for l in megatron.layers)


class TestRegistry:
    def test_available_workloads(self):
        names = available_workloads()
        for expected in ("resnet50", "gnmt", "dlrm", "megatron"):
            assert expected in names

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload("alexnet")

    def test_builder_overrides(self):
        small = build_workload("resnet50", batch_size=8)
        assert small.batch_size_per_npu == 8


class TestWorkloadValidation:
    def _layer(self, **kwargs):
        cost = elementwise_cost(10)
        return Layer(name="l", forward=cost, input_grad=cost, weight_grad=cost, **kwargs)

    def test_empty_workload_rejected(self):
        with pytest.raises(WorkloadError):
            Workload(name="w", layers=(), batch_size_per_npu=1)

    def test_bad_parallelism_rejected(self):
        with pytest.raises(WorkloadError):
            Workload(name="w", layers=(self._layer(),), batch_size_per_npu=1, parallelism="tensor3d")

    def test_negative_params_rejected(self):
        with pytest.raises(WorkloadError):
            self._layer(params_bytes=-1)

    def test_embedding_marker_out_of_range_rejected(self):
        cost = elementwise_cost(10)
        embedding = EmbeddingStage(cost, cost, 100, 100, alltoall_before_layer=5)
        with pytest.raises(WorkloadError):
            Workload(
                name="w",
                layers=(self._layer(),),
                batch_size_per_npu=1,
                parallelism="hybrid",
                embedding=embedding,
            )

    def test_compute_time_scale_positive(self):
        with pytest.raises(WorkloadError):
            Workload(
                name="w",
                layers=(self._layer(),),
                batch_size_per_npu=1,
                compute_time_scale=0.0,
            )


def _issued(workload, parallelism=None, num_npus=16):
    """The collectives one iteration of ``workload`` issues, as
    ``(name, op, payload_bytes)`` in issue order."""
    system = make_system("ace")
    if parallelism is not None:
        system = system.with_overrides(parallelism=parallelism)
    loop = TrainingLoop(system, num_npus, workload, iterations=1)
    loop.run()
    return [(h.name, h.op, h.payload_bytes) for h in loop.executor.handles]


class TestParallelism:
    """The collectives ``TrainingLoop`` issues per layer and strategy."""

    def test_data_parallel_layer_requests_allreduce(self):
        cost = elementwise_cost(10)
        layer = Layer("l", cost, cost, cost, params_bytes=1000)
        workload = Workload(name="w", layers=(layer,), batch_size_per_npu=1)
        # One weight-gradient all-reduce, issued in the backward pass.
        assert _issued(workload, "data") == [("iter0.l.wgrad-ar", CollectiveOp.ALL_REDUCE, 1000)]

    def test_tensor_parallel_layer_requests_blocking_allreduces(self):
        cost = elementwise_cost(10)
        layer = Layer(
            "l", cost, cost, cost, params_bytes=0,
            forward_allreduce_bytes=500, backward_allreduce_bytes=500,
        )
        workload = Workload(name="w", layers=(layer,), batch_size_per_npu=1)
        assert _issued(workload, "model") == [
            ("iter0.l.fwd-ar", CollectiveOp.ALL_REDUCE, 500),
            ("iter0.l.bwd-ar", CollectiveOp.ALL_REDUCE, 500),
        ]

    def test_total_backward_payload(self, resnet50_workload):
        issued = _issued(resnet50_workload, num_npus=8)
        assert {op for _, op, _ in issued} == {CollectiveOp.ALL_REDUCE}
        assert sum(size for _, _, size in issued) == resnet50_workload.total_params_bytes

    def test_moe_blocks_issue_blocking_all_to_alls(self):
        """The 4 MoE blocks of the shipped trace exchange tokens with
        blocking all-to-alls in both passes, not all-reduces."""
        workload = lower_trace(find_trace("moe-transformer"))
        blocking = {
            name: op for name, op, _ in _issued(workload)
            if name.endswith((".fwd-ar", ".bwd-ar"))
        }
        moe_blocks = [f"block{i}-moe" for i in (1, 3, 5, 7)]
        assert blocking == {
            f"iter0.{block}.{when}-ar": CollectiveOp.ALL_TO_ALL
            for block in moe_blocks
            for when in ("fwd", "bwd")
        }


class TestMicrobench:
    def test_fig4a_case_grid(self):
        cases = microbench.fig4a_cases()
        # 2 all-reduce sizes x (3 GEMMs + 2 lookups) = 10 cases.
        assert len(cases) == 10
        kinds = {c.compute_kind for c in cases}
        assert kinds == {"gemm", "emb_lookup"}

    def test_dlrm_replay_sizes(self):
        cases = microbench.dlrm_replay_cases()
        sizes = {c.allreduce_bytes for c in cases}
        assert sizes == {16 * MB, 92 * MB, 153 * MB}

    def test_emb_lookup_uses_paper_geometry(self):
        cost = microbench.emb_lookup_kernel(10_000)
        # 10000 samples x 28 lookups x 64 dims x 4 B ~= 71.7 MB of gathers.
        assert cost.bytes_read == pytest.approx(10_000 * 28 * 64 * 4)

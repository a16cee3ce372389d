"""Endpoint models: baseline, ACE and ideal."""

import pytest

from repro.collectives.planner import plan_collective
from repro.config.presets import make_system
from repro.endpoint import AceEndpoint, BaselineEndpoint, IdealEndpoint, make_endpoint
from repro.endpoint.base import PhaseWork
from repro.errors import ConfigurationError
from repro.runner import network_drive_job
from repro.units import KB, MB


def _work(send=64 * KB, reduce=0.0, forward=0.0, kind="all_gather", is_last=False):
    return PhaseWork(
        phase_index=0,
        phase_name="phase0",
        dimension="local",
        kind=kind,
        steps=3,
        send_bytes=send,
        reduce_bytes=reduce,
        forward_bytes=forward,
        is_first=True,
        is_last=is_last,
    )


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("baseline_comm_opt", BaselineEndpoint),
            ("baseline_comp_opt", BaselineEndpoint),
            ("baseline_no_overlap", BaselineEndpoint),
            ("ace", AceEndpoint),
            ("ideal", IdealEndpoint),
        ],
    )
    def test_factory_builds_matching_endpoint(self, name, cls):
        assert isinstance(make_endpoint(make_system(name)), cls)

    def test_ace_endpoint_rejects_wrong_config(self):
        with pytest.raises(ConfigurationError):
            AceEndpoint(make_system("ideal"))

    @pytest.mark.parametrize("cls", [AceEndpoint, BaselineEndpoint, IdealEndpoint])
    def test_each_endpoint_defines_its_own_stages(self, cls):
        # The layer profile times each class's own stage methods.
        assert {"ingress", "process_phase", "egress"} <= set(vars(cls))


class TestBaselineEndpoint:
    def test_reduce_step_reads_twice_the_sent_bytes(self):
        endpoint = BaselineEndpoint(make_system("baseline_comm_opt"))
        endpoint.process_phase(
            endpoint.phase_cost(_work(send=100.0, reduce=100.0, kind="reduce_scatter")), 0.0
        )
        assert endpoint.memory_read_bytes == pytest.approx(200.0)

    def test_all_gather_step_reads_once(self):
        endpoint = BaselineEndpoint(make_system("baseline_comm_opt"))
        endpoint.process_phase(endpoint.phase_cost(_work(send=100.0)), 0.0)
        assert endpoint.memory_read_bytes == pytest.approx(100.0)

    def test_final_phase_writes_results(self):
        endpoint = BaselineEndpoint(make_system("baseline_comm_opt"))
        endpoint.process_phase(endpoint.phase_cost(_work(send=100.0, is_last=True)), 0.0)
        assert endpoint.memory_write_bytes == pytest.approx(100.0)

    def test_comp_opt_is_slower_than_comm_opt(self):
        comm_opt = BaselineEndpoint(make_system("baseline_comm_opt"))
        comp_opt = BaselineEndpoint(make_system("baseline_comp_opt"))
        big = _work(send=4 * 1024 * 1024, reduce=4 * 1024 * 1024, kind="reduce_scatter")
        comp_finish = comp_opt.process_phase(comp_opt.phase_cost(big), 0.0)
        assert comp_finish > comm_opt.process_phase(comm_opt.phase_cost(big), 0.0)

    def test_ingress_and_egress_are_free(self):
        endpoint = BaselineEndpoint(make_system("baseline_comm_opt"))
        assert endpoint.ingress(64 * KB, 5.0) == 5.0
        assert endpoint.egress(64 * KB, 7.0) == 7.0

    def test_chunk_capacity_positive(self):
        assert BaselineEndpoint(make_system("baseline_comm_opt")).chunk_capacity() > 0

    def test_reads_serialize_on_the_comm_channel(self):
        # BaselineCommOpt: 450 GB/s of HBM reads, ~478 GB/s of SM streaming
        # and the 500 GB/s bus, each with a 20 ns transaction overhead where
        # it applies, then the 5 us software handoff.
        endpoint = BaselineEndpoint(make_system("baseline_comm_opt"))
        latency = endpoint.PHASE_SOFTWARE_LATENCY_NS
        last = endpoint.phase_cost(_work(send=4500.0, is_last=True))
        assert endpoint.process_phase(last, 0.0) == pytest.approx(10.0 + 20.0 + latency)
        assert endpoint.process_phase(last, 0.0) == pytest.approx(20.0 + 20.0 + latency)
        # Reads only: the final phase's write-back is counted apart.
        assert endpoint.memory_read_bytes == 9000.0
        assert endpoint.memory_write_bytes == 9000.0


class TestIdealEndpoint:
    def test_single_cycle_stages(self):
        endpoint = IdealEndpoint(make_system("ideal"))
        cycle = 1e3 / 1245.0
        assert endpoint.ingress(64 * KB, 0.0) == pytest.approx(cycle)
        finish = endpoint.process_phase(endpoint.phase_cost(_work()), 10.0)
        assert finish == pytest.approx(10.0 + cycle)
        assert endpoint.egress(64 * KB, 20.0) == pytest.approx(20.0 + cycle)
        assert endpoint.memory_read_bytes == 0.0
        assert endpoint.memory_write_bytes == 0.0


class TestAceEndpoint:
    def _endpoint(self, torus):
        endpoint = AceEndpoint(make_system("ace"))
        endpoint.configure(plan_collective("all_reduce", torus))
        return endpoint

    def test_memory_traffic_is_payload_only(self, torus_444):
        endpoint = self._endpoint(torus_444)
        chunk = 64 * KB
        t = endpoint.ingress(chunk, 0.0)
        work = _work(send=48 * KB, reduce=48 * KB, kind="reduce_scatter")
        t = endpoint.process_phase(endpoint.phase_cost(work), t)
        t = endpoint.egress(chunk, t)
        assert endpoint.memory_read_bytes == pytest.approx(chunk)
        assert endpoint.memory_write_bytes == pytest.approx(chunk)

    def test_ace_reads_far_less_than_baseline_per_injected_byte(self, torus_444):
        ace = self._endpoint(torus_444)
        baseline = BaselineEndpoint(make_system("baseline_comm_opt"))
        chunk = 64 * KB
        plan = plan_collective("all_reduce", torus_444)
        ace.ingress(chunk, 0.0)
        t_b = 0.0
        for index, phase in enumerate(plan.phases):
            work = PhaseWork.from_phase(phase, index, chunk, index == 0, index == len(plan.phases) - 1)
            ace.process_phase(ace.phase_cost(work), 0.0)
            t_b = baseline.process_phase(baseline.phase_cost(work), t_b)
        ace.egress(chunk, 0.0)
        injected = chunk * plan.total_injected_fraction
        assert baseline.memory_read_bytes / injected == pytest.approx(1.5, rel=0.01)
        assert ace.memory_read_bytes / injected == pytest.approx(1 / 2.25, rel=0.01)
        # The ~3.5x memory bandwidth reduction of the paper's abstract.
        assert baseline.memory_read_bytes / ace.memory_read_bytes == pytest.approx(3.375, rel=0.01)

    def test_hbm_slice_wider_than_the_hbm_fails_at_submission(self):
        # The ACE slice alone oversubscribes the 900 GB/s HBM.
        with pytest.raises(ConfigurationError, match="ace.memory_bandwidth_gbps") as info:
            network_drive_job(
                "ace", 4 * MB, num_npus=16, overrides={"ace": {"memory_bandwidth_gbps": 950.0}}
            )
        assert info.value.field == "ace.memory_bandwidth_gbps"

"""Fig. 4 — slowdown of all-reduce when overlapped with compute kernels.

The paper measures, on an 8-GPU V100 + NVSwitch box (150 GB/s of network
bandwidth per GPU), how much an NCCL all-reduce slows down when a GEMM or an
embedding-lookup kernel runs concurrently.  The mechanism is resource
contention at the endpoint: the compute kernel consumes SMs (GEMM) and HBM
bandwidth (embedding lookups), leaving less of both for the collective.

The reproduction builds the same microbenchmark on the simulator's contention
model: the all-reduce is first run with the full endpoint resources
(standalone), then with the resources that remain after the concurrent kernel
takes its share (overlapped).  The reported metric is the slowdown ratio,
matching the shape of Fig. 4a/4b: bigger GEMMs and bigger lookup batches slow
the collective down more, and the memory-hungry embedding lookups hurt more
than compute-bound GEMMs of comparable size.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional

from repro.compute.kernels import KernelCost
from repro.compute.roofline import RooflineModel
from repro.config.presets import make_system
from repro.config.system import NetworkConfig, SystemConfig
from repro.runner import SweepRunner, default_runner, network_drive_job
from repro.units import KB, MB
from repro.workloads import microbench

#: The Fig. 4 testbed: 8 GPUs behind an NVSwitch with 150 GB/s per GPU.
_V100_NET = NetworkConfig(
    intra_package_link_bandwidth_gbps=75.0,
    inter_package_link_bandwidth_gbps=25.0,
    intra_package_links=2,
    link_efficiency=1.0,
)
_V100_TOPOLOGY = (8, 1, 1)
#: Communication resources NCCL typically uses when running alone.
_STANDALONE_SMS = 8
_STANDALONE_MEM_BW = 600.0


def _v100_job(comm_sms: int, comm_mem_bw: float, payload_bytes: int, chunk: int):
    """A network-drive job on the Fig. 4 testbed with the given comm resources."""
    return network_drive_job(
        "baseline_comm_opt",
        payload_bytes,
        topology=_V100_TOPOLOGY,
        chunk_bytes=chunk,
        overrides={
            "network": asdict(_V100_NET),
            "policy": {"comm_sms": comm_sms, "comm_memory_bandwidth_gbps": comm_mem_bw},
        },
    )


def _contended_resources(compute: KernelCost, system: SystemConfig) -> Dict[str, float]:
    """Estimate the SMs and memory bandwidth a concurrent kernel leaves free.

    The kernel's memory-bandwidth demand is its bytes over its roofline
    duration on the full machine; its SM demand is proportional to how
    compute-bound it is.  The collective keeps whatever is left (with small
    floors so it always makes progress, as NCCL does).
    """
    roofline = RooflineModel(
        tflops=system.compute.peak_tflops_fp16,
        memory_bandwidth_gbps=system.memory.npu_memory_bandwidth_gbps,
        kernel_launch_overhead_ns=0.0,
    )
    duration = roofline.kernel_time_ns(compute)
    mem_demand = compute.bytes_total / duration if duration > 0 else 0.0
    # Irregular gathers do not sustain the full HBM bandwidth; the paper
    # measures ~429 GB/s for the batch-10000 embedding lookup on a 900 GB/s
    # part, i.e. roughly half of peak.
    mem_demand = min(mem_demand, 0.5 * system.memory.npu_memory_bandwidth_gbps)
    compute_boundedness = min(
        1.0, roofline.compute_time_ns(compute) / max(1e-9, duration)
    )
    sm_demand = compute_boundedness * system.compute.num_sms
    free_mem = max(60.0, _STANDALONE_MEM_BW - mem_demand)
    free_sms = max(2, int(round(_STANDALONE_SMS - sm_demand * _STANDALONE_SMS / system.compute.num_sms)))
    return {"comm_sms": free_sms, "comm_mem_bw": free_mem, "compute_duration_ns": duration}


def run_fig4(
    chunk_bytes: int = 64 * KB,
    dlrm_replay: bool = True,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """The all-reduce slowdown of every Fig. 4a case, and Fig. 4b's if ``dlrm_replay``."""
    runner = runner or default_runner()
    cases = list(microbench.fig4a_cases())
    if dlrm_replay:
        cases += list(microbench.dlrm_replay_cases())

    # One standalone drive per distinct payload plus one contended drive per
    # case, all dispatched as a single batch.
    standalone_payloads = list(dict.fromkeys(case.allreduce_bytes for case in cases))
    # The kernel estimate reads only the NPU's compute and HBM, not the policy.
    testbed = make_system("baseline_comm_opt", network=_V100_NET)
    contended = [_contended_resources(case.compute, testbed) for case in cases]
    jobs = [
        _v100_job(_STANDALONE_SMS, _STANDALONE_MEM_BW, payload, chunk_bytes)
        for payload in standalone_payloads
    ] + [
        _v100_job(int(c["comm_sms"]), c["comm_mem_bw"], case.allreduce_bytes, chunk_bytes)
        for case, c in zip(cases, contended)
    ]
    drives = runner.run_values(jobs)
    standalone_ns_for = {
        payload: drive.duration_ns
        for payload, drive in zip(standalone_payloads, drives)
    }
    contended_results = drives[len(standalone_payloads):]

    rows: List[Dict[str, object]] = []
    for case, resources, contended_result in zip(cases, contended, contended_results):
        standalone_ns = standalone_ns_for[case.allreduce_bytes]
        # The microbenchmark posts the compute kernel twice around the
        # all-reduce, so the collective only runs contended while the compute
        # kernels are actually executing; afterwards it finishes at the
        # standalone rate.
        compute_window_ns = 2.0 * resources["compute_duration_ns"]
        contended_rate = case.allreduce_bytes / contended_result.duration_ns
        standalone_rate = case.allreduce_bytes / standalone_ns
        if contended_result.duration_ns <= compute_window_ns:
            overlapped_ns = contended_result.duration_ns
        else:
            done_during_window = contended_rate * compute_window_ns
            overlapped_ns = compute_window_ns + (
                case.allreduce_bytes - done_during_window
            ) / standalone_rate
        rows.append(
            {
                "case": case.label,
                "compute_kind": case.compute_kind,
                "allreduce_mb": case.allreduce_bytes / MB,
                "standalone_us": standalone_ns / 1e3,
                "overlapped_us": overlapped_ns / 1e3,
                "slowdown": overlapped_ns / standalone_ns,
            }
        )
    return rows

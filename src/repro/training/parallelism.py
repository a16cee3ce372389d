"""Parallelisation strategy specs and pipeline geometry.

The collectives each strategy issues per layer are decided where they are
issued, in :meth:`repro.training.loop.TrainingLoop._program`.  The paper
uses data parallelism for ResNet-50 and GNMT (weight-gradient all-reduce
per layer) and hybrid parallelism for DLRM (data parallel across the MLP
layers, model parallel across the embedding tables, exchanged with
all-to-alls).  Megatron-LM style tensor parallelism adds blocking activation
all-reduces around every layer.

Two further strategies extend the sweep space beyond the paper's four
workloads:

``zero``
    ZeRO/FSDP-style sharded data parallelism.  Optimizer state and parameters
    are sharded across the data-parallel group, so each layer's
    weight-gradient all-reduce is replaced by a reduce-scatter in the
    backward pass plus a parameter all-gather before the layer's next forward
    pass.  On ring algorithms the two halves inject exactly the bytes of the
    all-reduce they replace (``(n-1)/n + (n-1)/n = 2(n-1)/n``), which the
    property tests pin down.

``pipeline``
    1F1B pipeline parallelism.  The layer list is split into contiguous
    stages; weights are sharded by stage, so there are *no* weight-gradient
    collectives — stages exchange activations (forward) and activation
    gradients (backward) over point-to-point sends instead, and the schedule
    pays an explicit fill/drain bubble of ``(stages - 1)`` slot times per
    iteration.  The spec grammar ``"pipeline:<stages>x<microbatches>"``
    selects the geometry (defaults: 4 stages × 8 microbatches).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from repro.errors import ConfigurationError, WorkloadError
from repro.units import left_sum
from repro.workloads.base import PARALLELISM_STRATEGIES, Layer

#: Default 1F1B geometry for a bare ``"pipeline"`` spec.
DEFAULT_PIPELINE_STAGES = 4
DEFAULT_PIPELINE_MICROBATCHES = 8

_PIPELINE_SPEC = re.compile(r"^pipeline:(\d+)x(\d+)$")


@dataclass(frozen=True)
class ParallelismSpec:
    """A parsed parallelism spec: the strategy plus pipeline geometry."""

    strategy: str
    stages: int = 0
    microbatches: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in PARALLELISM_STRATEGIES:
            raise ConfigurationError(
                f"unknown parallelism strategy {self.strategy!r}; "
                f"expected one of {PARALLELISM_STRATEGIES}"
            )
        if self.strategy == "pipeline":
            if self.stages < 1 or self.microbatches < 1:
                raise ConfigurationError(
                    f"pipeline parallelism needs stages >= 1 and microbatches >= 1, "
                    f"got {self.stages} stages x {self.microbatches} microbatches"
                )
        elif self.stages or self.microbatches:
            raise ConfigurationError(
                f"strategy {self.strategy!r} does not take pipeline geometry"
            )


def parse_parallelism(spec: Union[str, ParallelismSpec]) -> ParallelismSpec:
    """Parse a parallelism spec string.

    Grammar: ``"data" | "model" | "hybrid" | "zero" | "pipeline" |
    "pipeline:<stages>x<microbatches>"``.  A bare ``"pipeline"`` uses the
    default 4×8 geometry.
    """
    if isinstance(spec, ParallelismSpec):
        return spec
    if not isinstance(spec, str) or not spec:
        raise ConfigurationError(
            f"parallelism spec must be a non-empty string, got {spec!r}"
        )
    text = spec.strip()
    if text == "pipeline":
        return ParallelismSpec(
            strategy="pipeline",
            stages=DEFAULT_PIPELINE_STAGES,
            microbatches=DEFAULT_PIPELINE_MICROBATCHES,
        )
    match = _PIPELINE_SPEC.match(text)
    if match:
        return ParallelismSpec(
            strategy="pipeline",
            stages=int(match.group(1)),
            microbatches=int(match.group(2)),
        )
    if text.startswith("pipeline"):
        raise ConfigurationError(
            f"malformed pipeline spec {spec!r}; expected 'pipeline' or "
            f"'pipeline:<stages>x<microbatches>' (e.g. 'pipeline:4x8')"
        )
    if text not in PARALLELISM_STRATEGIES:
        raise ConfigurationError(
            f"unknown parallelism spec {spec!r}; expected one of "
            f"{PARALLELISM_STRATEGIES} or 'pipeline:<stages>x<microbatches>'"
        )
    return ParallelismSpec(strategy=text)


# ----------------------------------------------------------------------
# Pipeline geometry
# ----------------------------------------------------------------------
def pipeline_stages(
    layers: Sequence[Layer], num_stages: int
) -> List[Tuple[Layer, ...]]:
    """Split ``layers`` into ``num_stages`` contiguous, flops-balanced stages.

    Stage boundaries are chosen greedily against the mean per-stage flops so
    the bottleneck stage is as close to ``total / num_stages`` as a contiguous
    partition allows; every stage holds at least one layer.
    """
    if num_stages < 1:
        raise WorkloadError(f"num_stages must be >= 1, got {num_stages}")
    if num_stages > len(layers):
        raise WorkloadError(
            f"cannot split {len(layers)} layers into {num_stages} pipeline "
            f"stages; use at most one stage per layer"
        )
    stages: List[Tuple[Layer, ...]] = []
    remaining = list(layers)
    for index in range(num_stages):
        stages_left = num_stages - index
        if stages_left == 1:
            stages.append(tuple(remaining))
            remaining = []
            break
        total = left_sum(layer.total_flops for layer in remaining)
        target = total / stages_left
        max_take = len(remaining) - (stages_left - 1)
        take, accumulated = 0, 0.0
        while take < max_take:
            accumulated += remaining[take].total_flops
            take += 1
            if accumulated >= target:
                break
        take = max(1, take)
        stages.append(tuple(remaining[:take]))
        remaining = remaining[take:]
    return stages


def pipeline_bubble_fraction(num_stages: int, num_microbatches: int) -> float:
    """Closed-form 1F1B bubble fraction: ``(S - 1) / (M + S - 1)``.

    With uniform per-stage slot times the pipeline fills for ``S - 1`` slots,
    streams ``M`` microbatches, and drains for the complementary ``S - 1``
    slots; the idle fraction of the iteration is exactly this ratio
    (PipeDream-Flush / Megatron-LM pipelining analysis).
    """
    if num_stages < 1:
        raise WorkloadError(f"num_stages must be >= 1, got {num_stages}")
    if num_microbatches < 1:
        raise WorkloadError(f"num_microbatches must be >= 1, got {num_microbatches}")
    return (num_stages - 1) / (num_microbatches + num_stages - 1)

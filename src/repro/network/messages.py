"""Data granularity: how payloads split into chunks, messages and packets.

Table III of the paper defines the granularity hierarchy ACE operates on:

========  =================  ============================================
Level     Default size       Determined by
========  =================  ============================================
Payload   variable           the training algorithm (one collective call)
Chunk     64 KB              pipelining parameter / SRAM sizing
Message   8 KB (multiple of  collective algorithm / topology
          the node count)
Packet    256 B              link technology
========  =================  ============================================

The simulator tracks only sizes and timing; the functional content of
collectives (the actual floating point data) is modelled separately in
:mod:`repro.collectives.dataops` for correctness testing.
"""

from __future__ import annotations

from typing import List

from repro.errors import CollectiveError


def split_payload(payload_bytes: int, chunk_bytes: int) -> List[int]:
    """Split a payload into chunk sizes (last chunk may be smaller)."""
    if payload_bytes <= 0:
        raise CollectiveError(f"payload must be positive, got {payload_bytes}")
    if chunk_bytes <= 0:
        raise CollectiveError(f"chunk size must be positive, got {chunk_bytes}")
    full, rest = divmod(payload_bytes, chunk_bytes)
    sizes = [chunk_bytes] * int(full)
    if rest:
        sizes.append(int(rest))
    return sizes

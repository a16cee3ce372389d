"""Lossless JSON serialization for simulation results.

The sweep runner moves results across process boundaries and stores them in
the on-disk cache, so every result type needs an exact round trip:
``decode_result(encode_result(x))`` must compare equal to ``x``.  Python's
``json`` module emits the shortest float repr that round-trips, so floating
point values survive bit-exactly.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, fields
from typing import Dict

from repro.analysis.bandwidth import NetworkDriveResult
from repro.errors import ReproError
from repro.training.results import IterationBreakdown, TrainingResult

#: Tag key identifying the payload type in an encoded result.
RESULT_TYPE_KEY = "__result__"

_JSON_SCALARS = (str, int, float, bool, type(None))


class SerializationError(ReproError):
    """A result could not be encoded to (or decoded from) JSON."""


def _is_plain_json(value: object) -> bool:
    if isinstance(value, _JSON_SCALARS):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_plain_json(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_plain_json(v) for k, v in value.items())
    return False


def _jsonify(value: object) -> object:
    """Copy plain data, normalising tuples to lists.

    A disk-cache round trip goes through ``json.dumps``/``json.load``, which
    turns tuples into lists; normalising at encode time keeps memory-cached
    and disk-cached payloads identical.
    """
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def encode_result(value: object) -> Dict[str, object]:
    """Encode a simulation result into a JSON-serializable tagged dict."""
    if isinstance(value, TrainingResult):
        payload: Dict[str, object] = {RESULT_TYPE_KEY: "training_result"}
        for spec in fields(TrainingResult):
            payload[spec.name] = getattr(value, spec.name)
        payload["iteration_breakdowns"] = [
            asdict(b) for b in value.iteration_breakdowns
        ]
        payload["compute_utilization_series"] = [
            [t, u] for t, u in value.compute_utilization_series
        ]
        payload["network_utilization_series"] = [
            [t, u] for t, u in value.network_utilization_series
        ]
        payload["extra"] = dict(value.extra)
        return payload
    if isinstance(value, NetworkDriveResult):
        return {RESULT_TYPE_KEY: "network_drive_result", **asdict(value)}
    if _is_plain_json(value):
        return {RESULT_TYPE_KEY: "json", "value": _jsonify(value)}
    raise SerializationError(
        f"cannot serialize result of type {type(value).__name__}; "
        "expected TrainingResult, NetworkDriveResult, or plain JSON data"
    )


def decode_result(payload: Dict[str, object]) -> object:
    """Rebuild the result object an :func:`encode_result` payload describes."""
    try:
        kind = payload[RESULT_TYPE_KEY]
    except (TypeError, KeyError):
        raise SerializationError("result payload is missing its type tag") from None
    body = {k: v for k, v in payload.items() if k != RESULT_TYPE_KEY}
    if kind == "training_result":
        body["iteration_breakdowns"] = [
            IterationBreakdown(**b) for b in body["iteration_breakdowns"]
        ]
        body["compute_utilization_series"] = [
            tuple(point) for point in body["compute_utilization_series"]
        ]
        body["network_utilization_series"] = [
            tuple(point) for point in body["network_utilization_series"]
        ]
        body["extra"] = dict(body["extra"])
        return TrainingResult(**body)
    if kind == "network_drive_result":
        return NetworkDriveResult(**body)
    if kind == "json":
        return copy.deepcopy(body["value"])
    raise SerializationError(f"unknown result payload type {kind!r}")

"""Zero-copy binary wire format for service requests and responses.

The JSON request form ships operand arrays as number lists — decode
rebuilds each array element by element, which dominates service latency
for large operands.  The binary format here ships the operand arenas as
raw array frames instead:

``````
offset 0   magic  b"RPRW"
offset 4   u8     wire version (1)
offset 5   u32le  header length H
offset 9   utf-8  JSON header (H bytes)
align 64   frames: raw little-endian array bytes, each 64-byte aligned
``````

The JSON header carries everything *about* the payload — method,
config, workspace, request id, and per-operand field tables (field
name → frame, frame → dtype/shape/offset; the fields are
:meth:`repro.kernels.arena.OperandArena.wire_fields`) — while the arrays
themselves are appended verbatim.  Decoding is :func:`np.frombuffer`
per frame: no parsing, no copy — the resulting ``NodeSet`` views alias
the payload buffer (the sorted-end frame is shipped too, so the
receiver never re-sorts).

JSON remains the compatibility default: :func:`decode_request` sniffs
the payload (magic bytes → binary, else JSON) so a service endpoint
accepts both on one code path, and :func:`negotiate_format` picks the
best format both sides accept, preferring binary.  Both formats
round-trip every :class:`EstimateRequest` and :class:`EstimateResponse`
exactly — the qa wire oracle asserts it.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.errors import ServiceError
from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.base import Estimate
from repro.kernels.arena import OperandArena, operand_arena
from repro.service.request import EstimateRequest, EstimateResponse

MAGIC = b"RPRW"
WIRE_VERSION = 1

FORMAT_BINARY = "binary"
FORMAT_JSON = "json"

#: Formats this codec can produce and parse, in preference order.
KNOWN_FORMATS = (FORMAT_BINARY, FORMAT_JSON)

_ALIGNMENT = 64
_HEADER_FIXED = len(MAGIC) + 1 + 4  # magic + version byte + u32 length


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


def negotiate_format(accepted: Iterable[str] | None) -> str:
    """The preferred wire format both sides speak.

    ``accepted`` is the peer's accept list (e.g. from a request header);
    ``None`` or an empty list means the peer stated no preference and
    gets the JSON compatibility default.  Unknown entries are ignored;
    an accept list with no known entry raises :class:`ServiceError`.
    """
    if accepted is None:
        return FORMAT_JSON
    offered = [item for item in accepted if item in KNOWN_FORMATS]
    if not offered and list(accepted):
        raise ServiceError(
            f"no mutually supported wire format in {list(accepted)!r} "
            f"(supported: {KNOWN_FORMATS})"
        )
    if not offered:
        return FORMAT_JSON
    return FORMAT_BINARY if FORMAT_BINARY in offered else FORMAT_JSON


def sniff_format(payload: bytes | bytearray | memoryview) -> str:
    """Which wire format ``payload`` is in (by leading magic bytes)."""
    head = bytes(memoryview(payload)[: len(MAGIC)])
    return FORMAT_BINARY if head == MAGIC else FORMAT_JSON


# ----------------------------------------------------------------------
# Header building blocks
# ----------------------------------------------------------------------


def _request_meta(request: EstimateRequest) -> dict[str, Any]:
    """The request's scalar fields, JSON-ready."""
    try:
        config = json.loads(json.dumps(request.config))
    except (TypeError, ValueError) as error:
        raise ServiceError(
            f"request config is not wire-serializable: {error}"
        ) from error
    return {
        "method": request.method,
        "workspace": (
            [int(request.workspace.lo), int(request.workspace.hi)]
            if request.workspace is not None
            else None
        ),
        "config": config,
        "deadline_s": request.deadline_s,
        "max_staleness_s": request.max_staleness_s,
        "request_id": request.request_id,
    }


def _request_from_meta(
    meta: dict[str, Any], ancestors: NodeSet, descendants: NodeSet
) -> EstimateRequest:
    workspace = meta.get("workspace")
    return EstimateRequest(
        ancestors=ancestors,
        descendants=descendants,
        method=meta["method"],
        workspace=(
            Workspace(int(workspace[0]), int(workspace[1]))
            if workspace is not None
            else None
        ),
        config=dict(meta.get("config") or {}),
        deadline_s=meta.get("deadline_s"),
        # Older peers predate bounded staleness; absent means no bound.
        max_staleness_s=meta.get("max_staleness_s"),
        request_id=meta.get("request_id"),
    )


def _response_to_dict(response: EstimateResponse) -> dict[str, Any]:
    return response.to_dict()


def _response_from_dict(payload: dict[str, Any]) -> EstimateResponse:
    if payload.get("schema_version") != 1:
        raise ServiceError(
            f"unsupported response schema_version "
            f"{payload.get('schema_version')!r}"
        )
    return EstimateResponse(
        estimate=Estimate.from_dict(payload["estimate"]),
        status=str(payload["status"]),
        ladder_level=int(payload["ladder_level"]),
        ladder_name=str(payload["ladder_name"]),
        deadline_missed=bool(payload["deadline_missed"]),
        degraded_reason=payload.get("degraded_reason"),
        wait_s=float(payload["wait_s"]),
        service_s=float(payload["service_s"]),
        batch_size=int(payload["batch_size"]),
        request_id=str(payload["request_id"]),
        # Older peers predate routing; absent means "not routed".
        routed_method=payload.get("routed_method"),
        # Older peers predate live workspaces; absent means "not live".
        staleness_s=payload.get("staleness_s"),
        applied_seq=payload.get("applied_seq"),
    )


# ----------------------------------------------------------------------
# Binary envelope
# ----------------------------------------------------------------------


def _pack(header: dict[str, Any], frames: Sequence[np.ndarray]) -> bytes:
    """Assemble magic + version + JSON header + aligned raw frames.

    Frame offsets (relative to the aligned frame base) are appended to
    the header as it is packed, so callers list arrays and nothing else.
    """
    frame_meta = []
    offset = 0
    for array in frames:
        offset = _align(offset)
        frame_meta.append(
            {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        offset += array.nbytes
    header = dict(header)
    header["frames"] = frame_meta
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    base = _align(_HEADER_FIXED + len(header_bytes))
    payload = bytearray(base + offset)
    payload[: len(MAGIC)] = MAGIC
    payload[len(MAGIC)] = WIRE_VERSION
    payload[len(MAGIC) + 1 : _HEADER_FIXED] = len(header_bytes).to_bytes(
        4, "little"
    )
    payload[_HEADER_FIXED : _HEADER_FIXED + len(header_bytes)] = header_bytes
    for meta, array in zip(frame_meta, frames):
        start = base + meta["offset"]
        payload[start : start + array.nbytes] = np.ascontiguousarray(
            array
        ).tobytes()
    return bytes(payload)


def _unpack(
    payload: bytes | bytearray | memoryview,
) -> tuple[dict[str, Any], list[np.ndarray]]:
    """Parse the envelope; frames are zero-copy views into ``payload``."""
    view = memoryview(payload)
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise ServiceError("not a binary wire payload (bad magic)")
    version = view[len(MAGIC)]
    if version != WIRE_VERSION:
        raise ServiceError(
            f"unsupported wire version {version} "
            f"(this version reads {WIRE_VERSION})"
        )
    header_len = int.from_bytes(
        bytes(view[len(MAGIC) + 1 : _HEADER_FIXED]), "little"
    )
    try:
        header = json.loads(
            bytes(view[_HEADER_FIXED : _HEADER_FIXED + header_len])
        )
    except ValueError as error:
        raise ServiceError(f"malformed wire header: {error}") from error
    base = _align(_HEADER_FIXED + header_len)
    arrays = []
    for meta in header.get("frames", ()):
        dtype = np.dtype(meta["dtype"])
        shape = tuple(int(n) for n in meta["shape"])
        count = int(np.prod(shape)) if shape else 1
        array = np.frombuffer(
            view, dtype=dtype, count=count, offset=base + int(meta["offset"])
        ).reshape(shape)
        arrays.append(array)
    return header, arrays


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


def _operand_header(
    arena: OperandArena, frames: list[np.ndarray]
) -> dict[str, Any]:
    """One operand's field table; appends its arrays to ``frames``."""
    fields = {}
    for name, array in arena.wire_fields().items():
        fields[name] = len(frames)
        frames.append(array)
    node_set = arena.node_set
    return {
        "name": node_set._name,
        "fingerprint": node_set.fingerprint,
        "length": len(node_set),
        "fields": fields,
    }


def _operand_from_header(
    meta: dict[str, Any], arrays: Sequence[np.ndarray]
) -> NodeSet:
    views = {
        name: arrays[int(index)]
        for name, index in meta["fields"].items()
    }
    arena = OperandArena.from_wire_fields(
        views, name=meta.get("name"), fingerprint=meta.get("fingerprint")
    )
    return arena.node_set


def encode_request(
    request: EstimateRequest, wire_format: str = FORMAT_BINARY
) -> bytes:
    """Serialize a request in ``wire_format`` (binary by default)."""
    if wire_format == FORMAT_JSON:
        return encode_request_json(request)
    if wire_format != FORMAT_BINARY:
        raise ServiceError(f"unknown wire format {wire_format!r}")
    frames: list[np.ndarray] = []
    header = {
        "kind": "estimate_request",
        "request": _request_meta(request),
        "operands": {
            "ancestors": _operand_header(
                operand_arena(request.ancestors), frames
            ),
            "descendants": _operand_header(
                operand_arena(request.descendants), frames
            ),
        },
    }
    return _pack(header, frames)


def encode_request_json(request: EstimateRequest) -> bytes:
    """The JSON compatibility form: operand arrays as number lists."""
    document = {
        "kind": "estimate_request",
        "schema_version": WIRE_VERSION,
        "request": _request_meta(request),
        "operands": {
            role: {
                "name": operand._name,
                "fingerprint": operand.fingerprint,
                "starts": operand.starts.tolist(),
                "ends": operand.ends.tolist(),
            }
            for role, operand in (
                ("ancestors", request.ancestors),
                ("descendants", request.descendants),
            )
        },
    }
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def decode_request(
    payload: bytes | bytearray | memoryview,
) -> tuple[EstimateRequest, str]:
    """Parse a request payload in either format.

    Returns ``(request, format)`` — the detected format lets an endpoint
    answer in kind.  Binary operand arrays are zero-copy views into
    ``payload``; keep the buffer alive as long as the request.
    """
    detected = sniff_format(payload)
    if detected == FORMAT_BINARY:
        header, arrays = _unpack(payload)
        if header.get("kind") != "estimate_request":
            raise ServiceError(
                f"expected an estimate_request payload, "
                f"got {header.get('kind')!r}"
            )
        operands = header["operands"]
        ancestors = _operand_from_header(operands["ancestors"], arrays)
        descendants = _operand_from_header(operands["descendants"], arrays)
        return _request_from_meta(header["request"], ancestors, descendants), (
            FORMAT_BINARY
        )
    try:
        document = json.loads(bytes(memoryview(payload)))
    except ValueError as error:
        raise ServiceError(f"malformed JSON request: {error}") from error
    if document.get("kind") != "estimate_request":
        raise ServiceError(
            f"expected an estimate_request payload, "
            f"got {document.get('kind')!r}"
        )
    operands = {}
    for role in ("ancestors", "descendants"):
        meta = document["operands"][role]
        operands[role] = NodeSet.from_arrays(
            np.asarray(meta["starts"], dtype=np.int64),
            np.asarray(meta["ends"], dtype=np.int64),
            name=meta.get("name"),
            fingerprint=meta.get("fingerprint"),
        )
    return (
        _request_from_meta(
            document["request"], operands["ancestors"], operands["descendants"]
        ),
        FORMAT_JSON,
    )


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


def encode_response(
    response: EstimateResponse, wire_format: str = FORMAT_BINARY
) -> bytes:
    """Serialize a response in ``wire_format``.

    Responses carry no operand arrays, so the binary form is the same
    JSON document inside the framed envelope — the caller still gets a
    single self-describing format for both directions.
    """
    if wire_format == FORMAT_JSON:
        document = {
            "kind": "estimate_response",
            "schema_version": WIRE_VERSION,
            "response": _response_to_dict(response),
        }
        return json.dumps(document, separators=(",", ":")).encode("utf-8")
    if wire_format != FORMAT_BINARY:
        raise ServiceError(f"unknown wire format {wire_format!r}")
    header = {
        "kind": "estimate_response",
        "response": _response_to_dict(response),
    }
    return _pack(header, [])


def decode_response(
    payload: bytes | bytearray | memoryview,
) -> EstimateResponse:
    """Parse a response payload in either format."""
    if sniff_format(payload) == FORMAT_BINARY:
        header, __ = _unpack(payload)
        document = header
    else:
        try:
            document = json.loads(bytes(memoryview(payload)))
        except ValueError as error:
            raise ServiceError(
                f"malformed JSON response: {error}"
            ) from error
    if document.get("kind") != "estimate_response":
        raise ServiceError(
            f"expected an estimate_response payload, "
            f"got {document.get('kind')!r}"
        )
    return _response_from_dict(document["response"])

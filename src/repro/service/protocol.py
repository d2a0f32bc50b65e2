"""Wire protocol of the simulation service: newline-delimited JSON.

One request per line, one response per line, over a local stream socket
(the server binds a Unix domain socket; see ``docs/SERVICE.md`` for the
full schema reference and a worked session transcript).  Both directions
use *canonical JSON* — sorted keys, compact separators — so any response
carrying a report renders byte-identically to the same report serialized
anywhere else in the codebase.  That is what makes the service's
determinism contract checkable with a plain string comparison:
:func:`canonical_report_json` over a report served through the queue must
equal :func:`canonical_report_json` over the same cell run directly
through :class:`~repro.runner.sweep.SweepRunner`.

Requests are ``{"op": ..., ...}`` objects; :func:`validate_request`
normalizes and type-checks them so the server core never sees malformed
input.  Responses are ``{"ok": true, ...}`` on success or
``{"ok": false, "error": {"code", "message", ...}}`` on failure, with
``code`` drawn from :data:`ERROR_CODES`.  A ``queue_full`` error always
carries ``retry_after_s`` — backpressure is explicit, never a silent
drop or a hung connection.
"""

from __future__ import annotations

import json
from typing import Any

from repro.runner.serialize import report_to_dict
from repro.system import SimulationReport

#: Bump on incompatible wire changes; both sides echo it in ``hello``.
PROTOCOL_VERSION = 1

#: Scheme names a submission may request (mirrors the CLI choices).
SCHEMES = ("unsecure", "private", "shared", "cached", "dynamic", "batching", "ideal")

#: Operations a client may send.
OPS = ("submit", "status", "cancel", "metrics", "ping")

#: Every structured error code a response may carry.
#:
#: ``bad_request``        malformed or unparseable request object
#: ``unknown_workload``   submitted workload is not in the registry
#: ``queue_full``         admission queue at capacity; retry_after_s attached
#: ``draining``           server is draining (SIGTERM); no new admissions
#: ``unknown_job``        status/cancel for a job id the server never issued
#: ``cancelled``          the submission was cancelled before completion
#: ``deadline_exceeded``  the job's deadline elapsed before completion
#: ``execution_failed``   every execution attempt failed (SweepError)
#: ``internal``           unexpected server-side error (bug — report it)
ERROR_CODES = (
    "bad_request",
    "unknown_workload",
    "queue_full",
    "draining",
    "unknown_job",
    "cancelled",
    "deadline_exceeded",
    "execution_failed",
    "internal",
)


class ProtocolError(ValueError):
    """A request that does not conform to the wire schema."""


def encode(message: dict[str, Any]) -> bytes:
    """Render one message as a canonical-JSON line (UTF-8, trailing newline)."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict[str, Any]:
    """Parse one received line into a message object."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


def canonical_report_json(report: SimulationReport | dict[str, Any]) -> str:
    """The one true JSON rendering of a report (sorted keys, compact).

    Accepts either a live :class:`SimulationReport` or its
    :func:`~repro.runner.serialize.report_to_dict` dict — both render to
    the same bytes, which is the service's determinism contract.
    """
    if isinstance(report, SimulationReport):
        report = report_to_dict(report)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------
_MISSING = object()


def _require(obj: dict, field: str, types: type | tuple):
    value = obj.get(field, _MISSING)
    if value is _MISSING:
        raise ProtocolError(f"missing required field {field!r}")
    if value is not None and not isinstance(value, types):
        raise ProtocolError(f"field {field!r} has wrong type {type(value).__name__}")
    return value


def validate_submit(message: dict[str, Any]) -> dict[str, Any]:
    """Normalize a ``submit`` request; raises :class:`ProtocolError`."""
    spec = _require(message, "job", dict)
    workload = _require(spec, "workload", str)
    scheme = spec.get("scheme", "batching")
    if scheme not in SCHEMES:
        raise ProtocolError(f"unknown scheme {scheme!r}; choose from {', '.join(SCHEMES)}")
    gpus = spec.get("gpus", 4)
    seed = spec.get("seed", 1)
    n_lanes = spec.get("n_lanes", 8)
    scale = spec.get("scale", 1.0)
    if not isinstance(gpus, int) or isinstance(gpus, bool) or gpus < 2:
        raise ProtocolError("field 'gpus' must be an integer >= 2")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError("field 'seed' must be an integer")
    if not isinstance(n_lanes, int) or isinstance(n_lanes, bool) or n_lanes < 1:
        raise ProtocolError("field 'n_lanes' must be a positive integer")
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) or scale <= 0:
        raise ProtocolError("field 'scale' must be a positive number")
    deadline_s = message.get("deadline_s")
    if deadline_s is not None and (
        not isinstance(deadline_s, (int, float)) or isinstance(deadline_s, bool) or deadline_s <= 0
    ):
        raise ProtocolError("field 'deadline_s' must be a positive number")
    client = message.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError("field 'client' must be a non-empty string")
    wait = message.get("wait", True)
    if not isinstance(wait, bool):
        raise ProtocolError("field 'wait' must be a boolean")
    return {
        "op": "submit",
        "client": client,
        "wait": wait,
        "deadline_s": float(deadline_s) if deadline_s is not None else None,
        "job": {
            "workload": workload,
            "scheme": scheme,
            "gpus": gpus,
            "seed": seed,
            "scale": float(scale),
            "n_lanes": n_lanes,
        },
    }


def validate_request(message: dict[str, Any]) -> dict[str, Any]:
    """Validate any request; returns the normalized form."""
    op = _require(message, "op", str)
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {', '.join(OPS)}")
    if op == "submit":
        return validate_submit(message)
    if op in ("status", "cancel"):
        job_id = message.get("job_id")
        if op == "cancel" and not isinstance(job_id, str):
            raise ProtocolError("cancel requires a string 'job_id'")
        if job_id is not None and not isinstance(job_id, str):
            raise ProtocolError("field 'job_id' must be a string")
        return {"op": op, "job_id": job_id}
    return {"op": op}


# ----------------------------------------------------------------------
# Response builders
# ----------------------------------------------------------------------
def ok(**fields: Any) -> dict[str, Any]:
    """A success response."""
    return {"ok": True, **fields}


def error(code: str, message: str, **fields: Any) -> dict[str, Any]:
    """A structured failure response; ``code`` must be a known error code."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"ok": False, "error": {"code": code, "message": message, **fields}}


__all__ = [
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "SCHEMES",
    "ProtocolError",
    "canonical_report_json",
    "decode",
    "encode",
    "error",
    "ok",
    "validate_request",
    "validate_submit",
]

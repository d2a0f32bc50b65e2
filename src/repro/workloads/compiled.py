"""The trace format: immutable per-lane integer streams.

:class:`CompiledTrace` is the one trace format.  Generators emit it through
:class:`~repro.workloads.builder.TraceBuilder` and the device pump replays
it: per-(GPU, lane) parallel typed arrays — ``gaps`` and ``addrs`` as
``array('q')``, ``writes`` as ``array('b')`` — indexed directly, so no
per-access object exists anywhere between generation and replay, and an
access costs 17 bytes.

Traces also serialize compactly to ``.npz`` (one numpy array per per-GPU
stream plus a JSON header), which is what the content-addressed trace
store persists so a sweep generates each trace once and every scheme —
and every pool worker — replays the same bytes.  Loading copies each
lane's slice of a stored stream into its array once; a stream of the wrong
dtype, length or value range is rejected, so the store regenerates it.
"""

from __future__ import annotations

import io
import json
import zipfile
from array import array
from typing import Iterable

import numpy as np

#: Bump when the compiled layout (not the traced behavior) changes; folded
#: into trace-store keys so old files simply stop being found.
TRACE_SCHEMA = 1


def _typed(typecode: str, values: Iterable[int]) -> array:
    """``values`` as an ``array(typecode)``; an array of that type is kept."""
    if type(values) is array and values.typecode == typecode:
        return values
    return array(typecode, values)


class CompiledLane:
    """One lane's access stream as three parallel typed arrays: ``gaps``
    and ``addrs`` as ``array('q')``, ``writes`` as ``array('b')``.  Any
    integer sequence converts."""

    __slots__ = ("gaps", "addrs", "writes")

    def __init__(
        self, gaps: Iterable[int], addrs: Iterable[int], writes: Iterable[int]
    ) -> None:
        gaps = _typed("q", gaps)
        addrs = _typed("q", addrs)
        writes = _typed("b", writes)
        if not (len(gaps) == len(addrs) == len(writes)):
            raise ValueError("lane streams must have equal length")
        self.gaps = gaps
        self.addrs = addrs
        self.writes = writes

    def __len__(self) -> int:
        return len(self.gaps)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CompiledLane)
            and self.gaps == other.gaps
            and self.addrs == other.addrs
            and self.writes == other.writes
        )

    def __repr__(self) -> str:
        return f"CompiledLane(n={len(self.gaps)})"


class CompiledGpuTrace:
    """All lanes of one GPU plus its instruction count."""

    __slots__ = ("lanes", "instructions")

    def __init__(self, lanes: tuple[CompiledLane, ...], instructions: int) -> None:
        self.lanes = lanes
        self.instructions = instructions

    @property
    def n_accesses(self) -> int:
        return sum(len(lane) for lane in self.lanes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CompiledGpuTrace)
            and self.lanes == other.lanes
            and self.instructions == other.instructions
        )


class CompiledTrace:
    """A complete multi-GPU workload in replay form.  Immutable by contract:
    the runner shares one instance across schemes and pool-worker memos, so
    nothing downstream may mutate it."""

    __slots__ = ("name", "gpu_traces", "pinned_pages", "initial_owners")

    def __init__(
        self,
        name: str,
        gpu_traces: dict[int, CompiledGpuTrace],
        pinned_pages: frozenset[int],
        initial_owners: dict[int, int],
    ) -> None:
        self.name = name
        self.gpu_traces = gpu_traces
        self.pinned_pages = pinned_pages
        self.initial_owners = initial_owners

    @property
    def total_accesses(self) -> int:
        return sum(t.n_accesses for t in self.gpu_traces.values())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CompiledTrace)
            and self.name == other.name
            and self.gpu_traces == other.gpu_traces
            and self.pinned_pages == other.pinned_pages
            and self.initial_owners == other.initial_owners
        )

    def validate(self) -> None:
        """Sanity-check the trace against its own allocation map."""
        if not self.gpu_traces:
            raise ValueError(f"workload {self.name} has no GPU traces")
        if not self.initial_owners:
            raise ValueError(f"workload {self.name} has no page ownership map")
        from repro.memory.address_space import PAGE_BYTES

        owners = self.initial_owners
        for node, trace in self.gpu_traces.items():
            for lane in trace.lanes:
                for addr in lane.addrs:
                    if addr // PAGE_BYTES not in owners:
                        raise ValueError(
                            f"workload {self.name}: GPU {node} touches unmapped "
                            f"page {addr // PAGE_BYTES}"
                        )


# ---------------------------------------------------------------------------
# Serialization: one .npz per trace (per-GPU concatenated streams + header)
# ---------------------------------------------------------------------------
def dump_bytes(compiled: CompiledTrace) -> bytes:
    """Render a trace to compact ``.npz`` bytes.

    Lanes are concatenated per GPU into one ``gaps``/``addrs``/``writes``
    array each plus a lane-boundary offset table — dozens of numpy arrays
    instead of thousands of per-lane objects, and ``np.savez_compressed``
    squeezes the redundancy out of the strided address streams.
    """
    arrays: dict[str, np.ndarray] = {}
    header = {
        "schema": TRACE_SCHEMA,
        "name": compiled.name,
        "pinned_pages": sorted(compiled.pinned_pages),
        "initial_owners": {str(k): v for k, v in sorted(compiled.initial_owners.items())},
        "gpus": {},
    }
    for node, gpu_trace in sorted(compiled.gpu_traces.items()):
        bounds = [0]
        for lane in gpu_trace.lanes:
            bounds.append(bounds[-1] + len(lane))
        for stream in ("gaps", "addrs", "writes"):
            dtype = _STREAM_DTYPES[stream]
            # each lane's typed array is viewed in place, never unboxed
            views = [np.frombuffer(getattr(lane, stream), dtype=dtype) for lane in gpu_trace.lanes]
            arrays[f"g{node}_{stream}"] = np.concatenate(views) if views else np.empty(0, dtype)
        arrays[f"g{node}_bounds"] = np.asarray(bounds, dtype=np.int64)
        header["gpus"][str(node)] = {"instructions": gpu_trace.instructions}
    arrays["header"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


#: The dtype :func:`dump_bytes` stores for each per-GPU stream.
#: :func:`load_bytes` copies raw bytes into typed arrays, so a stream of any
#: other dtype (or byte order) is a mismatch, not something to convert.
_STREAM_DTYPES = {
    "gaps": np.dtype(np.int64),
    "addrs": np.dtype(np.int64),
    "writes": np.dtype(np.int8),
    "bounds": np.dtype(np.int64),
}


def _checked_streams(data, node: int) -> list[np.ndarray]:
    """GPU ``node``'s ``gaps``, ``addrs``, ``writes`` and ``bounds`` streams,
    checked against what :func:`dump_bytes` writes; ``ValueError`` on any
    mismatch."""
    streams = []
    for name, dtype in _STREAM_DTYPES.items():
        stream = data[f"g{node}_{name}"]
        if stream.dtype != dtype or stream.ndim != 1:
            raise ValueError(f"GPU {node} {name}: {stream.dtype} stream of shape {stream.shape}")
        streams.append(stream)
    gaps, addrs, writes, bounds = streams
    n = len(gaps)
    if len(addrs) != n or len(writes) != n:
        raise ValueError(f"GPU {node}: streams of unequal length")
    if not len(bounds) or bounds[0] != 0 or bounds[-1] != n or (np.diff(bounds) < 0).any():
        raise ValueError(f"GPU {node}: lane bounds do not split its {n} accesses")
    if (gaps < 0).any():
        raise ValueError(f"GPU {node}: negative gap")
    if ((writes < 0) | (writes > 1)).any():
        raise ValueError(f"GPU {node}: a write flag other than 0 or 1")
    return streams


def _copied(typecode: str, stream: np.ndarray) -> array:
    """A contiguous stream slice copied byte for byte into a new typed array."""
    out = array(typecode)
    out.frombytes(memoryview(stream).cast("B"))
    return out


def load_bytes(blob: bytes) -> CompiledTrace:
    """Inverse of :func:`dump_bytes`.  Raises ``ValueError`` on any mismatch
    (wrong schema, truncated file, a malformed stream) so callers can treat
    it as a store miss."""
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            if header.get("schema") != TRACE_SCHEMA:
                raise ValueError(f"trace schema {header.get('schema')} != {TRACE_SCHEMA}")
            gpu_traces: dict[int, CompiledGpuTrace] = {}
            for node_str, meta in header["gpus"].items():
                node = int(node_str)
                gaps, addrs, writes, bounds = _checked_streams(data, node)
                bounds = bounds.tolist()
                lanes = tuple(
                    CompiledLane(
                        _copied("q", gaps[lo:hi]),
                        _copied("q", addrs[lo:hi]),
                        _copied("b", writes[lo:hi]),
                    )
                    for lo, hi in zip(bounds, bounds[1:])
                )
                gpu_traces[node] = CompiledGpuTrace(lanes, int(meta["instructions"]))
            return CompiledTrace(
                name=header["name"],
                gpu_traces=gpu_traces,
                pinned_pages=frozenset(header["pinned_pages"]),
                initial_owners={int(k): v for k, v in header["initial_owners"].items()},
            )
    except (
        KeyError,
        OSError,
        EOFError,
        json.JSONDecodeError,
        zipfile.BadZipFile,
    ) as exc:
        raise ValueError(f"unreadable compiled trace: {exc}") from exc


__all__ = [
    "TRACE_SCHEMA",
    "CompiledLane",
    "CompiledGpuTrace",
    "CompiledTrace",
    "dump_bytes",
    "load_bytes",
]

"""The trace format: immutable per-lane integer streams.

:class:`CompiledTrace` is the one trace format.  Generators emit it through
:class:`~repro.workloads.builder.TraceBuilder` and the device pump replays
it: per-(GPU, lane) parallel tuples of plain integers — ``gaps``,
``addrs``, ``writes`` — indexed directly, so no per-access object exists
anywhere between generation and replay.

Traces also serialize compactly to ``.npz`` (one numpy array per per-GPU
stream plus a JSON header), which is what the content-addressed trace
store persists so a sweep generates each trace once and every scheme —
and every pool worker — replays the same bytes.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

#: Bump when the compiled layout (not the traced behavior) changes; folded
#: into trace-store keys so old files simply stop being found.
TRACE_SCHEMA = 1


class CompiledLane:
    """One lane's access stream as three parallel integer tuples."""

    __slots__ = ("gaps", "addrs", "writes")

    def __init__(
        self, gaps: tuple[int, ...], addrs: tuple[int, ...], writes: tuple[int, ...]
    ) -> None:
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
        gaps = [g for lane in gpu_trace.lanes for g in lane.gaps]
        addrs = [a for lane in gpu_trace.lanes for a in lane.addrs]
        writes = [w for lane in gpu_trace.lanes for w in lane.writes]
        arrays[f"g{node}_gaps"] = np.asarray(gaps, dtype=np.int64)
        arrays[f"g{node}_addrs"] = np.asarray(addrs, dtype=np.int64)
        arrays[f"g{node}_writes"] = np.asarray(writes, dtype=np.int8)
        arrays[f"g{node}_bounds"] = np.asarray(bounds, dtype=np.int64)
        header["gpus"][str(node)] = {"instructions": gpu_trace.instructions}
    arrays["header"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def load_bytes(blob: bytes) -> CompiledTrace:
    """Inverse of :func:`dump_bytes`.  Raises ``ValueError`` on any mismatch
    (wrong schema, truncated file) so callers can treat it as a store miss."""
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            if header.get("schema") != TRACE_SCHEMA:
                raise ValueError(f"trace schema {header.get('schema')} != {TRACE_SCHEMA}")
            gpu_traces: dict[int, CompiledGpuTrace] = {}
            for node_str, meta in header["gpus"].items():
                node = int(node_str)
                gaps = data[f"g{node}_gaps"].tolist()
                addrs = data[f"g{node}_addrs"].tolist()
                writes = data[f"g{node}_writes"].tolist()
                bounds = data[f"g{node}_bounds"].tolist()
                lanes = tuple(
                    CompiledLane(
                        tuple(gaps[lo:hi]), tuple(addrs[lo:hi]), tuple(writes[lo:hi])
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

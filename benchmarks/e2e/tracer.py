"""Outside-in host-time tracer for the end-to-end benchmark.

:class:`Tracer` wraps the entry points of each simulator layer — class
attributes of the package's public classes — from benchmark code, so
nothing under ``src/`` changes.  A span stack gives every layer its *self*
time: a span's duration minus the time covered by the spans it opened.
Event callbacks handed to the simulator and delivery handlers handed to a
transport are wrapped as well and billed to the layer of the file that
defines them; without that, device work dispatched by the engine or by the
secure channel would be billed to the dispatcher.

Spans are aggregated per :class:`Scope` — one per simulated cell (the
``execute_job`` call) plus one for everything outside cells — so a
million events never become a million stored spans.  Counts taken at the
same boundaries (cache hits, TLB walks, trace-store sources) land in the
same scope, so ratios are measured where the work happens.

A layer is the package under ``repro`` that defines the code: ``sim``,
``gpu``, ``memory``, ``interconnect``, ``secure`` (with ``crypto``),
``core``, ``runner``, ``workloads``, and ``system`` for ``system.py``.
Anything else is ``other``.
"""

from __future__ import annotations

from functools import partial, wraps
from pathlib import Path
from time import perf_counter

LAYERS = (
    "sim",
    "gpu",
    "memory",
    "interconnect",
    "secure",
    "core",
    "system",
    "runner",
    "workloads",
    "other",
)

_PACKAGE_LAYER = {
    "sim": "sim",
    "gpu": "gpu",
    "memory": "memory",
    "interconnect": "interconnect",
    "secure": "secure",
    "crypto": "secure",
    "core": "core",
    "runner": "runner",
    "workloads": "workloads",
}


def layer_of_file(path: str) -> str:
    """The layer that owns the source file ``path``."""
    parts = Path(path).parts
    if "repro" not in parts:
        return "other"
    rest = parts[len(parts) - parts[::-1].index("repro") :]
    if rest == ("system.py",):
        return "system"
    if len(rest) > 1:
        return _PACKAGE_LAYER.get(rest[0], "other")
    return "other"


def _code_of(fn):
    """The code object that runs when ``fn`` is called, or None."""
    while isinstance(fn, partial):
        fn = fn.func
    code = getattr(fn, "__code__", None)  # functions, lambdas, bound methods
    if code is None:
        code = getattr(getattr(type(fn), "__call__", None), "__code__", None)
    return code


class Scope:
    """Per-layer self time and span count, plus boundary counts."""

    __slots__ = ("layers", "counts")

    def __init__(self) -> None:
        self.layers: dict[str, list] = {layer: [0.0, 0] for layer in LAYERS}
        self.counts: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def as_dict(self) -> dict:
        return {
            "layers": {k: v for k, v in self.layers.items() if v[1]},
            "counts": dict(self.counts),
        }


class Tracer:
    """Span stack plus the wrappers that feed it.

    ``install()`` patches the classes; ``uninstall()`` restores every
    patched attribute, so a test can trace in-process.
    """

    def __init__(self) -> None:
        self.scope = Scope()
        self._stack: list[list[float]] = [[0.0]]  # root frame: never popped
        self._layer_by_code: dict = {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, layer: str, fn, args: tuple):
        """Call ``fn(*args)`` as one span of ``layer``."""
        stack = self._stack
        frame = [0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            stack[-1][0] += elapsed
            acc = self.scope.layers[layer]
            acc[0] += elapsed - frame[0]
            acc[1] += 1

    def run_cell(self, fn, args: tuple, kwargs: dict):
        """Run one cell in a fresh scope; returns ``(result, scope)``."""
        outer = self.scope
        self.scope = cell = Scope()
        try:
            result = self.span(self.layer_of(fn), partial(fn, **kwargs), args)
        finally:
            self.scope = outer
        return result, cell

    def layer_of(self, fn) -> str:
        code = _code_of(fn)
        layer = self._layer_by_code.get(code)
        if layer is None:
            layer = layer_of_file(code.co_filename) if code is not None else "other"
            self._layer_by_code[code] = layer
        return layer

    def bind(self, fn):
        """``fn`` wrapped as a span of the layer that defines it."""
        layer = self.layer_of(fn)
        span = self.span

        def traced(*args):
            return span(layer, fn, args)

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def wrap(self, cls, name: str, observe=None) -> None:
        """Make every call of ``cls.name`` a span; ``observe(args, result)``
        runs after it to take counts."""
        original = getattr(cls, name)
        layer = self.layer_of(original)
        span = self.span

        if observe is None:

            @wraps(original)
            def wrapper(*args, **kwargs):
                fn = partial(original, **kwargs) if kwargs else original
                return span(layer, fn, args)

        else:

            @wraps(original)
            def wrapper(*args, **kwargs):
                fn = partial(original, **kwargs) if kwargs else original
                result = span(layer, fn, args)
                observe(args, result)
                return result

        self._patch(cls, name, wrapper)

    def wrap_callback_arg(self, cls, name: str) -> None:
        """Wrap the callable that ``cls.name(key, callable)`` receives, so
        each later call of it is a span (event callbacks, delivery handlers)."""
        original = getattr(cls, name)
        bind = self.bind

        @wraps(original)
        def wrapper(self_, key, callback):
            return original(self_, key, bind(callback))

        self._patch(cls, name, wrapper)

    def install(self) -> "Tracer":
        from repro.core.batching import BatchingController
        from repro.core.dynamic_allocator import DynamicOtpAllocator
        from repro.gpu.cache import SetAssociativeCache
        from repro.gpu.hbm import HbmModel
        from repro.gpu.tlb import TlbHierarchy
        from repro.interconnect.topology import Topology
        from repro.memory.migration import AccessCounterMigrationPolicy
        from repro.memory.page_table import PageTable
        from repro.runner.sweep import SweepRunner
        from repro.runner.trace_store import TraceStore
        from repro.secure.channel import SecureTransport, UnsecureTransport
        from repro.sim.engine import Simulator
        from repro.system import MultiGpuSystem
        from repro.workloads.registry import WorkloadSpec

        self.wrap(Simulator, "run")
        for name in ("post", "post_at", "schedule", "schedule_at"):
            self.wrap_callback_arg(Simulator, name)
        for cls in (SecureTransport, UnsecureTransport):
            self.wrap_callback_arg(cls, "register")
            self.wrap(cls, "send")
        self.wrap(SetAssociativeCache, "lookup", observe=self._count_cache)
        self.wrap(SetAssociativeCache, "fill")
        self.wrap(SetAssociativeCache, "invalidate_page")
        self.wrap(TlbHierarchy, "translate", observe=self._count_tlb)
        self.wrap(TlbHierarchy, "shootdown")
        self.wrap(HbmModel, "access")
        self.wrap(PageTable, "owner")
        self.wrap(AccessCounterMigrationPolicy, "on_remote_access")
        self.wrap(AccessCounterMigrationPolicy, "commit_migration")
        for name in ("send", "path", "quarantine"):
            self.wrap(Topology, name)
        self.wrap(BatchingController, "add_block")
        self.wrap(BatchingController, "timeout_close")
        self.wrap(DynamicOtpAllocator, "maybe_adjust")
        # __init__ too: building the machine is system work, not the
        # runner's, even though execute_job is the span that calls it.
        self.wrap(MultiGpuSystem, "__init__")
        self.wrap(MultiGpuSystem, "run")
        self.wrap(SweepRunner, "run_jobs")
        self._wrap_store_load(TraceStore)
        self.wrap(WorkloadSpec, "generate")
        return self

    def uninstall(self) -> None:
        for owner, name, previous in reversed(self._patched):
            if previous is None:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Boundary counts
    # ------------------------------------------------------------------
    def _count_cache(self, args, hit: bool) -> None:
        level = "l2" if args[0].name.endswith(".l2") else "l1"
        scope = self.scope
        scope.count(f"{level}.lookups")
        if hit:
            scope.count(f"{level}.hits")

    def _count_tlb(self, args, result) -> None:
        scope = self.scope
        scope.count("tlb.translations")
        if result[1]:
            scope.count("tlb.walks")

    def _wrap_store_load(self, cls) -> None:
        """``get_or_generate`` as a span, plus its inclusive time and the
        source it served from (``disk`` / ``memo`` / ``generated``)."""
        original = cls.get_or_generate
        layer = self.layer_of(original)
        span = self.span

        @wraps(original)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            trace, source = span(layer, partial(original, **kwargs), args)
            scope = self.scope
            scope.count("store.load_s", perf_counter() - start)
            scope.count(f"store.{source}")
            return trace, source

        self._patch(cls, "get_or_generate", wrapper)


__all__ = ["LAYERS", "Scope", "Tracer", "layer_of_file"]

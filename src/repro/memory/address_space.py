"""Single unified address space shared by the CPU and all GPUs.

Workload generators allocate named arrays here; each allocation chooses a
*placement* that decides which processor's memory initially owns each page.
Placements mirror how real multi-GPU allocators distribute unified memory:

* ``OWNER``       — all pages on one node (e.g. input staged in CPU DRAM)
* ``INTERLEAVED`` — pages round-robined across GPUs (default for big arrays)
* ``BLOCKED``     — contiguous page ranges per GPU (owner-computes tiling)

Addresses are plain integers; 64 B blocks and 4 KB pages match Table III's
cacheline-granularity sharing and page-migration unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

BLOCK_BYTES = 64
PAGE_BYTES = 4096
BLOCKS_PER_PAGE = PAGE_BYTES // BLOCK_BYTES


def page_of(address: int) -> int:
    return address // PAGE_BYTES


def block_of(address: int) -> int:
    return address // BLOCK_BYTES


class Placement(Enum):
    OWNER = "owner"
    INTERLEAVED = "interleaved"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class ArrayHandle:
    """A named allocation in the unified address space."""

    name: str
    base: int
    size_bytes: int
    placement: Placement
    owner: int | None  # only for Placement.OWNER

    @property
    def n_pages(self) -> int:
        return (self.size_bytes + PAGE_BYTES - 1) // PAGE_BYTES

    @property
    def n_blocks(self) -> int:
        return (self.size_bytes + BLOCK_BYTES - 1) // BLOCK_BYTES

    def addr(self, byte_offset: int) -> int:
        """Absolute address of a byte offset into the array."""
        if byte_offset < 0 or byte_offset >= self.size_bytes:
            raise IndexError(f"offset {byte_offset} outside array {self.name}")
        return self.base + byte_offset

    def block_addr(self, block_index: int) -> int:
        """Absolute address of the i-th 64 B block of the array."""
        return self.addr(block_index * BLOCK_BYTES)


class AddressSpace:
    """Allocates page-aligned arrays and assigns initial page owners."""

    def __init__(self, gpu_nodes: list[int], cpu_node: int = 0) -> None:
        if not gpu_nodes:
            raise ValueError("need at least one GPU node")
        self.gpu_nodes = list(gpu_nodes)
        self.cpu_node = cpu_node
        self._next_base = PAGE_BYTES  # keep address 0 unused
        self._arrays: dict[str, ArrayHandle] = {}
        self._page_owner: dict[int, int] = {}

    def alloc(
        self,
        name: str,
        size_bytes: int,
        placement: Placement = Placement.INTERLEAVED,
        owner: int | None = None,
    ) -> ArrayHandle:
        if name in self._arrays:
            raise ValueError(f"array {name!r} already allocated")
        if size_bytes <= 0:
            raise ValueError("array size must be positive")
        if placement is Placement.OWNER and owner is None:
            raise ValueError("OWNER placement requires an owner node")
        handle = ArrayHandle(name, self._next_base, size_bytes, placement, owner)
        n_pages = handle.n_pages
        self._next_base += n_pages * PAGE_BYTES
        first_page = page_of(handle.base)
        for i in range(n_pages):
            self._page_owner[first_page + i] = self._owner_for(placement, owner, i, n_pages)
        self._arrays[name] = handle
        return handle

    def _owner_for(self, placement: Placement, owner: int | None, index: int, n_pages: int) -> int:
        if placement is Placement.OWNER:
            assert owner is not None
            return owner
        if placement is Placement.INTERLEAVED:
            return self.gpu_nodes[index % len(self.gpu_nodes)]
        # BLOCKED: contiguous, evenly split ranges
        per_gpu = max(1, (n_pages + len(self.gpu_nodes) - 1) // len(self.gpu_nodes))
        return self.gpu_nodes[min(index // per_gpu, len(self.gpu_nodes) - 1)]

    def initial_owners(self) -> dict[int, int]:
        return dict(self._page_owner)


__all__ = [
    "AddressSpace",
    "ArrayHandle",
    "BLOCK_BYTES",
    "PAGE_BYTES",
    "BLOCKS_PER_PAGE",
    "Placement",
    "block_of",
    "page_of",
]

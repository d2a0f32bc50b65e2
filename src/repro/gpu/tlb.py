"""Per-GPU TLB hierarchy with IOMMU fallback.

Table III's organization: each CU has a private L1 TLB, a shared L2 TLB per
GPU, and misses walk to the CPU-side IOMMU (over PCIe).  The model is
fully-associative LRU on page numbers; shootdowns on migration invalidate
entries.  :meth:`TlbHierarchy.translate` returns the L1/L2 lookup delay of
an access and whether it needs an IOMMU walk, but the device model
(``GpuDevice._handle_access``) discards that delay: an access is charged
``GpuConfig.iommu_walk_cycles`` when it walks and no translation cycles
otherwise.
"""

from __future__ import annotations

from repro.memory.address_space import PAGE_BYTES


class Tlb:
    """Fully-associative LRU TLB over page numbers."""

    def __init__(self, name: str, n_entries: int) -> None:
        if n_entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self.name = name
        self.n_entries = n_entries
        self._entries: dict[int, int] = {}
        self._stamp = 0

    def lookup(self, page: int) -> bool:
        self._stamp += 1
        if page in self._entries:
            self._entries[page] = self._stamp
            return True
        return False

    def fill(self, page: int) -> None:
        self._stamp += 1
        if page not in self._entries and len(self._entries) >= self.n_entries:
            victim = min(self._entries, key=self._entries.get)
            del self._entries[victim]
        self._entries[page] = self._stamp

    def invalidate(self, page: int) -> bool:
        return self._entries.pop(page, None) is not None


class TlbHierarchy:
    """L1 + L2 TLB with cycle costs; the IOMMU walk cost is charged by the caller.

    ``translate`` returns the translation delay in cycles and whether an
    IOMMU walk is required (the walk's interconnect round trip is modeled by
    the caller since it crosses the PCIe link).
    """

    def __init__(
        self,
        name: str,
        l1_entries: int = 64,
        l2_entries: int = 1024,
        l1_latency: int = 1,
        l2_latency: int = 10,
    ) -> None:
        self.l1 = Tlb(f"{name}.l1tlb", l1_entries)
        self.l2 = Tlb(f"{name}.l2tlb", l2_entries)
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency

    def translate(self, address: int) -> tuple[int, bool]:
        """Return ``(delay_cycles, needs_iommu_walk)`` for ``address``."""
        page = address // PAGE_BYTES
        # the L1 hit, inlined (Tlb.lookup): most translations end here
        l1 = self.l1
        l1._stamp += 1
        entries = l1._entries
        if page in entries:
            entries[page] = l1._stamp
            return self.l1_latency, False
        if self.l2.lookup(page):
            self.l1.fill(page)
            return self.l1_latency + self.l2_latency, False
        self.l2.fill(page)
        self.l1.fill(page)
        return self.l1_latency + self.l2_latency, True

    def shootdown(self, page: int) -> None:
        """Invalidate one page's translation (migration shootdown)."""
        self.l1.invalidate(page)
        self.l2.invalidate(page)


__all__ = ["Tlb", "TlbHierarchy"]

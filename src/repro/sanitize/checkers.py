"""The standard runtime checkers: buddy heap, CTA zones, monotonicity, NSR.

Each checker guards one of the invariants the paper's defense depends on.
They are registered by :func:`repro.sanitize.install` and receive the
mutation events emitted by the instrumented layers:

========================  ====================================================
event                     context fields
========================  ====================================================
``buddy.alloc``           ``allocator``, ``pfn`` (absolute head), ``order``
``buddy.free``            ``allocator``, ``pfn``, ``order``
``buddy.prepare_alloc``   ``allocator``, ``order`` (pre-commit; fault plane)
``kernel.page_alloc``     ``kernel``, ``pfn``, ``use``, ``order``,
                          ``pt_level``, ``downgraded``
``kernel.page_free``      ``kernel``, ``pfn``
``dram.bit_flip``         ``module``, ``address``, ``bit``, ``old``, ``new``
``rowhammer.hammer``      ``hammer``, ``module``, ``outcome``
``mmu.translate``         ``mmu``, ``pid``, ``pfn``, ``user``
``attack.campaign``       ``kernel``, ``hammer``, ``kind``, ``outcome``
========================  ====================================================

Checkers filter on object identity (``allocator is ...``, ``kernel is
...``) because the process-wide suite receives events from *every* live
kernel, and a checker must only judge the system it was installed for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Tuple

import numpy as np

from repro import obs
from repro.dram.cells import CellType
from repro.errors import KernelError, ZoneViolationError
from repro.kernel.page import PageUse
from repro.kernel.pagetable import PageTableEntry
from repro.obs.metrics import label_key
from repro.units import PAGE_SHIFT, PTE_SIZE, PTES_PER_PAGE

from repro.sanitize import Sanitizer

if TYPE_CHECKING:
    from repro.kernel.buddy import BuddyAllocator
    from repro.kernel.kernel import Kernel

#: PTE bits holding the frame pointer on x86-64 (bits 12..51 inclusive).
_PFN_FIELD_LOW = 12
_PFN_FIELD_HIGH = 51


class BuddyHeapSanitizer(Sanitizer):
    """Buddy-heap consistency: no double-free, no overlap, no drift.

    Keeps a shadow map of live blocks (seeded from the allocator's record
    at installation) so a block freed twice — or handed out twice — is
    caught at the faulting call even if the allocator's own bookkeeping
    has been corrupted into accepting it. Every event also gets cheap
    bounds/alignment/conservation checks plus a cross-check of the
    allocator's free count against the ``buddy.free_pages`` gauge in
    :mod:`repro.obs`; every ``full_every`` events the allocator's full
    overlap/conservation sweep runs too.
    """

    name = "buddy_heap"
    events = ("buddy.alloc", "buddy.free")

    def __init__(self, allocator: "BuddyAllocator", full_every: int = 64):
        self._allocator = allocator
        self._full_every = max(0, full_every)
        self._events_seen = 0
        # Shadow live-block map: relative head -> order.
        self._live: Dict[int, int] = dict(allocator._allocated)

    def handle(self, event: str, ctx: Mapping[str, object]) -> None:
        allocator = self._allocator
        if ctx.get("allocator") is not allocator:
            return
        pfn = int(ctx["pfn"])  # type: ignore[call-overload]
        order = int(ctx["order"])  # type: ignore[call-overload]
        relative = pfn - allocator.start_pfn
        span = 1 << order
        if relative < 0 or relative + span > allocator.total_pages:
            self.violation(
                f"block [{pfn}, {pfn + span}) outside zone "
                f"[{allocator.start_pfn}, {allocator.end_pfn})",
                event,
            )
        if relative % span:
            self.violation(
                f"block head pfn {pfn} misaligned for order {order}", event
            )
        if event == "buddy.alloc":
            if relative in self._live:
                self.violation(
                    f"allocator handed out pfn {pfn}, which is already live "
                    f"(order {self._live[relative]})",
                    event,
                )
            if relative not in allocator._allocated:
                self.violation(
                    f"allocated block at pfn {pfn} missing from the "
                    "allocation record",
                    event,
                )
            self._live[relative] = order
        else:
            if relative not in self._live:
                self.violation(f"double free of block at pfn {pfn}", event)
            if relative in allocator._allocated:
                self.violation(
                    f"freed block at pfn {pfn} still present in the "
                    "allocation record",
                    event,
                )
            del self._live[relative]
        free = allocator.free_pages
        if free + allocator.allocated_pages != allocator.total_pages:
            self.violation(
                f"page conservation violated in zone {allocator.name or '?'}: "
                f"{free} free + {allocator.allocated_pages} allocated != "
                f"{allocator.total_pages} total",
                event,
            )
        self._check_gauge(free, event)
        self._events_seen += 1
        if self._full_every and self._events_seen % self._full_every == 0:
            self.check_all()

    def _check_gauge(self, free: int, event: str) -> None:
        """Cross-check the allocator's free count against ``repro.obs``."""
        if not self._allocator.name:
            return
        registry = obs.get_registry()
        if not registry.enabled:
            return
        gauge = registry.gauge("buddy.free_pages")
        key = label_key({"zone": self._allocator.name})
        series = gauge.series()
        if key in series and series[key] != free:
            self.violation(
                f"free-page gauge drift in zone {self._allocator.name}: "
                f"obs records {series[key]:.0f}, allocator has {free}",
                event,
            )

    def check_all(self) -> None:
        allocator = self._allocator
        try:
            allocator.check_invariants()
        except KernelError as exc:
            self.violation(str(exc), "check_all")
        if set(self._live) != set(allocator._allocated):
            self.violation(
                "shadow live-block map diverged from the allocation record "
                f"in zone {allocator.name or '?'}",
                "check_all",
            )


class ZoneContainmentSanitizer(Sanitizer):
    """CTA Rules 1/2 on every allocation: PTP frames stay above the mark.

    Rule 1: a page-table frame below the low water mark means a PTP
    request leaked into an ordinary zone. Rule 2: any other allocation at
    or above the mark means attacker-reachable data entered ZONE_PTP.
    Inert on stock kernels (no policy, nothing to contain). The full
    sweep defers to :meth:`CtaPolicy.check_rules`, which also validates
    the invalid anti-cell ranges.
    """

    name = "zone_containment"
    events = ("kernel.page_alloc",)

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel

    def handle(self, event: str, ctx: Mapping[str, object]) -> None:
        if ctx.get("kernel") is not self._kernel:
            return
        policy = self._kernel.cta_policy
        if policy is None:
            return
        pfn = int(ctx["pfn"])  # type: ignore[call-overload]
        use = ctx["use"]
        mark_pfn = policy.low_water_mark_pfn
        if use is PageUse.PAGE_TABLE:
            if pfn < mark_pfn:
                if ctx.get("downgraded") or pfn in self._kernel.downgraded_pt_pfns:
                    self.acknowledge_downgrade()
                    return
                self.violation(
                    f"Rule 1 violated: page table allocated at pfn {pfn}, "
                    f"below the low water mark (pfn {mark_pfn})",
                    event,
                )
        elif use is not PageUse.RESERVED and pfn >= mark_pfn:
            self.violation(
                f"Rule 2 violated: {getattr(use, 'value', use)} frame "
                f"allocated at pfn {pfn}, inside ZONE_PTP (mark pfn {mark_pfn})",
                event,
            )

    def check_all(self) -> None:
        policy = self._kernel.cta_policy
        if policy is None:
            return
        try:
            policy.check_rules(
                self._kernel.page_db,
                acknowledged_downgrades=self._kernel.downgraded_pt_pfns,
            )
        except ZoneViolationError as exc:
            self.violation(str(exc), "check_all")


class MonotonicPointerSanitizer(Sanitizer):
    """No true-cell flip may *increase* a stored PTE pointer.

    The paper's core physical claim: true-cells leak ``1 -> 0`` only, so
    a flip in a page-table frame placed in true-cells can only move the
    PTE's frame pointer downward. A ``0 -> 1`` flip landing in the PFN
    field (bits 12..51) of a PTE stored in a true-cell page-table frame
    is exactly the event the defense assumes impossible — this checker
    turns it into an immediate violation. Covers both direct
    :meth:`DramModule.flip_bit` calls and the statistical hammer model's
    batched flips.
    """

    name = "monotonic_pointer"
    events = ("dram.bit_flip", "rowhammer.hammer")

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel

    def handle(self, event: str, ctx: Mapping[str, object]) -> None:
        if ctx.get("module") is not self._kernel.module:
            return
        if self._kernel.cta_policy is None:
            return
        if event == "dram.bit_flip":
            self._check_flip(
                int(ctx["address"]),  # type: ignore[call-overload]
                int(ctx["bit"]),  # type: ignore[call-overload]
                int(ctx["old"]),  # type: ignore[call-overload]
                int(ctx["new"]),  # type: ignore[call-overload]
                event,
            )
            return
        # Only upward flips into page-table frames can violate; select them
        # (one page-table lookup per distinct frame), then check each in
        # flip order, since a check reads DRAM (a fault event) and may raise.
        flips = ctx["outcome"].flips  # type: ignore[attr-defined]
        upward = np.flatnonzero(flips.new > flips.old)
        if upward.size == 0:
            return
        pfns = flips.address[upward] >> PAGE_SHIFT
        table_pfns = [
            pfn for pfn in np.unique(pfns).tolist() if self._kernel.is_page_table_pfn(pfn)
        ]
        if not table_pfns:
            return
        suspects = upward[np.isin(pfns, table_pfns)]
        for address, bit, old, new in zip(
            *(column[suspects].tolist() for column in flips.columns)
        ):
            self._check_flip(address, bit, old, new, event)

    def _check_flip(
        self, address: int, bit: int, old: int, new: int, event: str
    ) -> None:
        if new <= old:
            return  # 1 -> 0 (or no-op): monotone by definition
        kernel = self._kernel
        pfn = address >> PAGE_SHIFT
        if not kernel.is_page_table_pfn(pfn):
            return
        if pfn in kernel.downgraded_pt_pfns:
            # Screened-fallback frames sit outside ZONE_PTP's true-cell
            # guarantee; their exposure is the counted downgrade itself.
            self.acknowledge_downgrade()
            return
        module = kernel.module
        row = module.geometry.row_of_address(address)
        if module.cell_map is None:
            return
        if module.cell_map.type_of_row(row) is not CellType.TRUE:
            return
        entry_address = address & ~(PTE_SIZE - 1)
        word_bit = (address - entry_address) * 8 + bit
        if not _PFN_FIELD_LOW <= word_bit <= _PFN_FIELD_HIGH:
            return  # flag/ignored bits do not move the pointer
        raw_after = module.read_u64(entry_address)
        pfn_after = PageTableEntry.decode(raw_after).pfn
        pfn_before = PageTableEntry.decode(raw_after ^ (1 << word_bit)).pfn
        self.violation(
            f"monotonicity violated: 0->1 flip at PA {address:#x} bit {bit} "
            f"(PTE bit {word_bit}) raised the stored pointer "
            f"{pfn_before:#x} -> {pfn_after:#x} in a true-cell page-table frame",
            event,
        )

    def check_all(self) -> None:
        policy = self._kernel.cta_policy
        if policy is not None and not policy.ptes_are_monotonic():
            self.violation(
                "ZONE_PTP spans non-true-cell rows; stored PTE pointers are "
                "not monotonic under RowHammer",
                "check_all",
            )


class NoSelfReferenceSanitizer(Sanitizer):
    """The No-Self-Reference property: leaf PTEs never map page tables.

    After every hammer campaign (the ``attack.campaign`` event) the full
    sweep scans every present entry of every last-level page table; a
    pointer landing on *any* page-table frame would hand the owning
    process a writable window onto live page tables — the exposure every
    PTE-based privilege escalation needs. The ``mmu.translate`` event
    additionally catches the moment such a window is actually used: a
    user-mode translation must never resolve to a page-table frame.
    Intermediate (level >= 2) entries legitimately point at page tables
    and are exempt, matching the paper's theorem statement.
    """

    name = "no_self_reference"
    events = ("attack.campaign", "mmu.translate")

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel

    def handle(self, event: str, ctx: Mapping[str, object]) -> None:
        kernel = self._kernel
        if event == "mmu.translate":
            if ctx.get("mmu") is not kernel.mmu or not ctx.get("user"):
                return
            pfn = int(ctx["pfn"])  # type: ignore[call-overload]
            if kernel.is_page_table_pfn(pfn):
                if pfn in kernel.downgraded_pt_pfns:
                    self.acknowledge_downgrade()
                    return
                self.violation(
                    f"user-mode translation resolved to page-table pfn {pfn}: "
                    "a PTE self-reference window is live",
                    event,
                )
            return
        if ctx.get("kernel") is not kernel:
            return
        self.check_all()

    def check_all(self) -> None:
        kernel = self._kernel
        module = kernel.module
        page_table_pfns = set(kernel.page_table_pfns())
        for frame in kernel.page_db.frames_with_use(PageUse.PAGE_TABLE):
            if frame.pt_level != 1:
                continue
            base = frame.pfn << PAGE_SHIFT
            for slot in range(PTES_PER_PAGE):
                raw = module.read_u64(base + slot * PTE_SIZE)
                if not raw & 1:
                    continue
                target = PageTableEntry.decode(raw).pfn
                if target in page_table_pfns:
                    if target in kernel.downgraded_pt_pfns:
                        self.acknowledge_downgrade()
                        continue
                    self.violation(
                        "No-Self-Reference violated: leaf PTE at "
                        f"{base + slot * PTE_SIZE:#x} points at page-table "
                        f"pfn {target}",
                        "attack.campaign",
                    )


#: The checkers :func:`repro.sanitize.install` wires up, for reference.
STANDARD_CHECKERS: Tuple[type, ...] = (
    BuddyHeapSanitizer,
    ZoneContainmentSanitizer,
    MonotonicPointerSanitizer,
    NoSelfReferenceSanitizer,
)

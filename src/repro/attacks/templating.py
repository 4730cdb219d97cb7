"""Drammer-style deterministic RowHammer attack via memory templating [37].

The deterministic recipe:

1. **Template** — the attacker hammers rows holding its own pages and
   records exactly which bits flip and in which direction (a *template*).
2. **Select** — it picks a template whose flip, applied to a PTE slot,
   would redirect the PTE's frame pointer to a page the attacker controls
   or to another page table (self-reference).
3. **Massage** — it releases the templated page and coaxes the allocator
   into storing a victim page table there (predictable buddy reuse).
4. **Replay** — it hammers the same row again; the now-resident PTE flips
   exactly as templated.

Under CTA the chain is cut at step 3: page tables can only be placed in
``ZONE_PTP``, which the attacker can neither map nor template (Property 1
of the low water mark), so no template can ever coincide with a page
table. The attack reports ``BLOCKED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

import numpy as np

from repro import obs, sanitize
from repro.attacks.base import AttackOutcome, AttackResult
from repro.attacks.escalation import attempt_escalation, find_self_references
from repro.attacks.spray import SPRAY_BASE, PT_COVERAGE
from repro.attacks.timing import AttackTimingModel
from repro.dram.rowhammer import RowHammerModel
from repro.errors import OutOfMemoryError
from repro.kernel.kernel import Kernel
from repro.kernel.pagetable import PageTableEntry
from repro.kernel.process import Process
from repro.payload import (
    PayloadContext,
    PayloadProgram,
    compile_program,
    hammer_sweep,
    iter_steps,
    single_burst,
)
from repro.units import PAGE_SHIFT, PAGE_SIZE, PTE_SIZE


@dataclass(frozen=True)
class FlipTemplate:
    """One observed repeatable flip inside an attacker-owned page."""

    row: int
    #: The aggressor row whose hammering produced this flip; replaying the
    #: template means hammering this row again.
    aggressor_row: int
    pfn: int
    byte_in_page: int
    bit: int
    from_value: int
    to_value: int

    @property
    def pte_slot(self) -> int:
        """Which 8-byte PTE slot of the page the flip falls in."""
        return self.byte_in_page // PTE_SIZE

    @property
    def bit_in_pte(self) -> int:
        """Bit position within the 64-bit PTE word."""
        return (self.byte_in_page % PTE_SIZE) * 8 + self.bit


@dataclass
class TemplatingAttack:
    """Deterministic attack instance."""

    kernel: Kernel
    hammer: RowHammerModel
    timing: AttackTimingModel = AttackTimingModel()
    #: Hammer programs this instance compiled and executed, in order.
    executed_payloads: List[PayloadProgram] = field(default_factory=list)

    def run(
        self,
        attacker: Process,
        template_buffer_bytes: int = 4 * 1024 * 1024,
        max_massage_attempts: int = 64,
    ) -> AttackResult:
        """Template, massage, replay. Returns the outcome and accounting."""
        obs.inc("attack.attempts", kind="templating")
        result = AttackResult(outcome=AttackOutcome.FAILED)
        templates = self._template_phase(attacker, template_buffer_bytes, result)
        if not templates:
            result.outcome = AttackOutcome.BLOCKED
            result.detail = (
                "templating produced no usable flips in attacker-reachable rows"
            )
            return self._finish(result)

        usable = [t for t in templates if self._useful_for_pte(t)]
        if not usable:
            result.detail = "no template hits a PTE frame field usefully"
            return self._finish(result)

        # One massage per templated frame: a frame's landing-pad VAs stay
        # mapped after a failed attempt, so a second template in the same
        # page would collide with them — and re-massaging a frame whose
        # VMA was already released cannot succeed anyway.
        massaged_pfns: Set[int] = set()
        for template in usable[:max_massage_attempts]:
            if template.pfn in massaged_pfns:
                continue
            massaged_pfns.add(template.pfn)
            victim_va = self._massage_phase(attacker, template)
            if victim_va is None:
                continue
            replay_program = single_burst(
                "templating-replay", template.aggressor_row
            )
            self.executed_payloads.append(replay_program)
            replay_context = PayloadContext(hammer=self.hammer)
            for burst in iter_steps(
                compile_program(replay_program), replay_context
            ):
                replay = burst.perform()
                result.hammer_rounds += 1
                result.flips_induced += replay.flip_count
                result.modeled_time_s += self.timing.hammer_row_s
            self.kernel.tlb.flush()
            references = find_self_references(self.kernel, attacker, [victim_va])
            if references:
                report = attempt_escalation(self.kernel, attacker, references[0])
                if report.achieved:
                    result.outcome = AttackOutcome.SUCCESS
                    result.corrupted_vas = [victim_va]
                    result.escalated_pid = attacker.pid
                    result.detail = report.detail
                    return self._finish(result)
        if self.kernel.cta_enabled:
            result.outcome = AttackOutcome.BLOCKED
            result.detail = (
                "CTA pins page tables to ZONE_PTP: no page table can land on "
                "an attacker-templated (below-low-water-mark) frame"
            )
        else:
            result.detail = "massage never landed a page table on a templated frame"
        return self._finish(result)

    def _finish(self, result: AttackResult) -> AttackResult:
        """Record the terminal outcome before handing the result back."""
        obs.inc("attack.outcomes", kind="templating", outcome=result.outcome.value)
        sanitize.notify(
            "attack.campaign",
            kernel=self.kernel,
            hammer=self.hammer,
            kind="templating",
            outcome=result.outcome.value,
        )
        return result

    # -- phase 1: templating -------------------------------------------------
    def _template_phase(
        self, attacker: Process, buffer_bytes: int, result: AttackResult
    ) -> List[FlipTemplate]:
        """Hammer attacker-owned rows, recording repeatable flips."""
        kernel = self.kernel
        base = SPRAY_BASE + 8192 * PT_COVERAGE
        # One VMA per page so a single templated frame can later be released
        # without giving up the rest of the buffer (Drammer's landing pads).
        owned_pfns: Set[int] = set()
        if kernel.module.fault_plane_armed:
            # Reference path: per-page mmap/write/touch so per-access
            # fault schedules replay exactly.
            try:
                for page in range(buffer_bytes // PAGE_SIZE):
                    va = base + page * PAGE_SIZE
                    kernel.mmap(attacker, PAGE_SIZE, address=va)
                    kernel.write_virtual(attacker, va, b"\xff" * 8)
                    pa = kernel.touch(attacker, va)  # repro-lint: ignore[RL008] — armed-plane reference path
                    owned_pfns.add(pa >> PAGE_SHIFT)
            except OutOfMemoryError:
                pass
        else:
            owned_pfns = self._template_buffer_batched(attacker, base, buffer_bytes)

        geometry = kernel.module.geometry
        owned_rows = {geometry.row_of_address(pfn << PAGE_SHIFT) for pfn in owned_pfns}
        return self._hammer_owned_rows(owned_rows, owned_pfns, result)

    def _template_buffer_batched(
        self, attacker: Process, base: int, buffer_bytes: int
    ) -> Set[int]:
        """Map and fault the landing-pad buffer through the batched pipeline.

        Maps every single-page VMA first, demand-faults them all via
        :meth:`Kernel.touch_many` (identical buddy allocation order to the
        per-page loop), then stamps the marker word straight into each
        owned frame. Stops at the OOM prefix like the scalar loop.
        """
        kernel = self.kernel
        vas = [
            base + page * PAGE_SIZE for page in range(buffer_bytes // PAGE_SIZE)
        ]
        for va in vas:
            kernel.mmap(attacker, PAGE_SIZE, address=va)
        try:
            pas = kernel.touch_many(
                attacker, np.asarray(vas, dtype=np.int64), write=True
            )
        except OutOfMemoryError as exc:
            pas = list(getattr(exc, "touched", []))
        for pa in pas:
            kernel.module.write(pa, b"\xff" * 8)
        return {pa >> PAGE_SHIFT for pa in pas}

    def _hammer_owned_rows(
        self, owned_rows: Set[int], owned_pfns: Set[int], result: AttackResult
    ) -> List[FlipTemplate]:
        """Hammer each owned row, collecting usable templates."""
        kernel = self.kernel
        geometry = kernel.module.geometry
        templates: List[FlipTemplate] = []
        if not owned_rows:
            return templates
        # The attacker templates rows *it owns*: one burst per owned row,
        # collecting which bits flipped and in which direction.
        program = hammer_sweep("templating-template", sorted(owned_rows))
        self.executed_payloads.append(program)
        context = PayloadContext(hammer=self.hammer)
        owned = np.fromiter(owned_pfns, dtype=np.int64, count=len(owned_pfns))
        for burst in iter_steps(compile_program(program), context):
            outcome = burst.perform()
            row = burst.row
            result.hammer_rounds += 1
            result.modeled_time_s += self.timing.hammer_row_s
            flips = outcome.flips
            # Flips outside attacker pages are unusable.
            usable = flips.select(np.isin(flips.address >> PAGE_SHIFT, owned))
            for flip in usable:
                pfn = flip.address >> PAGE_SHIFT
                templates.append(
                    FlipTemplate(
                        row=geometry.row_of_address(flip.address),
                        aggressor_row=row,
                        pfn=pfn,
                        byte_in_page=flip.address & (PAGE_SIZE - 1),
                        bit=flip.bit,
                        from_value=flip.old,
                        to_value=flip.new,
                    )
                )
                result.flips_induced += 1
        return templates

    # -- phase 2: template selection -----------------------------------------
    def _useful_for_pte(self, template: FlipTemplate) -> bool:
        """Whether the template supports the deterministic self-point trick.

        Drammer's recipe: land a page table at the templated frame ``t``
        and the data frame at ``D = t | (1 << k)``; a ``1 -> 0`` flip of
        pfn bit ``k`` then rewrites the PTE's pointer from ``D`` to ``t``
        itself — the PTE points at its own page table. Requirements:

        - the flip is ``1 -> 0`` (the *dominant* true-cell direction, which
          is why this works so reliably on stock kernels), and
        - it falls in the PFN field (PTE bits 12..51), and
        - bit ``k`` of the templated frame number is 0, so ``D != t``.
        """
        bit = template.bit_in_pte
        if not 12 <= bit <= 51:
            return False
        if not (template.from_value == 1 and template.to_value == 0):
            return False
        k = bit - 12
        return (template.pfn >> k) & 1 == 0

    # -- phase 3: memory massaging ----------------------------------------------
    def _massage_phase(self, attacker: Process, template: FlipTemplate) -> Optional[int]:
        """Steer a page table onto the templated frame (Phys Feng Shui).

        Frees exactly two attacker frames — the templated frame ``t`` for
        the incoming page table, and ``D = t | (1 << k)`` for the data
        page — then faults a fresh 2 MiB region. The kernel's fault path
        allocates the page table first (lowest free frame: ``t``), the
        data page second (``D``). Replaying the template's ``1 -> 0`` flip
        of pfn bit ``k`` then turns the PTE's pointer from ``D`` into
        ``t``: the PTE points at its own page table.

        On a CTA kernel ``pte_alloc_one`` is pinned to ``ZONE_PTP`` and
        can never receive the templated (user-zone) frame, so this returns
        None for every template.
        """
        kernel = self.kernel
        k = template.bit_in_pte - 12
        data_pfn = template.pfn | (1 << k)
        target_vma = self._vma_mapping_pfn(attacker, template.pfn)
        donor_vma = self._vma_mapping_pfn(attacker, data_pfn)
        if target_vma is None or donor_vma is None or target_vma is donor_vma:
            return None

        # Pre-warm the fresh region's upper-level tables *before* releasing
        # the two frames, so the critical fault allocates exactly one page
        # table and one data page. Also drains stray low free frames.
        fresh_base = SPRAY_BASE + (16384 + 2 * template.pfn) * PT_COVERAGE
        warm_base = fresh_base + PT_COVERAGE
        try:
            for filler in range(4):
                kernel.mmap_touch_many(
                    attacker, PAGE_SIZE,
                    address=warm_base + filler * PAGE_SIZE, write=True,
                )
        except OutOfMemoryError:
            return None

        kernel.munmap(attacker, target_vma)
        kernel.munmap(attacker, donor_vma)
        # Choose the page of the fresh region whose PTE slot coincides with
        # the templated bit's slot, so the replayed flip lands in a live PTE.
        fresh_va = fresh_base + template.pte_slot * PAGE_SIZE
        try:
            fresh, _ = kernel.mmap_touch_many(
                attacker, PAGE_SIZE, address=fresh_va, write=True
            )
        except OutOfMemoryError:
            return None
        leaf = kernel.leaf_pte_address(attacker, fresh.start)
        if leaf is None:
            return None
        if (leaf >> PAGE_SHIFT) != template.pfn:
            return None  # the allocator did not reuse the templated frame
        raw = kernel.module.read_u64(leaf)
        if (raw & 1) == 0 or PageTableEntry.decode(raw).pfn != data_pfn:
            return None  # the data page missed its intended frame
        return fresh.start

    def _vma_mapping_pfn(self, attacker: Process, pfn: int) -> Optional["object"]:
        """The attacker VMA whose (single) mapped page occupies ``pfn``."""
        kernel = self.kernel
        for vma in attacker.vmas:
            for page in range(vma.num_pages):
                va = vma.start + page * PAGE_SIZE
                leaf = kernel.leaf_pte_address(attacker, va)
                if leaf is None:
                    continue
                raw = kernel.module.read_u64(leaf)
                if (raw & 1) and PageTableEntry.decode(raw).pfn == pfn:
                    return vma
        return None

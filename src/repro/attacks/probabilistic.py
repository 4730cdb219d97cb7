"""Probabilistic PTE-based privilege escalation (Figure 3, [32]).

The Project-Zero-style attack against a stock kernel:

1. **Spray** — map one file read-write at thousands of 2 MiB-aligned
   addresses, interleaving the mappings with anonymous pages the attacker
   can hammer from. On a stock kernel the buddy allocator serves the
   page-table pages and the attacker's data pages from the same zones, so
   physical memory fills with attacker page tables *sandwiched between*
   attacker-hammerable rows.
2. **Hammer** — double-sided hammer every row adjacent to attacker-owned
   rows; the sprayed page-table rows are among the victims, so flips land
   in PTEs.
3. **Check** — read every sprayed mapping; a page that suddenly reads like
   a page table means a PTE now self-references.
4. **Escalate** — forge PTEs through the exposed window.

Against a CTA kernel the same attack is structurally *blocked*: page
tables live above the low water mark where the attacker cannot place any
of its own rows, so step 2 never disturbs a PTE — the behaviour the paper
reports for the RowHAmmer tool ("it cannot induce errors in the region
above the low water mark ... the attack will always fail").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro import obs, sanitize
from repro.attacks.base import AttackOutcome, AttackResult
from repro.attacks.escalation import attempt_escalation, find_self_references
from repro.attacks.spray import PT_COVERAGE, SPRAY_BASE
from repro.attacks.timing import AttackTimingModel
from repro.dram.rowhammer import RowHammerModel
from repro.errors import OutOfMemoryError
from repro.kernel.kernel import Kernel
from repro.kernel.page import PageUse
from repro.kernel.process import Process
from repro.payload import (
    PayloadContext,
    PayloadProgram,
    compile_program,
    hammer_sweep,
    iter_steps,
)
from repro.units import PAGE_SIZE


@dataclass
class ProbabilisticPteAttack:
    """One attacker instance bound to a kernel and a RowHammer model."""

    kernel: Kernel
    hammer: RowHammerModel
    timing: AttackTimingModel = AttackTimingModel()
    sprayed_vas: List[int] = field(default_factory=list)
    #: All attacker-mapped single pages (sprayed + interleaved anonymous);
    #: the self-reference scan covers every one of them.
    checked_vas: List[int] = field(default_factory=list)
    #: Hammer programs this instance compiled and executed, in order.
    executed_payloads: List[PayloadProgram] = field(default_factory=list)

    def run(
        self,
        attacker: Process,
        spray_mappings: int = 64,
        pages_per_mapping: int = 4,
        interleave_data_pages: int = 2,
        max_rounds: int = 8,
    ) -> AttackResult:
        """Execute the full attack; returns the outcome and accounting.

        ``pages_per_mapping`` controls how many present PTEs each sprayed
        page table holds; ``interleave_data_pages`` how many hammerable
        anonymous pages are allocated between consecutive mappings.
        """
        self.prepare(
            attacker, spray_mappings, pages_per_mapping, interleave_data_pages
        )
        return self.execute(attacker, max_rounds)

    def prepare(
        self,
        attacker: Process,
        spray_mappings: int = 64,
        pages_per_mapping: int = 4,
        interleave_data_pages: int = 2,
    ) -> None:
        """The deterministic setup half of :meth:`run`: record the attempt
        and spray.

        Consumes no hammer randomness, so a prepared world can be frozen
        once (:mod:`repro.perf.snapshot`) and :meth:`execute` replayed
        against it per trial seed.
        """
        obs.inc("attack.attempts", kind="probabilistic_pte")
        self._spray_interleaved(
            attacker, spray_mappings, pages_per_mapping, interleave_data_pages
        )

    def execute(self, attacker: Process, max_rounds: int = 8) -> AttackResult:
        """The seed-dependent half of :meth:`run`: hammer, check, escalate."""
        if not self.sprayed_vas:
            return self._finish(
                AttackResult(
                    outcome=AttackOutcome.FAILED, detail="spray created no mappings"
                )
            )

        victim_rows = self._candidate_victim_rows(attacker)
        if not any(self._is_page_table_row(row) for row in victim_rows):
            return self._finish(
                AttackResult(
                    outcome=AttackOutcome.BLOCKED,
                    detail=(
                        "no attacker-adjacent row contains page tables; the spray "
                        "cannot reach them (low water mark separation)"
                    ),
                )
            )

        # Hammer one row, then immediately check and (if lucky) escalate —
        # the Project Zero loop. Checking after every row keeps collateral
        # damage to the rest of the paging tree from masking a hit. The
        # sweep itself is a compiled payload; the per-burst check/escalate
        # bookkeeping interleaves between its pending steps.
        program = hammer_sweep("probabilistic-hammer", victim_rows)
        self.executed_payloads.append(program)
        compiled = compile_program(program)
        context = PayloadContext(hammer=self.hammer)
        result = AttackResult(outcome=AttackOutcome.BUDGET_EXHAUSTED)
        for _ in range(max_rounds):
            for burst in iter_steps(compiled, context):
                outcome = burst.perform()
                result.hammer_rounds += 1
                result.flips_induced += outcome.flip_count
                result.modeled_time_s += self.timing.hammer_row_s
                if not outcome.flip_count:
                    continue
                self.kernel.tlb.flush()
                references = find_self_references(self.kernel, attacker, self.checked_vas)
                result.ptes_checked += len(self.checked_vas)
                result.modeled_time_s += len(self.checked_vas) * self.timing.check_pte_s
                for reference in references[:8]:
                    report = attempt_escalation(self.kernel, attacker, reference)
                    if report.achieved:
                        result.outcome = AttackOutcome.SUCCESS
                        result.corrupted_vas = [r.virtual_address for r in references]
                        result.escalated_pid = attacker.pid
                        result.detail = report.detail
                        return self._finish(result)
                    result.detail = (
                        f"self-reference found but escalation failed: {report.detail}"
                    )
        if not result.detail:
            result.detail = f"no self-reference after {max_rounds} rounds"
        return self._finish(result)

    # -- internals -------------------------------------------------------
    def _finish(self, result: AttackResult) -> AttackResult:
        """Record the terminal outcome before handing the result back."""
        obs.inc(
            "attack.outcomes", kind="probabilistic_pte", outcome=result.outcome.value
        )
        sanitize.notify(
            "attack.campaign",
            kernel=self.kernel,
            hammer=self.hammer,
            kind="probabilistic_pte",
            outcome=result.outcome.value,
        )
        return result

    def _spray_interleaved(
        self,
        attacker: Process,
        spray_mappings: int,
        pages_per_mapping: int,
        interleave_data_pages: int,
    ) -> None:
        """Alternate file mappings with anonymous data-page allocations."""
        if self.kernel.module.fault_plane_armed:
            self._spray_interleaved_scalar(
                attacker, spray_mappings, pages_per_mapping, interleave_data_pages
            )
            return
        kernel = self.kernel
        file_bytes = pages_per_mapping * PAGE_SIZE
        shared = kernel.create_file(file_bytes)
        data_base = SPRAY_BASE + 4096 * PT_COVERAGE
        data_cursor = 0
        try:
            for index in range(spray_mappings):
                va = SPRAY_BASE + index * PT_COVERAGE
                _, page_pas = kernel.mmap_touch_many(
                    attacker, file_bytes, writable=True,
                    backing=shared, address=va,
                )
                self.checked_vas.extend(
                    va + page * PAGE_SIZE for page in range(len(page_pas))
                )
                self.sprayed_vas.append(va)
                obs.inc("attack.spray_mappings")
                for _ in range(interleave_data_pages):
                    data_va = data_base + data_cursor * PAGE_SIZE
                    # Keep each anonymous chunk inside one 2 MiB region so
                    # its page tables are shared, not one per page.
                    kernel.mmap_touch_many(
                        attacker, PAGE_SIZE, address=data_va, write=True
                    )
                    self.checked_vas.append(data_va)
                    data_cursor += 1
        except OutOfMemoryError as exc:
            # Mirror the scalar loop's partial state: pages touched before
            # the failure stay checkable, the failed mapping is not
            # counted as sprayed.
            touched = getattr(exc, "touched", [])
            vma = getattr(exc, "vma", None)
            if vma is not None:
                self.checked_vas.extend(
                    vma.start + page * PAGE_SIZE for page in range(len(touched))
                )

    def _spray_interleaved_scalar(
        self,
        attacker: Process,
        spray_mappings: int,
        pages_per_mapping: int,
        interleave_data_pages: int,
    ) -> None:
        """Per-page reference spray, kept for armed fault planes.

        Chaos schedules (``tlb-stale``, ``dram-read-error``, ``buddy-oom``)
        are keyed to per-access event order; this loop preserves it
        exactly.
        """
        kernel = self.kernel
        file_bytes = pages_per_mapping * PAGE_SIZE
        shared = kernel.create_file(file_bytes)
        data_base = SPRAY_BASE + 4096 * PT_COVERAGE
        data_cursor = 0
        try:
            for index in range(spray_mappings):
                va = SPRAY_BASE + index * PT_COVERAGE
                vma = kernel.mmap(
                    attacker, length=file_bytes, writable=True,
                    backing=shared, address=va,
                )
                for page in range(pages_per_mapping):
                    page_va = vma.start + page * PAGE_SIZE
                    kernel.touch(attacker, page_va)  # repro-lint: ignore[RL008] — armed-plane reference path
                    self.checked_vas.append(page_va)
                self.sprayed_vas.append(va)
                obs.inc("attack.spray_mappings")
                for _ in range(interleave_data_pages):
                    data_va = data_base + data_cursor * PAGE_SIZE
                    # Keep each anonymous chunk inside one 2 MiB region so
                    # its page tables are shared, not one per page.
                    anon = kernel.mmap(attacker, PAGE_SIZE, address=data_va)
                    kernel.touch(attacker, anon.start, write=True)  # repro-lint: ignore[RL008] — armed-plane reference path
                    self.checked_vas.append(anon.start)
                    data_cursor += 1
        except OutOfMemoryError:
            pass

    def _attacker_rows(self, attacker: Process) -> Set[int]:
        """Rows containing frames the attacker can access directly."""
        geometry = self.kernel.module.geometry
        rows: Set[int] = set()
        for frame in self.kernel.page_db.allocated_frames():
            if frame.owner_pid != attacker.pid:
                continue
            if frame.use in (PageUse.USER_DATA, PageUse.FILE_CACHE):
                rows.add(geometry.row_of_address(frame.address))
        return rows

    def _is_page_table_row(self, row: int) -> bool:
        geometry = self.kernel.module.geometry
        base = geometry.row_base_address(row)
        pages_per_row = geometry.row_bytes // PAGE_SIZE
        first_pfn = base // PAGE_SIZE
        return any(
            self.kernel.is_page_table_pfn(first_pfn + i) for i in range(pages_per_row)
        )

    def _candidate_victim_rows(self, attacker: Process) -> List[int]:
        """Rows the attacker would hammer: all neighbors of its own rows.

        Productive victims (rows actually containing page tables) are
        ordered first and the unproductive tail is capped, which shortens
        simulation wall-time without changing the attack's power.
        """
        geometry = self.kernel.module.geometry
        attacker_rows = self._attacker_rows(attacker)
        neighbors: Set[int] = set()
        for row in attacker_rows:
            neighbors.update(geometry.neighbors(row))
        # Highest rows first: sprayed last-level tables occupy the most
        # recently allocated (highest) frames, while the process's own
        # top-level tables sit lowest — hammering those first would shred
        # the attacker's paging tree before any usable flip lands.
        productive = sorted(
            (row for row in neighbors if self._is_page_table_row(row)), reverse=True
        )
        rest = sorted(row for row in neighbors if not self._is_page_table_row(row))
        return productive + rest[:16]

"""Anatomy of a PTE-based privilege escalation (Figure 3, step by step).

Walks the Project Zero attack through its phases on a stock simulated
kernel, narrating what each phase does to physical memory:

1. spray   — fill memory with the attacker's own page tables
2. hammer  — double-sided RowHammer on rows adjacent to attacker rows
3. detect  — scan the attacker's mappings for pages that suddenly read
             like page tables (PTE self-reference)
4. escalate — forge a PTE through the exposed window and prove an
             arbitrary physical read of a kernel secret

Usage::

    python examples/privilege_escalation.py [seed]
"""

import sys

from repro import build_stock_system
from repro.attacks.escalation import attempt_escalation, find_self_references
from repro.attacks.probabilistic import ProbabilisticPteAttack
from repro.dram.rowhammer import FlipStatistics, RowHammerModel
from repro.units import PAGE_SHIFT


def main(seed: int = 1) -> None:
    kernel = build_stock_system()
    hammer = RowHammerModel(
        kernel.module, FlipStatistics(p_vulnerable=3e-2, p_with_leak=0.5), seed=seed
    )
    attacker = kernel.create_process()
    attack = ProbabilisticPteAttack(kernel=kernel, hammer=hammer)

    print("== phase 1: spray ==")
    attack._spray_interleaved(attacker, 96, 4, 2)
    pt_pages = kernel.page_table_pfns(attacker.pid)
    print(f"created {len(attack.sprayed_vas)} file mappings; the kernel built "
          f"{len(pt_pages)} page-table pages for this process")
    print(f"page tables occupy pfns {min(pt_pages)}..{max(pt_pages)} — "
          f"interleaved with attacker data\n")

    print("== phase 2 + 3: hammer and detect ==")
    victim_rows = attack._candidate_victim_rows(attacker)
    print(f"{len(victim_rows)} candidate victim rows adjacent to attacker rows")
    references = []
    flips = 0
    for row in victim_rows * 3:  # up to three passes
        outcome = hammer.hammer(row)
        flips += outcome.flip_count
        if not outcome.flip_count:
            continue
        kernel.tlb.flush()
        references = find_self_references(kernel, attacker, attack.checked_vas)
        if references:
            break
    print(f"{flips} bit flips induced")
    if not references:
        print("no self-reference this seed; try another seed")
        return
    window = references[0]
    print(f"PTE self-reference at VA {window.virtual_address:#x}: its PTE now "
          f"points at page-table pfn {window.target_pfn}\n")

    print("== phase 4: escalate ==")
    report = attempt_escalation(kernel, attacker, window)
    if report.achieved:
        print(f"forged PTE {report.forged_pte_value:#x} written through the window")
        print(f"kernel secret read from user space: {report.proof_read!r}")
        print("privilege escalation complete: attacker reads arbitrary physical memory")
    else:
        print(f"escalation failed: {report.detail}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)

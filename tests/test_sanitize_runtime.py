"""Runtime sanitizer suite: mechanics, injection tests, clean sanitized demo.

Each injection test corrupts simulator state the way a real bug (or a
bypassed defense) would, and asserts the matching checker raises
:class:`SanitizerError` at the faulting operation — the KASAN model.
"""

import pytest

from repro import obs, sanitize
from repro.dram.rowhammer import (
    FlipBatch,
    FlipStatistics,
    HammerOutcome,
    RowHammerModel,
)
from repro.errors import SanitizerError
from repro.kernel.buddy import BuddyAllocator
from repro.kernel.gfp import GFP_KERNEL
from repro.kernel.page import PageUse
from repro.kernel.pagetable import PageTableEntry
from repro.sanitize.checkers import (
    BuddyHeapSanitizer,
    MonotonicPointerSanitizer,
    NoSelfReferenceSanitizer,
    ZoneContainmentSanitizer,
)
from repro.units import PAGE_SHIFT, PAGE_SIZE, PTE_SIZE

from tests.conftest import make_cta_kernel, make_stock_kernel
from tests.test_kernel_degrade import drain_zone_ptp, make_kernel


def _register(checker):
    suite = sanitize.get_suite()
    suite.register(checker)
    suite.enable()
    return suite


class TestSuiteMechanics:
    def test_disabled_suite_is_noop(self):
        suite = sanitize.get_suite()
        assert not suite.enabled
        # No checkers, disabled: notify must be a cheap no-op.
        sanitize.notify("buddy.alloc", allocator=None, pfn=0, order=0)
        assert suite.checks == 0

    def test_enabled_suite_dispatches_and_counts(self):
        allocator = BuddyAllocator(0, 64, name="ZM")
        suite = _register(BuddyHeapSanitizer(allocator))
        pfn = allocator.alloc_pages()
        allocator.free_pages_block(pfn)
        assert suite.checks >= 2
        assert suite.violations == 0

    def test_reset_installs_fresh_disabled_suite(self):
        sanitize.enable()
        assert sanitize.enabled()
        fresh = sanitize.reset()
        assert fresh is sanitize.get_suite()
        assert not sanitize.enabled()

    def test_install_registers_standard_checkers(self):
        kernel = make_cta_kernel()
        suite = sanitize.install(kernel)
        assert suite.enabled
        kinds = {type(c) for c in suite.checkers}
        assert BuddyHeapSanitizer in kinds
        assert ZoneContainmentSanitizer in kinds
        assert MonotonicPointerSanitizer in kinds
        assert NoSelfReferenceSanitizer in kinds
        # One buddy checker per zone allocator.
        buddy = [c for c in suite.checkers if isinstance(c, BuddyHeapSanitizer)]
        assert len(buddy) == len(kernel.layout.zones)

    def test_install_on_stock_kernel_skips_cta_checkers(self):
        kernel = make_stock_kernel()
        suite = sanitize.install(kernel)
        kinds = {type(c) for c in suite.checkers}
        assert MonotonicPointerSanitizer not in kinds
        assert NoSelfReferenceSanitizer not in kinds

    def test_violation_increments_obs_metrics(self):
        allocator = BuddyAllocator(0, 64, name="ZV")
        _register(BuddyHeapSanitizer(allocator))
        pfn = allocator.alloc_pages()
        allocator.free_pages_block(pfn)
        allocator._allocated[pfn - allocator.start_pfn] = 0  # corrupt the record
        with pytest.raises(SanitizerError):
            allocator.free_pages_block(pfn)
        registry = obs.get_registry()
        assert registry.counter("sanitize.violations").value(checker="buddy_heap") == 1
        assert sanitize.get_suite().violations == 1


class TestBuddyHeapInjection:
    def test_double_free_detected(self):
        allocator = BuddyAllocator(0, 64, name="ZD")
        _register(BuddyHeapSanitizer(allocator))
        pfn = allocator.alloc_pages()
        allocator.free_pages_block(pfn)
        # Corrupted bookkeeping re-admits the freed block, so the allocator
        # itself accepts the second free; the shadow map catches it.
        allocator._allocated[pfn - allocator.start_pfn] = 0
        with pytest.raises(SanitizerError, match="double free") as excinfo:
            allocator.free_pages_block(pfn)
        assert excinfo.value.checker == "buddy_heap"

    def test_double_alloc_detected(self):
        allocator = BuddyAllocator(0, 64, name="ZA")
        _register(BuddyHeapSanitizer(allocator))
        pfn = allocator.alloc_pages()
        # Corrupt the free lists so the allocator hands the block out again.
        allocator._free_lists[0].add(pfn - allocator.start_pfn)
        del allocator._allocated[pfn - allocator.start_pfn]
        with pytest.raises(SanitizerError, match="already live"):
            allocator.alloc_pages()

    def test_gauge_drift_detected(self):
        allocator = BuddyAllocator(0, 64, name="ZG")
        checker = BuddyHeapSanitizer(allocator)
        pfn = allocator.alloc_pages()  # suite disabled: no dispatch yet
        obs.set_gauge("buddy.free_pages", 999, zone="ZG")
        with pytest.raises(SanitizerError, match="gauge drift"):
            checker.handle(
                "buddy.alloc", {"allocator": allocator, "pfn": pfn, "order": 0}
            )

    def test_check_all_detects_shadow_divergence(self):
        allocator = BuddyAllocator(0, 64, name="ZS")
        checker = BuddyHeapSanitizer(allocator)
        _register(checker)
        pfn = allocator.alloc_pages()
        del checker._live[pfn - allocator.start_pfn]  # simulate missed event
        with pytest.raises(SanitizerError, match="diverged"):
            checker.check_all()

    def test_clean_workload_stays_silent(self):
        allocator = BuddyAllocator(100, 356, name="ZC")
        suite = _register(BuddyHeapSanitizer(allocator, full_every=8))
        live = [allocator.alloc_pages(order) for order in (0, 1, 2, 0, 3)]
        for pfn in live:
            allocator.free_pages_block(pfn)
        assert suite.violations == 0


class TestZoneContainmentInjection:
    def test_page_table_below_mark_detected(self):
        kernel = make_cta_kernel()
        sanitize.install(kernel)
        # A PTP request routed through ordinary zones (Rule 1 bypass):
        # GFP_KERNEL serves from below the low water mark.
        with pytest.raises(SanitizerError, match="Rule 1") as excinfo:
            kernel.alloc_page(GFP_KERNEL, PageUse.PAGE_TABLE)
        assert excinfo.value.checker == "zone_containment"

    def test_user_data_above_mark_detected(self):
        kernel = make_cta_kernel()
        sanitize.install(kernel)
        mark_pfn = kernel.cta_policy.low_water_mark_pfn
        with pytest.raises(SanitizerError, match="Rule 2"):
            sanitize.notify(
                "kernel.page_alloc",
                kernel=kernel,
                pfn=mark_pfn + 1,
                use=PageUse.USER_DATA,
                order=0,
                pt_level=0,
            )

    def test_normal_cta_boot_and_faults_stay_silent(self):
        kernel = make_cta_kernel()
        suite = sanitize.install(kernel)
        process = kernel.create_process()
        vma = kernel.mmap(process, 8 * PAGE_SIZE)
        for page in range(8):
            kernel.touch(process, vma.start + page * PAGE_SIZE, write=True)
        assert suite.violations == 0


class TestMonotonicPointerInjection:
    @staticmethod
    def _leaf_with_zero_pfn_bit(kernel):
        """A live leaf PTE in ZONE_PTP plus a clear bit of its PFN field."""
        process = kernel.create_process()
        vma = kernel.mmap(process, PAGE_SIZE)
        kernel.touch(process, vma.start, write=True)
        leaf = kernel.leaf_pte_address(process, vma.start)
        assert leaf is not None
        raw = kernel.module.read_u64(leaf)
        word_bit = next(b for b in range(12, 52) if not (raw >> b) & 1)
        return leaf, word_bit

    def test_forced_upward_flip_detected(self):
        kernel = make_cta_kernel()
        sanitize.install(kernel)
        leaf, word_bit = self._leaf_with_zero_pfn_bit(kernel)
        with pytest.raises(SanitizerError, match="monotonicity") as excinfo:
            kernel.module.flip_bit(leaf + word_bit // 8, word_bit % 8)
        assert excinfo.value.checker == "monotonic_pointer"

    def test_downward_flip_allowed(self):
        kernel = make_cta_kernel()
        suite = sanitize.install(kernel)
        leaf, _ = self._leaf_with_zero_pfn_bit(kernel)
        raw = kernel.module.read_u64(leaf)
        set_bit = next(b for b in range(12, 52) if (raw >> b) & 1)
        kernel.module.flip_bit(leaf + set_bit // 8, set_bit % 8)  # 1 -> 0
        assert suite.violations == 0

    def test_hammer_induced_upward_flip_detected(self):
        kernel = make_cta_kernel()
        hammer = RowHammerModel(
            kernel.module, FlipStatistics(p_vulnerable=0.0), seed=7
        )
        sanitize.install(kernel, hammer=hammer)
        leaf, word_bit = self._leaf_with_zero_pfn_bit(kernel)
        geometry = kernel.module.geometry
        victim_row = geometry.row_of_address(leaf)
        row_base = geometry.row_base_address(victim_row)
        row_bit = ((leaf + word_bit // 8) - row_base) * 8 + word_bit % 8
        hammer.seed_vulnerable_bits(victim_row, [(row_bit, 0, 1)])
        aggressor = next(
            row
            for row in geometry.neighbors(victim_row)
            if victim_row in geometry.neighbors(row)
        )
        with pytest.raises(SanitizerError, match="monotonicity"):
            hammer.hammer(aggressor)

    def test_flips_outside_page_tables_ignored(self):
        kernel = make_cta_kernel()
        suite = sanitize.install(kernel)
        process = kernel.create_process()
        vma = kernel.mmap(process, PAGE_SIZE)
        pa = kernel.touch(process, vma.start, write=True)
        kernel.module.flip_bit(pa, 0)  # user-data frame: any direction is fine
        assert suite.violations == 0

    def test_batched_hammer_check_matches_per_flip_loop(self):
        # One outcome mixing upward flips in a data frame, in a
        # screened-fallback (downgraded) page table, and in ZONE_PTP
        # tables (flag and PFN bits, plus one downward flip): the batched
        # check must acknowledge, read DRAM and raise exactly like
        # checking the flips one by one.
        kernel = make_kernel("screened-fallback")
        process = kernel.create_process()
        vma = kernel.mmap(process, PAGE_SIZE)
        data_pa = kernel.touch(process, vma.start, write=True)
        drain_zone_ptp(kernel)
        downgraded = kernel.pte_alloc_one(process.pid, 1)
        assert downgraded in kernel.downgraded_pt_pfns
        tables = [
            pfn for pfn in kernel.page_table_pfns(process.pid) if pfn != downgraded
        ]
        assert len(tables) >= 2

        def pte_bit(pfn, entry, word_bit, old=0, new=1):
            address = (pfn << PAGE_SHIFT) + entry * PTE_SIZE + word_bit // 8
            return address, word_bit % 8, old, new

        flips = [
            (data_pa, 0, 0, 1),
            pte_bit(downgraded, 0, 20),
            pte_bit(tables[0], 3, 1),  # flag bit: the pointer does not move
            pte_bit(tables[0], 4, 25, old=1, new=0),
            pte_bit(downgraded, 5, 30),
            pte_bit(tables[1], 7, 40),  # the first violation
            pte_bit(tables[0], 9, 13),
            (data_pa + 64, 3, 0, 1),
        ]
        outcome = HammerOutcome(
            aggressor_row=0,
            victim_rows=(),
            flips=FlipBatch.from_columns(*zip(*flips)),
        )
        checker = MonotonicPointerSanitizer(kernel)

        def run(check):
            obs.set_registry(obs.Registry())
            reads = kernel.module.read_count
            with pytest.raises(SanitizerError, match="monotonicity") as excinfo:
                check()
            acknowledged = obs.counter("sanitize.acknowledged_downgrades").total()
            return str(excinfo.value), acknowledged, kernel.module.read_count - reads

        def per_flip():
            for flip in iter(outcome.flips):
                checker._check_flip(
                    flip.address, flip.bit, flip.old, flip.new, "rowhammer.hammer"
                )

        batched = run(
            lambda: checker.handle(
                "rowhammer.hammer", {"module": kernel.module, "outcome": outcome}
            )
        )
        assert batched == run(per_flip)
        assert batched[1:] == (2, 1)
        assert f"PA {(tables[1] << PAGE_SHIFT) + 7 * PTE_SIZE + 5:#x}" in batched[0]


class TestNoSelfReferenceInjection:
    @staticmethod
    def _forge_self_reference(kernel):
        """Point a live leaf PTE at one of the process's page tables."""
        process = kernel.create_process()
        vma = kernel.mmap(process, PAGE_SIZE)
        kernel.touch(process, vma.start, write=True)
        leaf = kernel.leaf_pte_address(process, vma.start)
        pt_pfn = leaf >> PAGE_SHIFT  # the page table holding this very PTE
        forged = PageTableEntry.make(pt_pfn, writable=True, user=True)
        kernel.module.write_u64(leaf, forged.encode())
        return process, vma

    def test_campaign_sweep_detects_forged_window(self):
        kernel = make_cta_kernel()
        sanitize.install(kernel)
        self._forge_self_reference(kernel)
        with pytest.raises(SanitizerError, match="No-Self-Reference") as excinfo:
            sanitize.notify(
                "attack.campaign",
                kernel=kernel,
                hammer=None,
                kind="test",
                outcome="success",
            )
        assert excinfo.value.checker == "no_self_reference"

    def test_user_translation_into_page_table_detected(self):
        kernel = make_cta_kernel()
        sanitize.install(kernel)
        process, vma = self._forge_self_reference(kernel)
        kernel.tlb.flush()
        with pytest.raises(SanitizerError, match="self-reference window"):
            kernel.mmu.load(process.cr3, vma.start, PTE_SIZE, pid=process.pid)

    def test_intact_tables_stay_silent(self):
        kernel = make_cta_kernel()
        suite = sanitize.install(kernel)
        process = kernel.create_process()
        vma = kernel.mmap(process, 4 * PAGE_SIZE)
        for page in range(4):
            kernel.touch(process, vma.start + page * PAGE_SIZE)
        sanitize.notify(
            "attack.campaign", kernel=kernel, hammer=None, kind="test", outcome="blocked"
        )
        suite.check_now()
        assert suite.violations == 0


@pytest.mark.slow
class TestSanitizedDemo:
    def test_check_subcommand_runs_clean(self, capsys):
        from repro.cli import main

        assert main(["check", "--sanitize"]) == 0
        output = capsys.readouterr().out
        assert "0 violations" in output
        assert "all invariants held" in output

"""Seeded equivalence of the batched VM pipeline vs the scalar reference.

The batched entry points (`Mmu.translate_many` / `load_many` /
`store_many`, `Kernel.touch_many` / `mmap_touch_many`,
`DramModule.read_many`) promise *observational equivalence* with a
per-address scalar loop: identical results, identical TLB hit / miss /
eviction counts, identical obs totals, and the same exception at the
same access. These tests build two identical worlds, drive one through
each path, and compare everything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults, obs
from repro.errors import OutOfMemoryError, PageFaultError, TransientFaultError
from repro.faults.injectors import FaultSpec
from repro.kernel.kernel import Kernel, KernelConfig
from repro.units import MIB, PAGE_SIZE

from .conftest import SMALL_BANKS, SMALL_ROW


def _kernel(tlb_capacity: int = 1536, total_bytes: int = 32 * MIB) -> Kernel:
    return Kernel(
        KernelConfig(
            total_bytes=total_bytes,
            row_bytes=SMALL_ROW,
            num_banks=SMALL_BANKS,
            cell_interleave_rows=32,
            tlb_capacity=tlb_capacity,
        )
    )


BASE = 0x0000_7100_0000


def _mapped_world(tlb_capacity: int = 1536, regions: int = 4, pages: int = 8):
    """A kernel with ``regions`` touched mappings; returns (kernel, proc, vas)."""
    kernel = _kernel(tlb_capacity=tlb_capacity)
    process = kernel.create_process()
    vas = []
    for region in range(regions):
        base = BASE + region * (64 * PAGE_SIZE)
        vma = kernel.mmap(process, pages * PAGE_SIZE, address=base)
        for page in range(pages):
            va = vma.start + page * PAGE_SIZE
            kernel.touch(process, va, write=True)
            vas.append(va)
    return kernel, process, vas


def _tlb_counts(kernel: Kernel):
    tlb = kernel.tlb
    return (tlb.hits, tlb.misses, tlb.evictions)


#: Frontier-walker instrumentation recorded only on the fast path
#: (mmu._walk_many) — documented as outside the batched/scalar
#: equivalence contract; every other obs series must still match.
WALKER_INSTRUMENTATION = frozenset(
    {"mmu.walk.frontier_batches", "mmu.walk.levels", "dram.resident_rows"}
)


def _strip_walker_instrumentation(state):
    return {
        family: (
            {
                name: data
                for name, data in entries.items()
                if name not in WALKER_INSTRUMENTATION
            }
            if isinstance(entries, dict)
            else entries
        )
        for family, entries in state.items()
    }


class TestTranslateManyEquivalence:
    def test_results_and_counters_match_scalar(self):
        batched_k, bp, vas = _mapped_world()
        scalar_k, sp, svas = _mapped_world()
        assert vas == svas
        addresses = np.asarray(vas, dtype=np.int64)
        for write in (False, True):
            got = batched_k.mmu.translate_many(
                bp.cr3, addresses, pid=bp.pid, write=write
            )
            want = scalar_k.mmu.translate_many(
                sp.cr3, addresses, pid=sp.pid, write=write, slow_reference=True
            )
            assert np.array_equal(got, want)
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)
        assert batched_k.mmu.walk_count == scalar_k.mmu.walk_count

    def test_eviction_interleaving_at_tiny_capacity(self):
        """With capacity < working set every pass evicts; the batched pass
        must reproduce the scalar loop's exact hit/miss/eviction stream."""
        batched_k, bp, vas = _mapped_world(tlb_capacity=5, regions=2, pages=6)
        scalar_k, sp, _ = _mapped_world(tlb_capacity=5, regions=2, pages=6)
        addresses = np.asarray(vas, dtype=np.int64)
        for _ in range(3):
            got = batched_k.mmu.translate_many(bp.cr3, addresses, pid=bp.pid)
            want = scalar_k.mmu.translate_many(
                sp.cr3, addresses, pid=sp.pid, slow_reference=True
            )
            assert np.array_equal(got, want)
            assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)

    def test_obs_totals_match_scalar(self):
        previous = obs.get_registry()
        try:
            obs.set_registry(obs.Registry())
            batched_k, bp, vas = _mapped_world(tlb_capacity=7)
            addresses = np.asarray(vas, dtype=np.int64)
            batched_k.mmu.translate_many(bp.cr3, addresses, pid=bp.pid)
            batched_state = obs.get_registry().export_state()

            obs.set_registry(obs.Registry())
            scalar_k, sp, _ = _mapped_world(tlb_capacity=7)
            scalar_k.mmu.translate_many(
                sp.cr3, addresses, pid=sp.pid, slow_reference=True
            )
            scalar_state = obs.get_registry().export_state()
        finally:
            obs.set_registry(previous)
        assert (
            _strip_walker_instrumentation(batched_state)
            == _strip_walker_instrumentation(scalar_state)
        )
        # The frontier instrumentation exists on the batched side only.
        assert "mmu.walk.frontier_batches" in batched_state["counters"]
        assert "mmu.walk.frontier_batches" not in scalar_state["counters"]

    def test_fault_message_matches_scalar(self):
        batched_k, bp, vas = _mapped_world()
        scalar_k, sp, _ = _mapped_world()
        addresses = np.asarray(vas + [BASE + 512 * 64 * PAGE_SIZE], dtype=np.int64)
        with pytest.raises(PageFaultError) as batched_exc:
            batched_k.mmu.translate_many(bp.cr3, addresses, pid=bp.pid)
        with pytest.raises(PageFaultError) as scalar_exc:
            scalar_k.mmu.translate_many(
                sp.cr3, addresses, pid=sp.pid, slow_reference=True
            )
        assert str(batched_exc.value) == str(scalar_exc.value)
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)


class TestLoadStoreManyEquivalence:
    def test_load_many_matches_scalar_loads(self):
        batched_k, bp, vas = _mapped_world()
        scalar_k, sp, _ = _mapped_world()
        addresses = np.asarray(vas, dtype=np.int64)
        payload = b"\xa5" * 16
        batched_k.mmu.store_many(bp.cr3, addresses, payload, pid=bp.pid)
        scalar_k.mmu.store_many(
            sp.cr3, addresses, payload, pid=sp.pid, slow_reference=True
        )
        got = list(batched_k.mmu.load_many(bp.cr3, addresses, 32, pid=bp.pid))
        want = list(
            scalar_k.mmu.load_many(
                sp.cr3, addresses, 32, pid=sp.pid, slow_reference=True
            )
        )
        assert got == want
        assert got[0][:16] == payload
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)
        assert batched_k.module.read_count == scalar_k.module.read_count
        assert batched_k.module.write_count == scalar_k.module.write_count

    def test_store_many_per_address_payloads(self):
        kernel, process, vas = _mapped_world(regions=1, pages=4)
        addresses = np.asarray(vas, dtype=np.int64)
        payloads = [bytes([i]) * 8 for i in range(len(vas))]
        kernel.mmu.store_many(process.cr3, addresses, payloads, pid=process.pid)
        contents = kernel.mmu.load_many(process.cr3, addresses, 8, pid=process.pid)
        assert list(contents) == payloads

    def test_read_many_matches_scalar_reads(self, module):
        module.fill_row(0, 0x11)
        module.fill_row(2, 0x33)
        addrs = np.asarray(
            [0, 8, SMALL_ROW - 4, 2 * SMALL_ROW, 3 * SMALL_ROW - 1], dtype=np.int64
        )
        got = module.read_many(addrs, 8)
        baseline = module.read_count
        want = [module.read(int(a), 8) for a in addrs]
        assert got == want
        # Equal counting: the batch charged one read per element too.
        assert module.read_count - baseline == baseline


class TestTouchManyEquivalence:
    def test_touch_many_matches_scalar_touch_loop(self):
        batched_k = _kernel()
        scalar_k = _kernel()
        bp = batched_k.create_process()
        sp = scalar_k.create_process()
        length = 24 * PAGE_SIZE
        bvma = batched_k.mmap(bp, length, address=BASE)
        svma = scalar_k.mmap(sp, length, address=BASE)
        vas = bvma.start + PAGE_SIZE * np.arange(24, dtype=np.int64)
        got = batched_k.touch_many(bp, vas, write=True)
        want = [scalar_k.touch(sp, int(va), write=True) for va in vas]
        assert got == want
        assert svma.start == bvma.start
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)
        assert batched_k.stats.demand_faults == scalar_k.stats.demand_faults
        assert batched_k.mmu.walk_count == scalar_k.mmu.walk_count

    def test_mmap_touch_many_oom_contract(self):
        """OOM mid-batch leaves the VMA mapped and reports the completed
        prefix, exactly like a scalar mmap + touch loop."""
        kernel = _kernel(total_bytes=8 * MIB)
        process = kernel.create_process()
        length = 4096 * PAGE_SIZE  # 16 MiB of pages in an 8 MiB module
        with pytest.raises(OutOfMemoryError) as excinfo:
            kernel.mmap_touch_many(process, length, address=BASE, write=True)
        exc = excinfo.value
        touched = getattr(exc, "touched", None)
        vma = getattr(exc, "vma", None)
        assert touched and vma is not None
        assert vma.start == BASE
        assert any(v.start == BASE for v in process.vmas)
        # The completed prefix must be real, translatable mappings.
        redo = kernel.mmu.translate_many(
            process.cr3,
            vma.start + PAGE_SIZE * np.arange(len(touched), dtype=np.int64),
            pid=process.pid,
        )
        assert list(redo) == list(touched)

    def test_touch_many_slow_reference_identical(self):
        batched_k = _kernel()
        scalar_k = _kernel()
        bp = batched_k.create_process()
        sp = scalar_k.create_process()
        bvma = batched_k.mmap(bp, 8 * PAGE_SIZE, address=BASE)
        scalar_k.mmap(sp, 8 * PAGE_SIZE, address=BASE)
        vas = bvma.start + PAGE_SIZE * np.arange(8, dtype=np.int64)
        got = batched_k.touch_many(bp, vas, write=True)
        want = scalar_k.touch_many(sp, vas, write=True, slow_reference=True)
        assert got == want
        assert _tlb_counts(batched_k) == _tlb_counts(scalar_k)


class TestArmedFaultPlaneFallback:
    def test_batched_entry_points_replay_faults_like_scalar(self):
        """With per-access fault schedules armed, the batched entry points
        must select the scalar path, so the same seed replays the same
        fault firings as an explicit slow_reference run."""

        def run(slow_reference: bool):
            kernel = _kernel()
            process = kernel.create_process()
            plane = faults.install(
                [
                    FaultSpec("tlb-stale", probability=0.2, max_fires=6),
                    FaultSpec("dram-read-error", probability=5e-4, max_fires=2),
                ],
                seed=321,
                kernel=kernel,
            )
            vma = kernel.mmap(process, 16 * PAGE_SIZE, address=BASE)
            vas = vma.start + PAGE_SIZE * np.arange(16, dtype=np.int64)
            pas = kernel.touch_many(
                process, vas, write=True, slow_reference=slow_reference
            )
            contents = []
            for _ in range(4):
                contents.append(
                    list(
                        kernel.mmu.load_many(
                            process.cr3, vas, 16, pid=process.pid,
                            slow_reference=slow_reference,
                        )
                    )
                )
            counts = dict(plane.counts)
            faults.uninstall()
            return pas, contents, counts, _tlb_counts(kernel)

        auto = run(slow_reference=False)
        explicit = run(slow_reference=True)
        assert auto == explicit
        assert sum(auto[2].values()) > 0, "schedule never fired; test is vacuous"


def _read_error_plane():
    """Two raising dram.read schedules: one delayed, both capped."""
    return faults.install(
        [
            FaultSpec(
                "dram-read-error", name="late", probability=0.05,
                start_after=40, max_fires=3,
            ),
            FaultSpec("dram-read-error", name="early", probability=0.02, max_fires=4),
        ],
        seed=99,
    )


def _injector_states(plane):
    return [
        (inj._seen, inj.fires, inj._rng.bit_generator.state)
        for inj in plane.injectors
    ]


def _drain(read_batch, addresses, owner):
    """Read ``addresses`` through ``read_batch``, resuming after each error.

    An injected error names the physical address it aborted; the read
    resumes with the element after it. Returns the batches' results, the
    aborted indices and the error messages.
    """
    results, raised, messages = [], [], []
    start = 0
    while start < len(addresses):
        before = owner.read_count
        try:
            results.append(read_batch(addresses[start:]))
            break
        except TransientFaultError as exc:
            # Reads before the aborted one completed and were counted.
            index = start + owner.read_count - before
            raised.append(index)
            messages.append(str(exc))
            start = index + 1
    return results, raised, messages


class TestArmedBatchedReads:
    """``read_many`` / ``read_u64_many`` under an armed plane equal a loop."""

    #: Aligned addresses over six rows, in both halves of the guest window
    #: below; the byte-read variant adds row-straddling reads.
    ADDRESSES = np.asarray(
        [(7919 * i) % (6 * SMALL_ROW) & ~7 for i in range(400)], dtype=np.int64
    )
    STRADDLING = np.insert(ADDRESSES, [10, 200], [SMALL_ROW - 4, 3 * SMALL_ROW - 2])

    def _module(self):
        module = _kernel().module
        for row in range(6):
            module.fill_row(row, 0x10 + row)
        module.write(SMALL_ROW - 4, b"straddle")
        return module

    def _compare(self, batched, looped, owner_of, addresses=ADDRESSES):
        outcomes = []
        for read_batch in (batched, looped):
            module = self._module()
            plane = _read_error_plane()
            owner = owner_of(module)
            outcome = _drain(read_batch(owner), addresses, module)
            outcomes.append(
                (outcome, module.read_count, owner.read_count, _injector_states(plane))
            )
            faults.uninstall()
        assert outcomes[0][1:] == outcomes[1][1:]
        (got_results, got_raised, got_messages) = outcomes[0][0]
        (want_results, want_raised, want_messages) = outcomes[1][0]
        assert got_raised == want_raised
        assert got_messages == want_messages
        assert [list(r) for r in got_results] == [list(r) for r in want_results]
        assert len(got_raised) == 7, "both schedules must fire to their caps"
        return got_raised, got_messages

    def test_read_many_matches_read_loop(self):
        self._compare(
            lambda module: lambda a: module.read_many(a, 8),
            lambda module: lambda a: [module.read(int(x), 8) for x in a],
            lambda module: module,
            self.STRADDLING,
        )

    def test_read_u64_many_matches_read_u64_loop(self):
        self._compare(
            lambda module: lambda a: module.read_u64_many(a),
            lambda module: lambda a: [module.read_u64(int(x)) for x in a],
            lambda module: module,
        )

    def test_guest_window_reports_host_addresses(self):
        from repro.kernel.hypervisor import GuestPhysicalWindow

        def window_of(module):
            return GuestPhysicalWindow(
                module, data_base=2 * SMALL_ROW, data_size=4 * SMALL_ROW,
                ptp_base=16 * SMALL_ROW, ptp_size=4 * SMALL_ROW,
            )

        raised, messages = self._compare(
            lambda window: lambda a: window.read_many(a, 8),
            lambda window: lambda a: [window.read(int(x), 8) for x in a],
            window_of,
        )
        window = window_of(self._module())
        for index, message in zip(raised, messages):
            guest = int(self.ADDRESSES[index])
            assert message.endswith(f"PA {window.host_address(guest):#x}")
            assert window.host_address(guest) != guest


class TestBuddyFreeBlocksIncremental:
    @staticmethod
    def _ground_truth(buddy):
        """Recompute free-list occupancy from the sets themselves."""
        return {order: len(blocks) for order, blocks in buddy._free_lists.items()}

    def test_counts_match_recomputed_ground_truth(self):
        from repro.kernel.buddy import BuddyAllocator

        buddy = BuddyAllocator(start_pfn=0, end_pfn=256)
        rng = np.random.default_rng(7)
        held = []
        for _ in range(200):
            assert buddy.free_blocks_by_order() == self._ground_truth(buddy)
            if held and (len(held) > 12 or rng.random() < 0.4):
                pfn, order = held.pop(int(rng.integers(len(held))))
                buddy.free_pages_block(pfn, order)
            else:
                order = int(rng.integers(0, 4))
                try:
                    held.append((buddy.alloc_pages(order), order))
                except OutOfMemoryError:
                    pass
        for pfn, order in held:
            buddy.free_pages_block(pfn, order)
        assert buddy.free_blocks_by_order() == self._ground_truth(buddy)
        assert buddy.free_pages == 256

"""Tests for the repro.faults injection plane.

Covers spec parsing/validation, schedule determinism, the behaviour of
every injector kind against real simulator objects, observability
accounting, and the re-entrant-dispatch guard.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from tests.conftest import make_cta_kernel
from repro import faults, obs
from repro.dram.remap import RowRemapper
from repro.errors import (
    CapacityError,
    ConfigurationError,
    OutOfMemoryError,
    TransientFaultError,
)
from repro.faults import FaultInjector, FaultPlane, FaultSpec
from repro.kernel.gfp import GFP_KERNEL
from repro.kernel.page import PageUse
from repro.kernel.zones import ZoneId
from repro.rng import make_rng
from repro.units import PAGE_SIZE


class TestFaultSpec:
    def test_parse_full_spec(self):
        spec = FaultSpec.parse("ecc-miscorrect:p=0.2,max=3,after=1,burst=5")
        assert spec.kind == "ecc-miscorrect"
        assert spec.name == "ecc-miscorrect"
        assert spec.probability == 0.2
        assert spec.max_fires == 3
        assert spec.start_after == 1
        assert spec.burst_bits == 5

    def test_parse_bare_kind_uses_defaults(self):
        spec = FaultSpec.parse("tlb-stale")
        assert spec.probability == 1.0
        assert spec.max_fires is None
        assert spec.start_after == 0

    def test_parse_long_keys_and_name(self):
        spec = FaultSpec.parse(
            "buddy-oom:probability=0.5,max_fires=2,target=ZONE_NORMAL,name=oomA"
        )
        assert spec.name == "oomA"
        assert spec.target == "ZONE_NORMAL"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse("cosmic-ray")

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="tlb-stale", probability=1.5)

    def test_bad_max_fires_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="tlb-stale", max_fires=0)

    def test_malformed_item_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse("tlb-stale:p")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse("tlb-stale:speed=9")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse("tlb-stale:p=maybe")


class TestScheduleDeterminism:
    def _drive(self, seed: int, events: int) -> dict:
        plane = FaultPlane(seed=seed)
        plane.add("tlb-stale:p=0.5,name=a")
        plane.add("tlb-stale:p=0.5,name=b")
        plane.arm()
        for _ in range(events):
            plane.dispatch("tlb.invalidate", {})
        return plane.counts

    def test_same_seed_same_schedule(self):
        assert self._drive(7, 200) == self._drive(7, 200)

    def test_different_seeds_diverge(self):
        assert self._drive(7, 200) != self._drive(8, 200)

    def test_per_spec_streams_are_independent(self):
        counts = self._drive(7, 200)
        # Both injectors see every event with p=0.5, but their own streams.
        assert counts["a"] != counts["b"]

    def test_start_after_and_max_fires(self):
        plane = FaultPlane(seed=1)
        injector = plane.add("tlb-stale:p=1.0,after=3,max=2")
        plane.arm()
        fired = [plane.dispatch("tlb.invalidate", {}) for _ in range(10)]
        assert fired == [False] * 3 + [True] * 2 + [False] * 5
        assert injector.fires == 2
        assert injector.exhausted()

    def test_disarmed_plane_is_inert(self):
        plane = FaultPlane(seed=1)
        injector = plane.add("tlb-stale")
        assert plane.dispatch is not None
        assert faults.set_plane(plane).armed is False
        assert faults.notify("tlb.invalidate") is False
        assert injector.fires == 0


class TestInjectorKinds:
    def test_refresh_stall_suppresses_sweep(self):
        plane = FaultPlane(seed=3)
        plane.add("refresh-stall")
        plane.arm()
        assert plane.dispatch("refresh.sweep", {}) is True

    def test_tlb_stale_suppresses_invalidate(self, stock_kernel):
        process = stock_kernel.create_process()
        vma = stock_kernel.mmap(process, PAGE_SIZE)
        pa = stock_kernel.touch(process, vma.start, write=True)
        vpn = vma.start >> 12
        faults.install(["tlb-stale:p=1.0"], seed=3)
        stock_kernel.tlb.invalidate(process.pid, vpn)
        plane = faults.get_plane()
        assert plane.counts["tlb-stale"] == 1
        # The stale translation is still served.
        entry = stock_kernel.tlb.lookup(process.pid, vpn)
        assert entry is not None and entry[0] == pa >> 12

    def test_dram_read_error_aborts_but_is_counted(self, module):
        faults.install(["dram-read-error:p=1.0,max=1"], seed=5)
        with pytest.raises(TransientFaultError) as excinfo:
            module.read(0, 8)
        assert excinfo.value.fault == "dram-read-error"
        assert faults.get_plane().injected == 1
        counter = obs.get_registry().counter("faults.injected")
        assert counter.total() == 1
        # max_fires reached: subsequent reads succeed.
        assert module.read(0, 8) == bytes(8)

    def test_buddy_oom_fails_before_commit(self, stock_kernel):
        # Unbounded p=1.0 pressure fails *every* sub-zone, so the whole
        # zonelist walk comes up empty; a bounded injector would only
        # force fallback to the next zone.
        faults.install(["buddy-oom:p=1.0"], seed=5)
        with pytest.raises(OutOfMemoryError):
            stock_kernel.alloc_page(GFP_KERNEL, PageUse.USER_DATA)
        faults.disarm()
        # The hook fires before the allocator touches its free lists, so
        # nothing leaked: the next allocation succeeds normally.
        pfn = stock_kernel.alloc_page(GFP_KERNEL, PageUse.USER_DATA)
        assert stock_kernel.page_db.frame(pfn).use is PageUse.USER_DATA

    def test_buddy_oom_bounded_forces_zone_fallback(self, stock_kernel):
        plane = faults.install(["buddy-oom:p=1.0,max=1"], seed=5)
        pfn = stock_kernel.alloc_page(GFP_KERNEL, PageUse.USER_DATA)
        assert pfn >= 0  # served by the next zone in the zonelist
        assert plane.counts["buddy-oom"] == 1

    def test_buddy_oom_target_filters_zone(self, stock_kernel):
        faults.install(
            ["buddy-oom:p=1.0,target=ZONE_DOES_NOT_EXIST"], seed=5
        )
        pfn = stock_kernel.alloc_page(GFP_KERNEL, PageUse.USER_DATA)
        assert pfn >= 0
        assert faults.get_plane().injected == 0

    def test_ecc_miscorrect_flips_extra_bits(self, module):
        plane = faults.install(["ecc-miscorrect:p=1.0,burst=4"], seed=9)
        outcome = SimpleNamespace(victim_rows=(3,))
        plane.dispatch("rowhammer.hammer", {"module": module, "outcome": outcome})
        assert plane.counts["ecc-miscorrect"] == 1
        row_bytes = module.geometry.row_bytes
        row_data = module.read(3 * row_bytes, row_bytes)
        flipped = sum(bin(byte).count("1") for byte in row_data)
        assert flipped == 4

    def test_ecc_miscorrect_skips_hammer_without_victims(self, module):
        plane = faults.install(["ecc-miscorrect:p=1.0"], seed=9)
        outcome = SimpleNamespace(victim_rows=())
        plane.dispatch("rowhammer.hammer", {"module": module, "outcome": outcome})
        assert plane.counts["ecc-miscorrect"] == 0

    def test_remap_corrupt_rewrites_table(self, cell_map):
        remapper = RowRemapper(cell_map)
        plane = faults.install(["remap-corrupt:p=1.0,max=1"], seed=11, remapper=remapper)
        plane.dispatch("rowhammer.hammer", {})
        assert plane.counts["remap-corrupt"] == 1
        assert len(remapper.remapped_rows) == 1

    def test_ptp_exhaust_drains_and_release_restores(self):
        kernel = make_cta_kernel()
        plane = faults.install(["ptp-exhaust:p=1.0,max=1"], seed=13, kernel=kernel)
        process = kernel.create_process()
        vma = kernel.mmap(process, PAGE_SIZE)
        # The first page-table allocation succeeds and triggers the drain;
        # the next level's allocation then hits the (fail-hard) policy.
        with pytest.raises(CapacityError):
            kernel.touch(process, vma.start, write=True)
        injector = plane.injectors[0]
        assert injector.fires == 1
        assert injector.held
        # Every free PTP block is held: a direct PTP sub-zone alloc fails.
        ptp_zones = [z for z in kernel.layout.zones if z.zone_id is ZoneId.PTP]
        assert ptp_zones
        with pytest.raises(OutOfMemoryError):
            kernel.allocator_for_zone(ptp_zones[0]).alloc_pages(0)
        held_blocks = len(injector.held)
        assert plane.release_held() == held_blocks
        assert not injector.held
        # max_fires reached: with the blocks returned, the touch succeeds.
        assert kernel.touch(process, vma.start, write=True) >= 0


class TestPlaneFabric:
    def test_install_uninstall_lifecycle(self):
        plane = faults.install(["tlb-stale"], seed=1)
        assert faults.get_plane() is plane
        assert faults.armed()
        fresh = faults.uninstall()
        assert fresh is faults.get_plane()
        assert not faults.armed()
        assert fresh.injectors == ()

    def test_firings_counted_in_obs_with_labels(self):
        faults.install(["tlb-stale:name=stale1"], seed=1)
        faults.notify("tlb.invalidate")
        counter = obs.get_registry().counter("faults.injected")
        assert counter.value(fault="stale1", event="tlb.invalidate") == 1
        events = obs.get_registry().trace.events(name="faults.inject")
        assert len(events) == 1

    def test_sanitize_notify_forwards_to_plane(self, stock_kernel):
        faults.install(["buddy-oom:p=1.0"], seed=2)
        # The buddy.prepare_alloc hook travels through sanitize.notify.
        with pytest.raises(OutOfMemoryError):
            stock_kernel.alloc_page(GFP_KERNEL, PageUse.USER_DATA)
        assert faults.get_plane().injected >= 1

    def test_reentrant_dispatch_is_blocked(self):
        plane = FaultPlane(seed=1)

        class Reentrant(FaultInjector):
            kind = "tlb-stale"
            events = ("tlb.invalidate",)
            inner_results = []

            def fire(self, event, ctx):
                self.inner_results.append(plane.dispatch(event, ctx))
                return False

        spec = FaultSpec(kind="tlb-stale", name="reentrant")
        injector = Reentrant(spec, make_rng(1))
        plane._injectors.append(injector)
        plane._by_event.setdefault("tlb.invalidate", []).append(injector)
        plane.arm()
        plane.dispatch("tlb.invalidate", {})
        assert Reentrant.inner_results == [False]
        assert injector.fires == 1


class TestBatchOffer:
    """``fault_free_runs`` consumes events exactly like per-event notify."""

    SPECS = (
        "tlb-stale:p=0.01,name=a,after=70,max=5",
        "tlb-stale:p=0.004,name=b",
        "tlb-stale:p=1.0,name=c,after=333,max=2",
        "tlb-stale:p=0.02,name=d,after=5000",
    )

    @staticmethod
    def _state(plane):
        return [
            (inj._seen, inj.fires, inj._rng.bit_generator.state)
            for inj in plane.injectors
        ]

    def _install(self):
        plane = faults.install(list(self.SPECS), seed=11)
        return plane

    @pytest.mark.parametrize("batch", [1, 7, 64, 500, 3000])
    def test_runs_match_per_event_notify(self, batch):
        total = 3000
        scalar = self._install()
        want = [
            index for index in range(total) if faults.notify("tlb.invalidate")
        ]
        want_state = self._state(scalar)
        faults.uninstall()

        batched = self._install()
        got = []
        for base in range(0, total, batch):
            count = min(batch, total - base)
            for _, stop in faults.fault_free_runs("tlb.invalidate", count):
                if stop < count:
                    assert faults.notify("tlb.invalidate")
                    got.append(base + stop)
        assert got == want
        assert self._state(batched) == want_state
        assert len(want) > 5, "schedules must fire for the test to mean much"

    def test_unsubscribed_event_passes_without_draws(self):
        plane = self._install()
        before = self._state(plane)
        assert list(faults.fault_free_runs("dram.read", 1000)) == [(0, 1000)]
        assert self._state(plane) == before

    def test_disarmed_plane_yields_one_run(self):
        plane = self._install()
        plane.disarm()
        before = self._state(plane)
        assert list(faults.fault_free_runs("tlb.invalidate", 50)) == [(0, 50)]
        assert self._state(plane) == before

    def test_offer_inside_dispatch_consumes_nothing(self):
        plane = self._install()
        before = self._state(plane)
        plane._in_dispatch = True
        assert plane.offer("tlb.invalidate", 40, {}) == 40
        assert self._state(plane) == before

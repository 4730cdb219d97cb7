"""Hypervisor / VM support (Section 7)."""

import numpy as np
import pytest

from repro.dram.cells import CellType, CellTypeMap
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.errors import (
    AddressError,
    CapacityError,
    ConfigurationError,
    ZoneViolationError,
)
from repro.kernel.hypervisor import GuestPhysicalWindow, Hypervisor
from repro.units import MIB, PAGE_SHIFT, PAGE_SIZE


ROW = 16 * 1024


@pytest.fixture
def host_module():
    geometry = DramGeometry(total_bytes=64 * MIB, row_bytes=ROW, num_banks=2)
    # 64-row period -> 1 MiB same-type regions, so a 1 MiB guest PTP slice
    # fits inside one contiguous true-cell range.
    cell_map = CellTypeMap.interleaved(geometry, period_rows=64)
    return DramModule(geometry, cell_map)


@pytest.fixture
def hypervisor(host_module):
    return Hypervisor(host_module, hypervisor_zone_bytes=8 * MIB)


class TestGuestPhysicalWindow:
    def test_address_translation(self, host_module):
        window = GuestPhysicalWindow(
            host_module, data_base=0, data_size=2 * MIB,
            ptp_base=60 * MIB, ptp_size=MIB,
        )
        assert window.host_address(0x1234) == 0x1234
        assert window.host_address(2 * MIB) == 60 * MIB
        assert window.host_address(2 * MIB + 5) == 60 * MIB + 5
        with pytest.raises(ConfigurationError):
            window.host_address(3 * MIB)

    def test_writes_reach_host(self, host_module):
        window = GuestPhysicalWindow(
            host_module, data_base=MIB, data_size=2 * MIB,
            ptp_base=60 * MIB, ptp_size=MIB,
        )
        window.write(0x100, b"guest data")
        assert host_module.read(MIB + 0x100, 10) == b"guest data"
        window.write(2 * MIB + 8, b"pte")
        assert host_module.read(60 * MIB + 8, 3) == b"pte"

    def test_cell_types_inherited_from_host(self, host_module):
        window = GuestPhysicalWindow(
            host_module, data_base=0, data_size=2 * MIB,
            ptp_base=60 * MIB, ptp_size=MIB,
        )
        host_map = host_module.cell_map
        for guest_row in (0, 10, 130):
            guest_address = guest_row * ROW
            host_row = window.host_address(guest_address) // ROW
            assert (
                window.cell_map.type_of_row(guest_row)
                is host_map.type_of_row(host_row)
            )

    def test_alignment_enforced(self, host_module):
        with pytest.raises(ConfigurationError):
            GuestPhysicalWindow(host_module, 100, 2 * MIB, 60 * MIB, MIB)


def _window(host_module):
    return GuestPhysicalWindow(
        host_module, data_base=MIB, data_size=2 * MIB,
        ptp_base=60 * MIB, ptp_size=MIB,
    )


#: Guest addresses in both halves of the window (data and PTP slice).
GUEST_ADDRESSES = np.array([0x100, 5 * ROW + 64, 2 * MIB + 8, 2 * MIB + 3 * ROW])


class TestGuestWindowBatchedPrimitives:
    """The batched primitives act on host storage, like their scalar twins."""

    def test_write_many_reaches_read_and_host(self, host_module):
        window = _window(host_module)
        window.write_many(GUEST_ADDRESSES, b"batched!")
        for address in GUEST_ADDRESSES.tolist():
            assert window.read(address, 8) == b"batched!"
            assert host_module.read(window.host_address(address), 8) == b"batched!"
        assert window.write_count == GUEST_ADDRESSES.size

    def test_read_many_matches_read_loop(self, host_module):
        window = _window(host_module)
        for index, address in enumerate(GUEST_ADDRESSES.tolist()):
            window.write(address, bytes([index + 1]) * 8)
        before = window.read_count
        assert window.read_many(GUEST_ADDRESSES, 8) == [
            bytes([index + 1]) * 8 for index in range(GUEST_ADDRESSES.size)
        ]
        assert window.read_count - before == GUEST_ADDRESSES.size

    def test_read_u64_many_matches_read_u64(self, host_module):
        window = _window(host_module)
        for index, address in enumerate(GUEST_ADDRESSES.tolist()):
            window.write_u64(address, 0x1122334455667700 + index)
        words = window.read_u64_many(GUEST_ADDRESSES)
        assert words.tolist() == [
            window.read_u64(address) for address in GUEST_ADDRESSES.tolist()
        ]
        assert words[0] == 0x1122334455667700

    def test_snapshot_row_reads_host_row(self, host_module):
        window = _window(host_module)
        window.fill_row(3, 0xA5)
        assert window.snapshot_row(3).tolist() == [0xA5] * ROW
        ptp_row = 2 * MIB // ROW
        window.write(2 * MIB, b"\x7f")
        assert window.snapshot_row(ptp_row)[0] == 0x7F

    def test_row_residency_is_the_hosts(self, host_module):
        window = _window(host_module)
        ptp_row = 2 * MIB // ROW
        host_module.write(0, b"host")  # below the window
        window.write(0, b"guest")
        window.write(ptp_row * ROW, b"table")
        assert window.resident_rows == window.materialized_rows == 2
        assert host_module.resident_rows == 3
        window.forget_row(0)
        assert window.read(0, 5) == bytes(5)
        assert window.resident_rows == 1
        assert host_module.resident_rows == 2

    def test_out_of_window_batch_raises_like_the_loop(self, host_module):
        window = _window(host_module)
        with pytest.raises(AddressError):
            window.read_many(np.array([0, 3 * MIB]), 8)
        assert window.read_count == 1

    def test_guest_translate_many_matches_translate(self, hypervisor):
        vm = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        process = vm.kernel.create_process()
        vma = vm.kernel.mmap(process, 8 * PAGE_SIZE)
        addresses = [vma.start + page * PAGE_SIZE for page in range(8)]
        for address in addresses:
            vm.kernel.touch(process, address, write=True)
        mmu = vm.kernel.mmu
        scalar = [
            mmu.translate(process.cr3, address, pid=process.pid, use_tlb=False)
            for address in addresses
        ]
        batched = mmu.translate_many(
            process.cr3, addresses, pid=process.pid, use_tlb=False
        )
        assert batched.tolist() == scalar


class TestHypervisor:
    def test_zone_sits_high(self, hypervisor, host_module):
        assert hypervisor.zone_hypervisor_base > host_module.geometry.total_bytes // 2

    def test_guest_boots_with_cta(self, hypervisor):
        vm = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        assert vm.kernel.cta_enabled
        process = vm.kernel.create_process()
        vma = vm.kernel.mmap(process, 4 * PAGE_SIZE)
        vm.kernel.write_virtual(process, vma.start, b"guest payload")
        assert vm.kernel.read_virtual(process, vma.start, 13) == b"guest payload"
        hypervisor.verify_isolation()

    def test_guest_page_tables_land_in_hypervisor_zone(self, hypervisor):
        vm = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        process = vm.kernel.create_process()
        vma = vm.kernel.mmap(process, 2 * PAGE_SIZE)
        vm.kernel.touch(process, vma.start, write=True)
        base = hypervisor.zone_hypervisor_base >> PAGE_SHIFT
        for host_pfn in hypervisor.host_page_tables():
            assert host_pfn >= base

    def test_guest_data_lands_below_zone(self, hypervisor):
        vm = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        process = vm.kernel.create_process()
        vma = vm.kernel.mmap(process, 4 * PAGE_SIZE)
        for page in range(4):
            guest_pa = vm.kernel.touch(process, vma.start + page * PAGE_SIZE, write=True)
            host_pa = vm.window.host_address(guest_pa)
            assert host_pa < hypervisor.zone_hypervisor_base

    def test_two_guests_disjoint(self, hypervisor):
        vm_a = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        vm_b = hypervisor.create_guest(data_bytes=4 * MIB, ptp_bytes=MIB)
        assert vm_a.host_data_range[1] <= vm_b.host_data_range[0]
        a_ptp, b_ptp = vm_a.host_ptp_range, vm_b.host_ptp_range
        assert a_ptp[1] <= b_ptp[0] or b_ptp[1] <= a_ptp[0]
        for vm in (vm_a, vm_b):
            process = vm.kernel.create_process()
            vma = vm.kernel.mmap(process, PAGE_SIZE)
            vm.kernel.touch(process, vma.start, write=True)
        hypervisor.verify_isolation()

    def test_guest_writes_do_not_leak_across_vms(self, hypervisor):
        vm_a = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        vm_b = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        process_a = vm_a.kernel.create_process()
        process_b = vm_b.kernel.create_process()
        vma_a = vm_a.kernel.mmap(process_a, PAGE_SIZE)
        vma_b = vm_b.kernel.mmap(process_b, PAGE_SIZE)
        vm_a.kernel.write_virtual(process_a, vma_a.start, b"AAAA")
        vm_b.kernel.write_virtual(process_b, vma_b.start, b"BBBB")
        assert vm_a.kernel.read_virtual(process_a, vma_a.start, 4) == b"AAAA"
        assert vm_b.kernel.read_virtual(process_b, vma_b.start, 4) == b"BBBB"

    def test_hypervisor_zone_exhaustion(self, host_module):
        hypervisor = Hypervisor(host_module, hypervisor_zone_bytes=MIB)
        hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        with pytest.raises(CapacityError):
            hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)

    def test_guest_ptp_slices_are_true_cells(self, hypervisor, host_module):
        vm = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        host_map = host_module.cell_map
        start, end = vm.host_ptp_range
        for row in range(start // ROW, end // ROW):
            assert host_map.type_of_row(row) is CellType.TRUE

    def test_isolation_check_catches_overlap(self, hypervisor):
        vm_a = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        vm_b = hypervisor.create_guest(data_bytes=2 * MIB, ptp_bytes=MIB)
        # Corrupt the bookkeeping to simulate a provisioning bug.
        vm_b.host_data_range = vm_a.host_data_range
        with pytest.raises(ZoneViolationError):
            hypervisor.verify_isolation()

"""Sparse simulated DRAM module.

Stores row contents lazily: a row materialises (as a numpy uint8 array)
only when first written, so multi-GiB geometries cost memory proportional
to the data actually touched. Besides plain byte/word access the module
understands *charge semantics*: given a cell-type map it can decay rows
toward their discharged logic value (used by the cell-type profiler and the
coldboot extension) and apply individual bit flips (used by the RowHammer
model).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import faults, sanitize
from repro.dram.cells import CellType, CellTypeMap
from repro.dram.geometry import DramGeometry
from repro.errors import AddressError, ConfigurationError


class DramModule:
    """Byte-addressable sparse DRAM storage with cell-aware decay.

    Parameters
    ----------
    geometry:
        Module shape.
    cell_map:
        Ground-truth row typing. Optional for pure-storage uses, but
        required by :meth:`decay_row` and :meth:`flip_bit` direction checks.
    fill_byte:
        Logical content of never-written rows (defaults to zeros, matching
        an OS that zeroes pages on first allocation).
    """

    def __init__(
        self,
        geometry: DramGeometry,
        cell_map: Optional[CellTypeMap] = None,
        fill_byte: int = 0x00,
    ):
        if not 0 <= fill_byte <= 0xFF:
            raise ConfigurationError(f"fill_byte {fill_byte:#x} out of range")
        self._geometry = geometry
        self._cell_map = cell_map
        self._fill_byte = fill_byte
        self._rows: Dict[int, np.ndarray] = {}
        # Cached little-endian u64 aliases of backing arrays (see u64_view).
        self._u64_views: Dict[int, np.ndarray] = {}
        # Bumped whenever a backing array is dropped so external caches of
        # row views (e.g. the MMU page-table cache) can cheaply revalidate.
        self._generation = 0
        # Cached faults.armed() result, refreshed when the fault-plane
        # epoch moves — keeps the common disarmed read path to one int
        # compare instead of two module lookups plus attribute probes.
        self._faults_epoch = -1
        self._faults_armed = False
        #: Count of writes/reads, useful for benchmarks.
        self.write_count = 0
        self.read_count = 0

    # -- basic properties -------------------------------------------------
    @property
    def geometry(self) -> DramGeometry:
        """Module geometry."""
        return self._geometry

    @property
    def cell_map(self) -> Optional[CellTypeMap]:
        """Ground-truth cell typing (None when constructed without one)."""
        return self._cell_map

    @property
    def materialized_rows(self) -> int:
        """Number of rows currently backed by real arrays."""
        return len(self._rows)

    @property
    def resident_rows(self) -> int:
        """Rows currently resident in memory (the ``dram.resident_rows`` gauge).

        Alias of :attr:`materialized_rows`: on a multi-GB sparse module
        this is the quantity that bounds real memory use — geometry rows
        never written stay virtual and cost nothing.
        """
        return self.materialized_rows

    @property
    def generation(self) -> int:
        """Monotonic counter bumped when a backing array is dropped.

        Views returned by :meth:`u64_view` / :meth:`row_u64_view` alias
        live storage and stay valid across in-place writes; only
        :meth:`forget_row` re-binds arrays. Callers caching views compare
        this counter to detect that.
        """
        return self._generation

    @property
    def fault_plane_armed(self) -> bool:
        """Whether the process fault plane is armed (epoch-cached)."""
        current = faults.epoch()
        if current != self._faults_epoch:
            self._faults_epoch = current
            self._faults_armed = faults.armed()
        return self._faults_armed

    # -- row materialisation ----------------------------------------------
    def _row_array(self, row: int, materialize: bool = True) -> Optional[np.ndarray]:
        existing = self._rows.get(row)
        if existing is not None:
            if materialize and not existing.flags.writeable:
                # Copy-on-first-write: the row aliases a read-only snapshot
                # buffer (shared memory). Promote to a private writable
                # copy and invalidate aliasing caches of the old storage.
                fresh = existing.copy()
                self._rows[row] = fresh
                self._u64_views.pop(row, None)
                self._generation += 1
                return fresh
            return existing
        if not materialize:
            return None
        fresh = np.full(self._geometry.row_bytes, self._fill_byte, dtype=np.uint8)
        self._rows[row] = fresh
        return fresh

    def forget_row(self, row: int) -> None:
        """Drop a row's backing array (its content reverts to fill_byte)."""
        if self._rows.pop(row, None) is not None:
            self._u64_views.pop(row, None)
            self._generation += 1

    # -- byte access --------------------------------------------------------
    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at physical ``address``.

        An armed ``dram-read-error`` fault may abort the read with a
        :class:`~repro.errors.TransientFaultError` (uncorrectable-ECC
        machine-check analogue).
        """
        self._geometry.check_address(address, length)
        if self.fault_plane_armed:
            faults.notify("dram.read", module=self, address=address, length=length)
        self.read_count += 1
        row_bytes = self._geometry.row_bytes
        row, offset = divmod(address, row_bytes)
        if offset + length <= row_bytes:
            # Single-row fast path: no chunking loop, one slice copy.
            backing = self._rows.get(row)
            if backing is None:
                return bytes([self._fill_byte]) * length
            return backing[offset : offset + length].tobytes()
        return self._read_straddling(address, length)

    def _read_straddling(self, address: int, length: int) -> bytes:
        """Uncounted, unhooked read of a span that may cross rows."""
        row_bytes = self._geometry.row_bytes
        out = bytearray(length)
        cursor = 0
        while cursor < length:
            addr = address + cursor
            row = addr // row_bytes
            offset = addr % row_bytes
            chunk = min(length - cursor, row_bytes - offset)
            backing = self._rows.get(row)
            if backing is None:
                out[cursor : cursor + chunk] = bytes([self._fill_byte]) * chunk
            else:
                out[cursor : cursor + chunk] = backing[offset : offset + chunk].tobytes()
            cursor += chunk
        return bytes(out)

    def read_many(self, addresses: "np.ndarray", length: int) -> List[bytes]:
        """One ``length``-byte read per physical address, in order.

        Equivalent to calling :meth:`read` per address: same results,
        ``read_count`` accounting and ``dram.read`` fault schedule. The
        per-call overhead — bounds check, fault probe, row arithmetic —
        is paid once per firing-free run instead: the batch is offered
        to the fault plane (:func:`repro.faults.fault_free_runs`) and a
        read at which an injector fires goes through :meth:`read`
        itself. Falls back to the scalar loop when any address is out of
        bounds (it raises at the right element with the right prior
        counts).
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        n = int(addrs.size)
        total = self._geometry.total_bytes
        if bool(np.any(addrs < 0)) or bool(np.any(addrs + length > total)):
            return [self.read(int(address), length) for address in addrs]
        out: List[bytes] = []
        for start, stop in faults.fault_free_runs(
            "dram.read", n, module=self, length=length
        ):
            out.extend(self._gather(addrs[start:stop], length))
            if stop < n:
                out.append(self.read(int(addrs[stop]), length))
        return out

    def _gather(self, addrs: np.ndarray, length: int) -> List[bytes]:
        """Counted, unhooked reads of in-bounds addresses."""
        self.read_count += int(addrs.size)
        row_bytes = self._geometry.row_bytes
        rows = addrs // row_bytes
        offsets = addrs - rows * row_bytes
        backing_of = self._rows
        fill = bytes([self._fill_byte]) * length
        out: List[bytes] = []
        for row, offset in zip(rows.tolist(), offsets.tolist()):
            if offset + length <= row_bytes:
                backing = backing_of.get(row)
                out.append(
                    fill if backing is None else
                    backing[offset : offset + length].tobytes()
                )
            else:
                out.append(self._read_straddling(row * row_bytes + offset, length))
        return out

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` at physical ``address``."""
        length = len(data)
        self._geometry.check_address(address, length)
        self.write_count += 1
        row_bytes = self._geometry.row_bytes
        row, offset = divmod(address, row_bytes)
        if offset + length <= row_bytes:
            # Single-row fast path; frombuffer aliases the caller's bytes
            # (no intermediate copy), the slice assignment does the copy.
            backing = self._row_array(row)
            backing[offset : offset + length] = np.frombuffer(data, dtype=np.uint8)
            return
        view = np.frombuffer(data, dtype=np.uint8)
        cursor = 0
        while cursor < length:
            addr = address + cursor
            row = addr // row_bytes
            offset = addr % row_bytes
            chunk = min(length - cursor, row_bytes - offset)
            backing = self._row_array(row)
            backing[offset : offset + chunk] = view[cursor : cursor + chunk]
            cursor += chunk

    def write_many(self, addresses: "np.ndarray", data: bytes) -> None:
        """Write ``data`` at every physical address, in order.

        Equivalent to calling :meth:`write` per address (same contents
        and ``write_count`` accounting); the bounds check and row
        arithmetic are paid once for the batch. Falls back to the scalar
        loop when any address is out of bounds or a write straddles a
        row (the scalar path raises at the right element with the right
        prior counts).
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        n = int(addrs.size)
        length = len(data)
        total = self._geometry.total_bytes
        row_bytes = self._geometry.row_bytes
        if (
            n == 0
            or bool(np.any(addrs < 0))
            or bool(np.any(addrs + length > total))
            or bool(np.any(addrs % row_bytes + length > row_bytes))
        ):
            for address in addrs:
                self.write(int(address), data)
            return
        self.write_count += n
        rows = addrs // row_bytes
        offsets = addrs - rows * row_bytes
        view = np.frombuffer(data, dtype=np.uint8)
        for row, offset in zip(rows.tolist(), offsets.tolist()):
            backing = self._row_array(row)
            backing[offset : offset + length] = view

    # -- word access ----------------------------------------------------------
    def read_u64(self, address: int) -> int:
        """Read a little-endian 64-bit word (one PTE) at ``address``."""
        return int.from_bytes(self.read(address, 8), "little")

    def read_u64_many(self, addresses: "np.ndarray") -> np.ndarray:
        """One little-endian 64-bit word per physical address, in order.

        The frontier page-table walker's gather primitive: addresses are
        grouped by row and each resident row's backing array is indexed
        once for all its words. Crucially the gather is *non-mutating* —
        absent rows are never materialised (their words read as the fill
        byte repeated) and read-only snapshot rows are viewed in place
        rather than copy-on-write promoted, so walking page tables of a
        multi-GB module keeps memory proportional to resident data.
        Equivalent to a :meth:`read_u64` loop: one read counted per
        address, and the same ``dram.read`` fault schedule (the batch is
        offered like :meth:`read_many`'s, a firing read goes through
        :meth:`read_u64`). Falls back to that scalar loop when any
        address is unaligned or out of bounds (the loop raises at the
        right element with the right prior counts).
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        n = int(addrs.size)
        if (
            self._geometry.row_bytes % 8
            or bool(np.any(addrs < 0))
            or bool(np.any(addrs + 8 > self._geometry.total_bytes))
            or bool(np.any(addrs & 7))
        ):
            return np.array(
                [self.read_u64(int(address)) for address in addrs],
                dtype=np.uint64,
            )
        out = np.empty(n, dtype=np.uint64)
        for start, stop in faults.fault_free_runs(
            "dram.read", n, module=self, length=8
        ):
            out[start:stop] = self._gather_u64(addrs[start:stop])
            if stop < n:
                out[stop] = self.read_u64(int(addrs[stop]))
        return out

    def _gather_u64(self, addrs: np.ndarray) -> np.ndarray:
        """Counted, unhooked word gather of aligned in-bounds addresses."""
        n = int(addrs.size)
        out = np.empty(n, dtype=np.uint64)
        if n == 0:
            return out
        self.read_count += n
        row_bytes = self._geometry.row_bytes
        rows = addrs // row_bytes
        word_idx = (addrs - rows * row_bytes) >> 3
        fill_word = np.uint64(
            int.from_bytes(bytes([self._fill_byte]) * 8, "little")
        )
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        boundaries = np.flatnonzero(np.diff(sorted_rows)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        for group_start, group_end in zip(starts.tolist(), ends.tolist()):
            sel = order[group_start:group_end]
            backing = self._rows.get(int(sorted_rows[group_start]))
            if backing is None:
                out[sel] = fill_word
            else:
                # Plain dtype reinterpretation — works on read-only
                # snapshot rows too, unlike row_u64_view (which promotes).
                out[sel] = backing.view(np.dtype("<u8"))[word_idx[sel]]
        return out

    def write_u64(self, address: int, value: int) -> None:
        """Write a little-endian 64-bit word at ``address``."""
        if not 0 <= value < 2**64:
            raise ConfigurationError(f"value {value:#x} does not fit in 64 bits")
        self.write(address, value.to_bytes(8, "little"))

    def fill_row(self, row: int, byte: int) -> None:
        """Set every byte of global row ``row`` to ``byte``."""
        if not 0 <= byte <= 0xFF:
            raise ConfigurationError(f"byte {byte:#x} out of range")
        backing = self._row_array(row)
        backing[:] = byte

    def read_row(self, row: int) -> bytes:
        """Read the full contents of global row ``row``."""
        return self.read(self._geometry.row_base_address(row), self._geometry.row_bytes)

    # -- bit-level operations -----------------------------------------------
    def read_bit(self, address: int, bit: int) -> int:
        """Read one bit (0..7) of the byte at ``address``."""
        if not 0 <= bit < 8:
            raise AddressError(f"bit index {bit} outside [0, 8)")
        return (self.read(address, 1)[0] >> bit) & 1

    def write_bit(self, address: int, bit: int, value: int) -> None:
        """Set one bit of the byte at ``address`` (in place, no RMW round-trip)."""
        if not 0 <= bit < 8:
            raise AddressError(f"bit index {bit} outside [0, 8)")
        self._geometry.check_address(address, 1)
        self.write_count += 1
        row, offset = divmod(address, self._geometry.row_bytes)
        backing = self._row_array(row)
        current = int(backing[offset])
        if value:
            backing[offset] = current | (1 << bit)
        else:
            backing[offset] = current & ~(1 << bit) & 0xFF

    def flip_bit(self, address: int, bit: int) -> Tuple[int, int]:
        """Invert one bit; returns ``(old, new)`` values."""
        old = self.read_bit(address, bit)
        new = old ^ 1
        self.write_bit(address, bit, new)
        sanitize.notify(
            "dram.bit_flip", module=self, address=address, bit=bit, old=old, new=new
        )
        return old, new

    # -- batched row-level primitives -----------------------------------------
    def _check_row_positions(self, row: int, positions: np.ndarray) -> None:
        if not 0 <= row < self._geometry.total_rows:
            raise AddressError(f"row {row} outside module")
        if positions.size and (
            int(positions.min()) < 0
            or int(positions.max()) >= self._geometry.row_bytes * 8
        ):
            raise AddressError(f"bit position outside row {row}")

    def read_bits(self, row: int, positions: np.ndarray) -> np.ndarray:
        """Logic values of row-relative bit positions, in one batched read.

        ``positions`` are row-relative bit indices (``byte*8 + bit``).
        Returns a uint8 array of 0/1 values aligned with ``positions``.
        Counts as one read. Unlike :meth:`read_bit` this offers no
        ``dram.read`` event to the fault plane: a caller that stands for
        per-bit reads offers them itself, as one batch, and performs a
        firing read through :meth:`read_bit` (see ``RowHammerModel``).
        """
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        self._check_row_positions(row, positions)
        self.read_count += 1
        if positions.size == 0:
            return np.zeros(0, dtype=np.uint8)
        shifts = (positions & 7).astype(np.uint8)
        backing = self._rows.get(row)
        if backing is None:
            byte_values = np.full(positions.shape, self._fill_byte, dtype=np.uint8)
        else:
            byte_values = backing[positions >> 3]
        return (byte_values >> shifts) & np.uint8(1)

    def apply_bit_flips(
        self, row: int, positions: np.ndarray, targets: np.ndarray
    ) -> int:
        """Set row-relative bits to target values in one batched write.

        ``positions`` are row-relative bit indices; ``targets`` the 0/1
        value each bit is forced to. Duplicate positions are safe (ops are
        idempotent per direction). Counts as one write; returns the number
        of positions touched.
        """
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        self._check_row_positions(row, positions)
        targets = np.ascontiguousarray(targets, dtype=np.uint8)
        if targets.shape != positions.shape:
            raise ConfigurationError(
                f"targets shape {targets.shape} != positions shape {positions.shape}"
            )
        self.write_count += 1
        if positions.size == 0:
            return 0
        backing = self._row_array(row)
        byte_idx = positions >> 3
        masks = np.uint8(1) << (positions & 7).astype(np.uint8)
        setting = targets != 0
        if setting.any():
            np.bitwise_or.at(backing, byte_idx[setting], masks[setting])
        clearing = ~setting
        if clearing.any():
            np.bitwise_and.at(backing, byte_idx[clearing], np.invert(masks[clearing]))
        return int(positions.size)

    def row_u64_view(self, row: int) -> np.ndarray:
        """Little-endian u64 alias of ``row``'s backing array (materializes it).

        The view shares storage with the row: in-place byte writes are
        immediately visible through it and vice versa. It is invalidated
        only by :meth:`forget_row` — watch :attr:`generation`.
        """
        view = self._u64_views.get(row)
        if view is None:
            if self._geometry.row_bytes % 8:
                raise AddressError(
                    f"row size {self._geometry.row_bytes} not u64-viewable"
                )
            backing = self._row_array(row)
            view = backing.view(np.dtype("<u8"))
            self._u64_views[row] = view
        return view

    def u64_view(self, address: int, count: int) -> Optional[np.ndarray]:
        """Aliasing u64 view of ``count`` words at ``address``, or ``None``.

        Returns ``None`` (caller falls back to :meth:`read_u64`) when the
        span is unaligned, crosses a row boundary, or leaves the module.
        Used by the MMU to index page-table entries without a full
        ``read()`` per walk level.
        """
        row_bytes = self._geometry.row_bytes
        span = 8 * count
        if address < 0 or count < 0 or address % 8 or row_bytes % 8:
            return None
        if address + span > self._geometry.total_bytes:
            return None
        row, offset = divmod(address, row_bytes)
        if offset + span > row_bytes:
            return None
        start = offset // 8
        return self.row_u64_view(row)[start : start + count]

    # -- charge semantics ------------------------------------------------------
    def decay_bits(self, row: int, bit_positions: Iterable[int]) -> int:
        """Decay specific bits of ``row`` toward their discharged value.

        ``bit_positions`` are row-relative bit indices (byte*8 + bit).
        Returns the number of bits whose logic value actually changed.
        A cell-type map is required to know the discharged value.
        """
        if self._cell_map is None:
            raise AddressError("decay requires a cell-type map")
        target = self._cell_map.type_of_row(row).discharged_value
        backing = self._row_array(row)
        changed = 0
        for position in bit_positions:
            byte_index, bit = divmod(int(position), 8)
            if byte_index >= self._geometry.row_bytes:
                raise AddressError(f"bit position {position} outside row")
            current = (int(backing[byte_index]) >> bit) & 1
            if current != target:
                if target:
                    backing[byte_index] = int(backing[byte_index]) | (1 << bit)
                else:
                    backing[byte_index] = int(backing[byte_index]) & ~(1 << bit)
                changed += 1
        return changed

    def decay_row_fully(self, row: int) -> None:
        """Decay every cell of ``row`` to its discharged value.

        Models an arbitrarily long refresh-free interval: the whole row
        reads back as all-discharged (used by the profiler and coldboot).
        """
        if self._cell_map is None:
            raise AddressError("decay requires a cell-type map")
        discharged = self._cell_map.type_of_row(row).discharged_value
        self.fill_row(row, 0xFF if discharged else 0x00)

    def snapshot_row(self, row: int) -> np.ndarray:
        """Copy of the row's current content."""
        backing = self._rows.get(row)
        if backing is None:
            return np.full(self._geometry.row_bytes, self._fill_byte, dtype=np.uint8)
        return backing.copy()

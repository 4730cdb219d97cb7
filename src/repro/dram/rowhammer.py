"""Statistical RowHammer fault model.

The paper's security analysis (Section 5) rests on three published
parameters measured in large-scale DRAM studies [19, 37]:

- ``Pf`` — probability that a given bit is *vulnerable* (flippable) at all,
  observed around ``1e-4`` across a wide range of modules;
- ``P(1->0)`` / ``P(0->1)`` — conditional direction of a vulnerable bit's
  flip. In true-cells 99.8% of flips are ``1->0`` and only 0.2% go the other
  way (residual circuit effects such as voltage coupling); anti-cells mirror
  this.

We reproduce that structure exactly: each DRAM row owns a lazily-sampled,
frozen set of vulnerable bits, each with a fixed flip direction drawn from
the cell-type-conditioned statistics. Hammering an aggressor row disturbs
its physically adjacent victim rows; every vulnerable victim bit whose
current value matches its flip source changes to its flip target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs, sanitize
from repro.dram.cells import CellType
from repro.dram.module import DramModule
from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


@dataclass(frozen=True)
class FlipStatistics:
    """RowHammer bit-flip statistics (paper Section 5 parameters).

    ``p_vulnerable`` is ``Pf``. ``p_with_leak`` is the probability that a
    vulnerable bit flips in the cell's natural leak direction (``1->0`` for
    true-cells); ``1 - p_with_leak`` flips against it.
    """

    p_vulnerable: float = 1e-4
    p_with_leak: float = 0.998

    def __post_init__(self) -> None:
        if not 0 <= self.p_vulnerable <= 1:
            raise ConfigurationError("p_vulnerable must be in [0, 1]")
        if not 0 <= self.p_with_leak <= 1:
            raise ConfigurationError("p_with_leak must be in [0, 1]")

    @property
    def p_against_leak(self) -> float:
        """Probability a vulnerable bit flips against the leak direction."""
        return 1.0 - self.p_with_leak

    @classmethod
    def paper_default(cls) -> "FlipStatistics":
        """Table 2 parameters: Pf = 1e-4, P(0->1) = 0.2% in true-cells."""
        return cls(p_vulnerable=1e-4, p_with_leak=0.998)

    @classmethod
    def paper_pessimistic(cls) -> "FlipStatistics":
        """Table 3 parameters: Pf = 5e-4, P(0->1) = 0.5% in true-cells."""
        return cls(p_vulnerable=5e-4, p_with_leak=0.995)


@dataclass(frozen=True)
class BitFlip:
    """One observed flip: absolute address/bit plus old and new values."""

    address: int
    bit: int
    old: int
    new: int

    @property
    def direction(self) -> Tuple[int, int]:
        """``(old, new)`` pair."""
        return (self.old, self.new)


class FlipBatch:
    """The flips of one hammer as parallel columns, in flip order.

    ``address`` (int64) is the absolute byte address, ``bit`` the bit in
    that byte, ``old``/``new`` (uint8) the values before and after. A
    hammer induces tens of thousands of flips at the Section 5 rates, so
    they stay in numpy arrays; iterating yields :class:`BitFlip` views.
    Batches compare by value, dtypes included. Every flip-free hammer
    shares :meth:`empty`.
    """

    __slots__ = ("address", "bit", "old", "new")

    def __init__(
        self, address: np.ndarray, bit: np.ndarray, old: np.ndarray, new: np.ndarray
    ):
        self.address = address
        self.bit = bit
        self.old = old
        self.new = new

    @classmethod
    def empty(cls) -> "FlipBatch":
        """The shared flip-free batch."""
        return _NO_FLIPS

    @classmethod
    def from_columns(
        cls,
        address: Sequence[int],
        bit: Sequence[int],
        old: Sequence[int],
        new: Sequence[int],
    ) -> "FlipBatch":
        """A batch from per-flip Python sequences (the scalar oracle's form)."""
        if not len(address):
            return _NO_FLIPS
        return cls(
            np.array(address, dtype=np.int64),
            np.array(bit, dtype=np.uint8),
            np.array(old, dtype=np.uint8),
            np.array(new, dtype=np.uint8),
        )

    @classmethod
    def concat(cls, parts: Sequence["FlipBatch"]) -> "FlipBatch":
        """The parts' flips one after another."""
        if not parts:
            return _NO_FLIPS
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate(column) for column in zip(*(p.columns for p in parts))))

    @property
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(address, bit, old, new)``."""
        return (self.address, self.bit, self.old, self.new)

    def select(self, mask: np.ndarray) -> "FlipBatch":
        """The flips where boolean ``mask`` is set, in their order."""
        return FlipBatch(*(column[mask] for column in self.columns))

    def __len__(self) -> int:
        return int(self.address.size)

    def __iter__(self) -> Iterator[BitFlip]:
        for address, bit, old, new in zip(*(column.tolist() for column in self.columns)):
            yield BitFlip(address=address, bit=bit, old=old, new=new)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlipBatch):
            return NotImplemented
        return all(
            mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
            for mine, theirs in zip(self.columns, other.columns)
        )

    def __repr__(self) -> str:
        return f"FlipBatch({len(self)} flips)"


_NO_FLIPS = FlipBatch(
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.uint8),
    np.zeros(0, dtype=np.uint8),
    np.zeros(0, dtype=np.uint8),
)


@dataclass
class HammerOutcome:
    """Result of hammering one aggressor row."""

    aggressor_row: int
    victim_rows: Tuple[int, ...]
    flips: FlipBatch = field(default_factory=FlipBatch.empty)
    activations: int = 0

    @property
    def flip_count(self) -> int:
        """Total flips induced."""
        return len(self.flips)

    def flips_in_row(self, row: int, row_bytes: int) -> List[BitFlip]:
        """Flips landing in global row ``row``."""
        base = row * row_bytes
        address = self.flips.address
        return list(self.flips.select((address >= base) & (address < base + row_bytes)))


@dataclass(frozen=True)
class _VulnerableBit:
    """A frozen manufacturing defect: row-relative bit that can flip one way."""

    bit_position: int  # row-relative: byte_index * 8 + bit
    from_value: int
    to_value: int


class RowHammerModel:
    """Applies statistical RowHammer disturbances to a :class:`DramModule`.

    Parameters
    ----------
    module:
        Target module (must carry a cell-type map).
    stats:
        Flip statistics (Pf and direction split).
    seed:
        RNG seed; the vulnerable-bit map is deterministic given the seed.
    activation_probability:
        Probability that a sufficient hammer burst actually triggers each
        vulnerable bit. 1.0 models the paper's worst case (an attacker who
        hammers until flips saturate).
    refresh_rate_multiplier:
        Effect of the increased-refresh countermeasure: at multiplier ``m``
        each vulnerable bit's trigger probability is divided by ``m``
        (fewer activations fit in a refresh window). The paper notes even
        high rates give no guarantee — the model keeps probability > 0.
    slow_reference:
        Run the scalar per-bit disturb, a test oracle only: it is never
        selected otherwise, an armed fault plane included. The vectorized
        path consumes the RNG stream and offers ``dram.read`` fault events
        identically, so both produce bit-identical outcomes and fault
        schedules for the same seed — equivalence tests and ``repro
        bench`` rely on this flag for the reference side.
    """

    def __init__(
        self,
        module: DramModule,
        stats: Optional[FlipStatistics] = None,
        seed: SeedLike = None,
        activation_probability: float = 1.0,
        refresh_rate_multiplier: float = 1.0,
        slow_reference: bool = False,
    ):
        if module.cell_map is None:
            raise ConfigurationError("RowHammerModel requires a module with a cell map")
        if not 0 < activation_probability <= 1:
            raise ConfigurationError("activation_probability must be in (0, 1]")
        if refresh_rate_multiplier < 1:
            raise ConfigurationError("refresh_rate_multiplier must be >= 1")
        self._module = module
        # Per-instance default: a module-level default instance would be
        # shared by every model constructed without explicit stats.
        self._stats = stats if stats is not None else FlipStatistics.paper_default()
        self._rng = make_rng(seed)
        self._activation_probability = activation_probability / refresh_rate_multiplier
        self._vulnerable: Dict[int, Tuple[_VulnerableBit, ...]] = {}
        # Vulnerable-bit sets mirrored as numpy arrays (positions/from/to)
        # for the vectorized disturb path; rebuilt lazily per row.
        self._vulnerable_arrays: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._slow_reference = bool(slow_reference)
        #: Total hammer invocations (for attack-time accounting).
        self.hammer_count = 0

    @property
    def stats(self) -> FlipStatistics:
        """Flip statistics in force."""
        return self._stats

    @property
    def module(self) -> DramModule:
        """The module being disturbed."""
        return self._module

    # -- vulnerable-bit map -------------------------------------------------
    def vulnerable_bits(self, row: int) -> Tuple[_VulnerableBit, ...]:
        """The frozen vulnerable-bit set of ``row`` (sampled on first use).

        The sampling itself lives in :meth:`_vulnerable_row_arrays`; this
        tuple view is materialized lazily for the scalar disturb path and
        tests — at paper-scale rows (a million bits each) building tens of
        thousands of dataclass instances per first-touched row dominated
        Algorithm 1's live runtime.
        """
        cached = self._vulnerable.get(row)
        if cached is not None:
            return cached
        positions, from_values, to_values = self._vulnerable_row_arrays(row)
        frozen = tuple(
            _VulnerableBit(position, from_value, to_value)
            for position, from_value, to_value in zip(
                positions.tolist(), from_values.tolist(), to_values.tolist()
            )
        )
        self._vulnerable[row] = frozen
        return frozen

    def seed_vulnerable_bits(self, row: int, bits: Sequence[Tuple[int, int, int]]) -> None:
        """Override the vulnerable-bit map of ``row`` (testing hook).

        ``bits`` is a sequence of ``(bit_position, from_value, to_value)``;
        each bit flips ``0 -> 1`` or ``1 -> 0``.
        """
        frozen = tuple(
            sorted(
                (_VulnerableBit(int(p), int(f), int(t)) for p, f, t in bits),
                key=lambda b: b.bit_position,
            )
        )
        if any((b.from_value, b.to_value) not in ((0, 1), (1, 0)) for b in frozen):
            raise ConfigurationError("a vulnerable bit must flip 0 -> 1 or 1 -> 0")
        self._vulnerable[row] = frozen
        self._vulnerable_arrays.pop(row, None)

    def _vulnerable_row_arrays(
        self, row: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, from_values, to_values)`` arrays for ``row``.

        This is the primary vulnerable-bit store, sampled vectorized on
        first touch and sorted by bit position. The RNG stream is
        bit-identical to the historical scalar sampler: one ``binomial``,
        one ``choice``, then one ``random(count)`` — a numpy Generator
        fills an array draw from the same stream as ``count`` scalar
        ``random()`` calls, the equivalence the vectorized disturb path
        already depends on. Seeded rows (:meth:`seed_vulnerable_bits`)
        mirror their tuple instead of sampling.
        """
        cached = self._vulnerable_arrays.get(row)
        if cached is not None:
            return cached
        seeded = self._vulnerable.get(row)
        if seeded is not None:
            n = len(seeded)
            cached = (
                np.fromiter((b.bit_position for b in seeded), dtype=np.int64, count=n),
                np.fromiter((b.from_value for b in seeded), dtype=np.uint8, count=n),
                np.fromiter((b.to_value for b in seeded), dtype=np.uint8, count=n),
            )
            self._vulnerable_arrays[row] = cached
            return cached
        row_bits = self._module.geometry.row_bytes * 8
        count = int(self._rng.binomial(row_bits, self._stats.p_vulnerable))
        if count:
            positions = np.asarray(
                self._rng.choice(row_bits, size=count, replace=False),
                dtype=np.int64,
            )
        else:
            positions = np.zeros(0, dtype=np.int64)
        cell_type = self._module.cell_map.type_of_row(row)
        leak_from, leak_to = cell_type.leak_direction
        with_leak = self._rng.random(count) < self._stats.p_with_leak
        from_values = np.where(with_leak, leak_from, leak_to).astype(np.uint8)
        to_values = np.where(with_leak, leak_to, leak_from).astype(np.uint8)
        order = np.argsort(positions)
        cached = (positions[order], from_values[order], to_values[order])
        self._vulnerable_arrays[row] = cached
        return cached

    # -- hammering ----------------------------------------------------------
    def hammer(self, aggressor_row: int, activations: int = 2_000_000) -> HammerOutcome:
        """Hammer one aggressor row; disturb its physical neighbors.

        ``activations`` is bookkeeping only (attack-time accounting); flip
        occurrence is governed by the statistical model.
        """
        victims = self._module.geometry.neighbors(aggressor_row)
        return self._disturb(aggressor_row, victims, activations)

    def hammer_double_sided(
        self, victim_row: int, activations: int = 2_000_000
    ) -> HammerOutcome:
        """Classic double-sided hammer: activate both neighbors of ``victim_row``.

        Only ``victim_row`` itself is disturbed (both aggressors bracket it),
        which is the Project Zero tool's configuration [32].
        """
        neighbors = self._module.geometry.neighbors(victim_row)
        if len(neighbors) < 2:
            raise ConfigurationError(
                f"row {victim_row} lacks two same-bank neighbors for double-sided hammer"
            )
        outcome = self._disturb(neighbors[0], (victim_row,), activations)
        outcome.aggressor_row = victim_row  # report the targeted victim's hammer site
        return outcome

    def _disturb(
        self, aggressor_row: int, victims: Tuple[int, ...], activations: int
    ) -> HammerOutcome:
        self.hammer_count += 1
        obs.inc("rowhammer.hammers")
        obs.inc("rowhammer.activations", activations)
        if self._slow_reference:
            flips = self._disturb_scalar(victims)
        else:
            flips = self._disturb_vectorized(victims)
        outcome = HammerOutcome(aggressor_row, victims, flips, activations)
        flip_count = len(flips)
        obs.observe("rowhammer.flips_per_hammer", flip_count)
        obs.trace(
            "rowhammer.hammer",
            aggressor=aggressor_row,
            victims=len(victims),
            flips=flip_count,
            activations=activations,
        )
        sanitize.notify("rowhammer.hammer", hammer=self, module=self._module, outcome=outcome)
        return outcome

    def _disturb_scalar(self, victims: Tuple[int, ...]) -> FlipBatch:
        """Per-bit reference oracle (one ``dram.read`` hook per access)."""
        row_bytes = self._module.geometry.row_bytes
        addresses: List[int] = []
        bits: List[int] = []
        old_values: List[int] = []
        new_values: List[int] = []
        for victim in victims:
            base = victim * row_bytes
            cell = self._module.cell_map.type_of_row(victim).value
            for vuln in self.vulnerable_bits(victim):
                if self._activation_probability < 1.0:
                    if self._rng.random() >= self._activation_probability:
                        continue
                byte_index, bit = divmod(vuln.bit_position, 8)
                address = base + byte_index
                current = self._module.read_bit(address, bit)  # repro-lint: ignore[RL007] — reference path
                if current == vuln.from_value:
                    self._module.write_bit(address, bit, vuln.to_value)  # repro-lint: ignore[RL007] — reference path
                    addresses.append(address)
                    bits.append(bit)
                    old_values.append(current)
                    new_values.append(vuln.to_value)
                    obs.inc(  # repro-lint: ignore[RL007] — reference path
                        "rowhammer.flips",
                        direction=f"{current}to{vuln.to_value}",
                        cell=cell,
                    )
        return FlipBatch.from_columns(addresses, bits, old_values, new_values)

    def _disturb_vectorized(self, victims: Tuple[int, ...]) -> FlipBatch:
        """Batched disturb: one masked compare + one flip write per victim row.

        Consumes the RNG stream exactly like :meth:`_disturb_scalar` (one
        uniform draw per vulnerable bit, in bit-position order, only when
        ``activation_probability < 1``) and, under an armed fault plane,
        offers it the same ``dram.read`` events (see
        :meth:`_offer_row_reads`), so outcomes and fault schedules are
        bit-identical.
        """
        module = self._module
        probability = self._activation_probability
        parts: List[FlipBatch] = []
        flip_totals: Dict[Tuple[str, str], int] = {}
        for victim in victims:
            arrays = self._vulnerable_row_arrays(victim)
            positions, from_values, _ = arrays
            if positions.size == 0:
                continue
            flip_mask = module.read_bits(victim, positions) == from_values
            armed = module.fault_plane_armed
            active: Optional[np.ndarray] = None
            undo = None
            if probability < 1.0:
                if armed:
                    undo = self._rng.bit_generator.state
                active = self._rng.random(positions.size) < probability
                flip_mask &= active
            if armed:
                self._offer_row_reads(
                    parts, victim, arrays, flip_mask, active, undo, flip_totals
                )
            self._apply_flips(parts, victim, arrays, flip_mask, flip_totals)
        self._count_flips(flip_totals)
        return FlipBatch.concat(parts)

    def _offer_row_reads(
        self,
        parts: List[FlipBatch],
        victim: int,
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray],
        flip_mask: np.ndarray,
        active: Optional[np.ndarray],
        undo: object,
        flip_totals: Dict[Tuple[str, str], int],
    ) -> None:
        """Offer a victim row's per-bit reads to the armed plane as one batch.

        The scalar path reads every activated bit (all of them when
        ``active`` is None), in bit order, each read a ``dram.read``
        event. At an event where an injector fires, the flips before it
        are applied (and cleared from ``flip_mask``) and counted, then the
        read is performed as the scalar path performs it
        (:meth:`_read_firing_bit`). ``undo`` is the hammer stream's state
        before the row's activation draw.
        """
        positions = arrays[0]
        if active is None:
            activated = np.arange(positions.size)
        else:
            activated = np.flatnonzero(active)
        count = int(activated.size)
        for _, stop in faults.fault_free_runs("dram.read", count, module=self._module):
            if stop == count:
                break
            hit = int(activated[stop])
            before = flip_mask.copy()
            before[hit:] = False
            self._apply_flips(parts, victim, arrays, before, flip_totals)
            flip_mask[:hit] = False
            self._count_flips(flip_totals)
            self._read_firing_bit(victim, int(positions[hit]), undo, hit + 1)

    def _read_firing_bit(
        self, victim: int, position: int, undo: object, draws: int
    ) -> None:
        """Perform a ``dram.read`` at which an injector fires, as the scalar path does.

        Goes through ``module.read_bit``, so the firing is counted, traced
        and raised exactly like a scalar access (with the host address
        under a guest window). On a raise the hammer stream is rewound to
        ``undo`` plus the ``draws`` the scalar loop had made by then.
        """
        module = self._module
        byte_index, bit = divmod(position, 8)
        try:
            module.read_bit(victim * module.geometry.row_bytes + byte_index, bit)
        except Exception:
            if undo is not None:
                self._rng.bit_generator.state = undo
                self._rng.random(draws)
            raise

    def _apply_flips(
        self,
        parts: List[FlipBatch],
        victim: int,
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray],
        flip_mask: np.ndarray,
        flip_totals: Dict[Tuple[str, str], int],
    ) -> None:
        """Flip the masked bits of ``victim``; append their batch to ``parts``.

        Also tallies them per ``(direction, cell)`` series in ``flip_totals``.
        """
        if not flip_mask.any():
            return
        positions, from_values, to_values = arrays
        module = self._module
        flip_positions = positions[flip_mask]
        old_values = from_values[flip_mask]
        new_values = to_values[flip_mask]
        module.apply_bit_flips(victim, flip_positions, new_values)
        parts.append(
            FlipBatch(
                victim * module.geometry.row_bytes + (flip_positions >> 3),
                (flip_positions & 7).astype(np.uint8),
                old_values,
                new_values,
            )
        )
        cell = module.cell_map.type_of_row(victim).value
        rising = int(np.count_nonzero(new_values))  # every flip is 0->1 or 1->0
        for direction, count in (("0to1", rising), ("1to0", new_values.size - rising)):
            if count:
                key = (direction, cell)
                flip_totals[key] = flip_totals.get(key, 0) + count

    @staticmethod
    def _count_flips(flip_totals: Dict[Tuple[str, str], int]) -> None:
        """Flush tallied flips: one obs update per (direction, cell) series.

        Totals match the scalar path's one inc per flip exactly.
        """
        for (direction, cell), count in sorted(flip_totals.items()):
            obs.inc("rowhammer.flips", count, direction=direction, cell=cell)  # repro-lint: ignore[RL007] — aggregated
        flip_totals.clear()

    # -- statistics helpers ---------------------------------------------------
    def expected_flips_per_row(self, cell_type: CellType, stored_value: int) -> float:
        """Expected flips in a victim row holding all-``stored_value`` data.

        Used by tests to check the model against the closed-form rates:
        a row of 1s in true-cells flips at ``Pf * p_with_leak`` per bit.
        """
        row_bits = self._module.geometry.row_bytes * 8
        leak_from, _ = cell_type.leak_direction
        if stored_value == leak_from:
            per_bit = self._stats.p_vulnerable * self._stats.p_with_leak
        else:
            per_bit = self._stats.p_vulnerable * self._stats.p_against_leak
        return row_bits * per_bit * self._activation_probability

"""Statistical RowHammer model."""

import numpy as np
import pytest

from repro.dram.cells import CellType, CellTypeMap
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.dram.rowhammer import BitFlip, FlipBatch, FlipStatistics, RowHammerModel
from repro.errors import ConfigurationError
from repro.units import MIB

ROW_BYTES = 16 * 1024


def _module():
    geometry = DramGeometry(total_bytes=4 * MIB, row_bytes=ROW_BYTES, num_banks=2)
    cell_map = CellTypeMap.interleaved(geometry, period_rows=8)
    return DramModule(geometry, cell_map)


@pytest.fixture
def hammer_module():
    return _module()


class TestFlipStatistics:
    def test_paper_defaults(self):
        stats = FlipStatistics.paper_default()
        assert stats.p_vulnerable == 1e-4
        assert stats.p_with_leak == 0.998
        assert abs(stats.p_against_leak - 0.002) < 1e-12

    def test_paper_pessimistic(self):
        stats = FlipStatistics.paper_pessimistic()
        assert stats.p_vulnerable == 5e-4
        assert abs(stats.p_against_leak - 0.005) < 1e-12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlipStatistics(p_vulnerable=1.5)
        with pytest.raises(ConfigurationError):
            FlipStatistics(p_with_leak=-0.1)


class TestVulnerableBits:
    def test_deterministic_given_seed(self, hammer_module):
        bits_a = RowHammerModel(hammer_module, seed=11).vulnerable_bits(5)
        bits_b = RowHammerModel(hammer_module, seed=11).vulnerable_bits(5)
        assert bits_a == bits_b

    def test_cached_per_row(self, hammer_module):
        model = RowHammerModel(hammer_module, seed=1)
        assert model.vulnerable_bits(3) is model.vulnerable_bits(3)

    def test_count_matches_pf(self, hammer_module):
        stats = FlipStatistics(p_vulnerable=1e-2, p_with_leak=0.998)
        model = RowHammerModel(hammer_module, stats, seed=4)
        row_bits = hammer_module.geometry.row_bytes * 8
        counts = [len(model.vulnerable_bits(row)) for row in range(40)]
        mean = sum(counts) / len(counts)
        assert 0.7 * row_bits * 1e-2 < mean < 1.3 * row_bits * 1e-2

    def test_direction_split_true_cells(self, hammer_module):
        stats = FlipStatistics(p_vulnerable=5e-2, p_with_leak=0.9)
        model = RowHammerModel(hammer_module, stats, seed=2)
        # Row 0 is a true-cell row: dominant direction must be 1 -> 0.
        bits = model.vulnerable_bits(0)
        with_leak = sum(1 for b in bits if (b.from_value, b.to_value) == (1, 0))
        assert with_leak > 0.8 * len(bits)

    def test_direction_split_anti_cells(self, hammer_module):
        stats = FlipStatistics(p_vulnerable=5e-2, p_with_leak=0.9)
        model = RowHammerModel(hammer_module, stats, seed=2)
        bits = model.vulnerable_bits(8)  # anti-cell row
        with_leak = sum(1 for b in bits if (b.from_value, b.to_value) == (0, 1))
        assert with_leak > 0.8 * len(bits)

    def test_seeding_override(self, hammer_module):
        model = RowHammerModel(hammer_module, seed=1)
        model.seed_vulnerable_bits(4, [(100, 1, 0), (7, 0, 1)])
        bits = model.vulnerable_bits(4)
        assert [b.bit_position for b in bits] == [7, 100]
        with pytest.raises(ConfigurationError):
            model.seed_vulnerable_bits(4, [(3, 1, 1)])

    def test_requires_cell_map(self):
        geometry = DramGeometry(total_bytes=1 * MIB, row_bytes=16 * 1024, num_banks=1)
        with pytest.raises(ConfigurationError):
            RowHammerModel(DramModule(geometry))


class TestHammer:
    def test_flips_only_matching_direction(self, hammer_module):
        model = RowHammerModel(hammer_module, seed=1)
        model.seed_vulnerable_bits(5, [(0, 1, 0), (1, 0, 1)])
        hammer_module.fill_row(5, 0x00)  # all bits 0: only the 0->1 bit fires
        outcome = model.hammer(4)
        flips_in_5 = outcome.flips_in_row(5, hammer_module.geometry.row_bytes)
        assert [(f.old, f.new) for f in flips_in_5] == [(0, 1)]

    def test_hammer_hits_both_neighbors(self, hammer_module):
        model = RowHammerModel(hammer_module, seed=1)
        outcome = model.hammer(10)
        assert outcome.victim_rows == (9, 11)

    def test_saturation_no_double_flip(self, hammer_module):
        model = RowHammerModel(hammer_module, seed=1)
        model.seed_vulnerable_bits(5, [(0, 1, 0)])
        hammer_module.fill_row(5, 0xFF)
        first = model.hammer(4)
        second = model.hammer(4)
        assert first.flip_count >= 1
        assert second.flips_in_row(5, hammer_module.geometry.row_bytes) == []

    def test_double_sided_targets_single_victim(self, hammer_module):
        model = RowHammerModel(hammer_module, seed=1)
        outcome = model.hammer_double_sided(10)
        assert outcome.victim_rows == (10,)

    def test_double_sided_requires_two_neighbors(self, hammer_module):
        model = RowHammerModel(hammer_module, seed=1)
        with pytest.raises(ConfigurationError):
            model.hammer_double_sided(0)

    def test_hammer_count_increments(self, hammer_module):
        model = RowHammerModel(hammer_module, seed=1)
        model.hammer(5)
        model.hammer(6)
        assert model.hammer_count == 2

    def test_refresh_multiplier_reduces_flips(self, hammer_module):
        stats = FlipStatistics(p_vulnerable=2e-2, p_with_leak=0.9)
        baseline = RowHammerModel(hammer_module, stats, seed=3)
        hammer_module.fill_row(20, 0xFF)
        base_flips = baseline.hammer(19).flips_in_row(20, hammer_module.geometry.row_bytes)

        geometry2 = DramGeometry(total_bytes=4 * MIB, row_bytes=16 * 1024, num_banks=2)
        map2 = CellTypeMap.interleaved(geometry2, period_rows=8)
        module2 = DramModule(geometry2, map2)
        defended = RowHammerModel(
            module2, stats, seed=3, refresh_rate_multiplier=8.0
        )
        module2.fill_row(20, 0xFF)
        defended_flips = defended.hammer(19).flips_in_row(20, module2.geometry.row_bytes)
        assert len(defended_flips) < len(base_flips)

    def test_expected_flips_formula(self, hammer_module):
        stats = FlipStatistics(p_vulnerable=1e-2, p_with_leak=0.9)
        model = RowHammerModel(hammer_module, stats, seed=5)
        row_bits = hammer_module.geometry.row_bytes * 8
        expected = model.expected_flips_per_row(CellType.TRUE, stored_value=1)
        assert expected == pytest.approx(row_bits * 1e-2 * 0.9)
        expected_zero = model.expected_flips_per_row(CellType.TRUE, stored_value=0)
        assert expected_zero == pytest.approx(row_bits * 1e-2 * 0.1)

    def test_empirical_rate_matches_expected(self, hammer_module):
        stats = FlipStatistics(p_vulnerable=1e-2, p_with_leak=0.9)
        model = RowHammerModel(hammer_module, stats, seed=6)
        total = 0.0
        rows = list(range(1, 60, 3))
        for victim in rows:
            hammer_module.fill_row(victim, 0xFF)
            outcome = model.hammer_double_sided(victim)
            total += outcome.flip_count
        mean = total / len(rows)
        # Victims alternate cell type, so average the two expectations.
        expected_true = model.expected_flips_per_row(CellType.TRUE, 1)
        expected_anti = model.expected_flips_per_row(CellType.ANTI, 1)
        expected = (expected_true + expected_anti) / 2
        assert 0.7 * expected < mean < 1.3 * expected

    def test_bad_parameters(self, hammer_module):
        with pytest.raises(ConfigurationError):
            RowHammerModel(hammer_module, activation_probability=0.0)
        with pytest.raises(ConfigurationError):
            RowHammerModel(hammer_module, refresh_rate_multiplier=0.5)


class TestFlipBatch:
    @staticmethod
    def _outcomes(slow_reference):
        module = _module()
        for row in range(24):
            module.fill_row(row, 0xFF if row % 2 else 0x5A)
        model = RowHammerModel(
            module,
            FlipStatistics(p_vulnerable=2e-2, p_with_leak=0.7),
            seed=9,
            activation_probability=0.8,
            slow_reference=slow_reference,
        )
        return [model.hammer(row) for row in (3, 8, 13)] + [
            model.hammer_double_sided(18)
        ]

    def test_vectorized_equals_scalar_oracle_dtypes_included(self):
        vectorized, scalar = self._outcomes(False), self._outcomes(True)
        assert vectorized == scalar
        assert all(outcome.flip_count for outcome in vectorized)
        for outcome in vectorized + scalar:
            flips = outcome.flips
            assert flips.address.dtype == np.int64
            assert flips.bit.dtype == flips.old.dtype == flips.new.dtype == np.uint8

    def test_value_equality_sees_dtype(self):
        flips = self._outcomes(False)[0].flips
        columns = (flips.address, flips.bit, flips.old, flips.new)
        assert flips == FlipBatch(*(column.copy() for column in columns))
        widened = FlipBatch(flips.address, flips.bit.astype(np.int64), flips.old, flips.new)
        assert flips != widened

    def test_iteration_yields_the_oracles_bitflips(self):
        vectorized, scalar = self._outcomes(False), self._outcomes(True)
        got = [flip for outcome in vectorized for flip in outcome.flips]
        want = [flip for outcome in scalar for flip in outcome.flips]
        assert got == want
        assert all(type(flip) is BitFlip for flip in got)
        assert all(type(flip.address) is int for flip in got)

    def test_flips_in_row_filters_in_flip_order(self):
        outcome = self._outcomes(False)[0]
        for row in outcome.victim_rows:
            base = row * ROW_BYTES
            expected = [f for f in outcome.flips if base <= f.address < base + ROW_BYTES]
            assert expected
            assert outcome.flips_in_row(row, ROW_BYTES) == expected
        assert outcome.flips_in_row(outcome.aggressor_row, ROW_BYTES) == []

    @pytest.mark.parametrize("slow_reference", [False, True])
    def test_flip_free_hammer_shares_the_empty_batch(self, slow_reference):
        model = RowHammerModel(
            _module(), FlipStatistics(p_vulnerable=0.0), seed=1,
            slow_reference=slow_reference,
        )
        first, second = model.hammer(4), model.hammer_double_sided(9)
        assert first.flips is second.flips is FlipBatch.empty()
        assert first.flip_count == 0 and list(first.flips) == []

"""DRAM substrate: geometry, true/anti cells, RowHammer fault model.

This subpackage simulates the hardware layer the paper's defense is built
on. The key exported pieces are:

- :class:`~repro.dram.geometry.DramGeometry` — module shape and address math
- :class:`~repro.dram.cells.CellTypeMap` — which rows are true/anti cells
- :class:`~repro.dram.module.DramModule` — sparse byte-addressable storage
- :class:`~repro.dram.rowhammer.RowHammerModel` — statistical bit-flip model
- :class:`~repro.dram.profiler.CellTypeProfiler` — system-level cell typing
"""

from repro.dram.cells import CellType, CellTypeMap
from repro.dram.ecc import DecodeStatus, EccWordStore, SecdedCodec
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.dram.refresh import RefreshScheduler
from repro.dram.remap import RowRemapper
from repro.dram.retention import RetentionModel
from repro.dram.rowhammer import FlipBatch, FlipStatistics, HammerOutcome, RowHammerModel
from repro.dram.profiler import CellTypeProfiler

__all__ = [
    "CellType",
    "CellTypeMap",
    "CellTypeProfiler",
    "DecodeStatus",
    "DramGeometry",
    "DramModule",
    "EccWordStore",
    "SecdedCodec",
    "FlipBatch",
    "FlipStatistics",
    "HammerOutcome",
    "RefreshScheduler",
    "RetentionModel",
    "RowHammerModel",
    "RowRemapper",
]

"""Per-layer metrics of a traced run.

Inputs are the tracer's per-boundary ``(calls, total_s, self_s)``, exact
counters from the program's obs registry, and the traced and untraced
rates. Every workload reports every metric; a layer the workload does
not exercise reads 0. Times are host seconds summed over the traced
passes; counts are simulated work over the same passes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from common import median
from tracer import LAYERS, layer_of

#: Self-time metric for every layer, and the time outside all of them.
LAYER_SELF = tuple(f"{layer}.self_s" for layer in LAYERS) + ("harness.self_s",)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("dram.read.calls", "count", "lower"),
    ("dram.access.self_s", "s", "lower"),
    ("faults.notify.calls", "count", "lower"),
    ("faults.notify.self_s", "s", "lower"),
    ("faults.fire_ratio", "ratio", "higher"),
    ("dram.hammer.calls", "count", "lower"),
    ("dram.hammer.self_s", "s", "lower"),
    ("dram.us_per_hammer", "us", "lower"),
    ("dram.flips", "count", "lower"),
    ("payload.run.self_s", "s", "lower"),
    ("payload.executions", "count", "lower"),
    ("obs.inc.calls", "count", "lower"),
    ("kernel.boot.self_s", "s", "lower"),
    ("kernel.mmap.self_s", "s", "lower"),
    ("kernel.mmu.self_s", "s", "lower"),
    ("kernel.mmu.walks", "count", "lower"),
    ("kernel.mmu.walk_levels", "count", "lower"),
    ("kernel.tlb.hit_ratio", "ratio", "higher"),
    ("kernel.pte_allocs", "count", "lower"),
    ("attacks.prepare.self_s", "s", "lower"),
    ("attacks.execute.self_s", "s", "lower"),
    ("dram.read_many.calls", "count", "lower"),
    ("dram.resident_rows", "rows", "lower"),
    ("sanitize.checks", "count", "lower"),
    ("verify.payload_checks", "count", "lower"),
    ("analysis.montecarlo.self_s", "s", "lower"),
    ("campaign.segments", "count", "higher"),
    ("campaign.retries", "count", "lower"),
    ("memo.hits", "count", "higher"),
    ("memo.misses", "count", "lower"),
    ("memo.stores", "count", "lower"),
    ("memo.hit_ratio", "ratio", "higher"),
    ("memo.bytes", "B", "lower"),
    ("memo.lookup.self_s", "s", "lower"),
    ("memo.store.self_s", "s", "lower"),
    ("service.admitted", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.shed", "count", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.protocol.self_s", "s", "lower"),
    ("service.merge.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.elapsed_s", "s", "lower"),
) + tuple((name, "s", "lower") for name in LAYER_SELF)

#: Boundaries whose self time makes up ``dram.access.self_s``.
DRAM_ACCESS = (
    "dram.read",
    "dram.read_bit",
    "dram.write",
    "dram.write_bit",
    "dram.read_u64",
    "dram.write_u64",
    "dram.flip_bit",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    boundaries: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    traced_elapsed_s: float,
    traced_rate: float,
    untraced_rate: float,
    queue_waits_s: List[float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run's raw data."""

    def calls(*names: str) -> float:
        return float(sum(boundaries.get(n, {}).get("calls", 0) for n in names))

    def self_s(*names: str) -> float:
        return sum(boundaries.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(*names: str) -> float:
        return sum(boundaries.get(n, {}).get("total_s", 0.0) for n in names)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in boundaries.items():
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self_s"]
    hammers = calls("dram.hammer")
    tlb_lookups = counters.get("tlb.hits", 0.0) + counters.get("tlb.misses", 0.0)
    memo_lookups = counters.get("memo.hits", 0.0) + counters.get("memo.misses", 0.0)
    values: Dict[str, float] = {
        "dram.read.calls": calls("dram.read"),
        "dram.access.self_s": self_s(*DRAM_ACCESS),
        "faults.notify.calls": calls("faults.notify"),
        "faults.notify.self_s": self_s("faults.notify", "faults.dispatch"),
        "faults.fire_ratio": _ratio(
            counters.get("faults.injected", 0.0), calls("faults.dispatch")
        ),
        "dram.hammer.calls": hammers,
        "dram.hammer.self_s": self_s("dram.hammer"),
        "dram.us_per_hammer": _ratio(total_s("dram.hammer"), hammers) * 1e6,
        "dram.flips": counters.get("rowhammer.flips", 0.0),
        "payload.run.self_s": self_s("payload.run"),
        "payload.executions": counters.get("payload.executions", 0.0),
        "obs.inc.calls": calls("obs.inc"),
        "kernel.boot.self_s": self_s("kernel.boot"),
        "kernel.mmap.self_s": self_s("kernel.mmap"),
        "kernel.mmu.self_s": self_s("kernel.mmu"),
        "kernel.mmu.walks": counters.get("mmu.walks", 0.0),
        "kernel.mmu.walk_levels": counters.get("mmu.walk.levels", 0.0),
        "kernel.tlb.hit_ratio": _ratio(counters.get("tlb.hits", 0.0), tlb_lookups),
        "kernel.pte_allocs": counters.get("kernel.pte_allocs", 0.0),
        "attacks.prepare.self_s": self_s("attacks.prepare"),
        "attacks.execute.self_s": self_s("attacks.execute"),
        "dram.read_many.calls": calls("dram.read_many", "dram.read_u64_many"),
        "dram.resident_rows": counters.get("dram.resident_rows", 0.0),
        "sanitize.checks": counters.get("sanitize.checks", 0.0),
        "verify.payload_checks": counters.get("verify.payload_checks", 0.0),
        "analysis.montecarlo.self_s": self_s("analysis.montecarlo"),
        "campaign.segments": counters.get("campaign.segments", 0.0),
        "campaign.retries": counters.get("campaign.retries", 0.0),
        "memo.hits": counters.get("memo.hits", 0.0),
        "memo.misses": counters.get("memo.misses", 0.0),
        "memo.stores": counters.get("memo.stores", 0.0),
        "memo.hit_ratio": _ratio(counters.get("memo.hits", 0.0), memo_lookups),
        "memo.bytes": counters.get("memo.bytes", 0.0),
        "memo.lookup.self_s": self_s("memo.lookup"),
        "memo.store.self_s": self_s("memo.store"),
        "service.admitted": counters.get("service.admitted", 0.0),
        "service.rejected": counters.get("service.rejected", 0.0),
        "service.shed": counters.get("service.shed", 0.0),
        "service.queue_wait_ms_p50": (
            median(queue_waits_s) * 1000.0 if queue_waits_s else 0.0
        ),
        "service.protocol.self_s": self_s("service.protocol"),
        "service.merge.self_s": self_s("service.merge"),
        "trace.overhead_ratio": _ratio(traced_rate, untraced_rate),
        "trace.elapsed_s": traced_elapsed_s,
    }
    for layer, seconds in layer_self.items():
        values[f"{layer}.self_s"] = seconds
    values["harness.self_s"] = max(0.0, traced_elapsed_s - sum(layer_self.values()))
    return {name: values[name] for name, _, _ in PER_LAYER}


def layer_shares(metrics: Dict[str, float]) -> List[Tuple[str, float]]:
    """Each layer's share of all self time, largest first."""
    total = sum(metrics[name] for name in LAYER_SELF)
    shares = [(name[: -len(".self_s")], metrics[name] / total if total else 0.0)
              for name in LAYER_SELF]
    return sorted(shares, key=lambda item: -item[1])


def per_layer_output(metrics: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """The ``metrics`` object of a ``--trace 1`` result line."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}

"""Hot-path microbenchmarks behind ``repro bench``.

Cases with a scalar twin are timed against a same-seed reference so the
reported speedups are apples-to-apples on the *same machine in the same
run*:

``hammer_heavy``
    A burst of double-/single-sided hammers through the vectorized
    :class:`~repro.dram.rowhammer.RowHammerModel` vs the scalar
    ``slow_reference`` path. Equal flip totals are asserted — a speedup
    built on divergent results would be meaningless.
``walk_heavy``
    TLB-off translation sweeps: the frontier ``translate_many`` walker
    vs the scalar ``slow_reference`` walk loop over the same warm
    working set, identical physical addresses asserted and a minimum
    speedup *gated* (a walk path that stops beating the scalar loop
    fails the bench outright, not just the baseline comparison).
``walk_frontier``
    The frontier walker at width: thousands of VPNs spanning many leaf
    tables (shared interior nodes deduplicated per level), TLB off, vs
    the same-seed scalar reference; identical addresses asserted.
``live_boot_multigb``
    Paper-scale live simulation: boot a 2 GiB sparse module (128 KiB
    rows, N=512 interleave, CTA on, ``profile_cells`` off) and run the
    truncated live Algorithm 1 plus the templating attack through
    :func:`repro.perf.paperscale.run_paperscale_campaign`. Gates that
    the attacks stay blocked/exhausted and that resident DRAM stays
    inside the bench memory budget — the sparse-store contract, priced.
``campaign``
    Serial probabilistic-attack trials via the campaign fan-out target
    (throughput signal for Monte-Carlo scaling; deterministic, so its
    ops/s is comparable across commits on the same hardware).
``campaign_memo_warm``
    The same campaign run twice through a shared
    :class:`~repro.perf.memo.SegmentMemo`: cold (all misses, populates
    the cache) then warm (all hits). Byte-identical reports are
    asserted and the warm/cold speedup is *gated* at
    :data:`MEMO_SPEEDUP_FLOOR` — a cache that stops paying for itself
    fails the bench outright.
``service_multi_tenant_memo``
    N tenants submit the same campaign through one
    :class:`~repro.service.server.CampaignService` sharing a segment
    memo. All N reports must be byte-identical and the hit rate is
    gated at (N-1)/N — only the first tenant may compute.
``walk_batch``
    TLB-on translation sweeps through :meth:`~repro.kernel.mmu.Mmu.
    translate_many` vs the same-seed scalar ``slow_reference`` loop,
    with identical physical-address vectors asserted.
``spray_batch``
    Spray-style setup + verify (map/fault a region per mapping, then
    re-read every page) through :meth:`~repro.kernel.kernel.Kernel.
    mmap_touch_many` / :meth:`~repro.kernel.mmu.Mmu.load_many` vs the
    per-page reference loops; identical frames and bytes asserted.
``snapshot_warm_start``
    Per-segment setup cost: cold boot + spray vs attaching
    copy-on-write to a :class:`~repro.perf.snapshot.SimulatorSnapshot`.
``chaos_smoke``
    The default ``repro chaos --smoke`` rotation end to end (seed 1, 3
    segments under ``--quick``). Every segment runs under an armed
    fault plane, so this times the vectorized disturb with batched
    ``dram.read`` fault offers; a fall back to the per-bit scalar
    disturb is ~9x slower and fails the baseline gate. Seed 1 fires
    ``dram-read-error`` mid-hammer and retries segment 0, which the
    case asserts, so a firing inside a batch is always on the timed path.

``run_bench_suite`` returns a JSON-ready report; ``write_bench_report``
persists it (``BENCH_hotpath.json``) atomically via a temp file +
``os.replace`` so a crashed bench never leaves a truncated report, and
``check_baseline`` compares ops/s against a committed baseline with a
regression factor — CI fails when any case regresses more than 2x.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import obs
from repro.dram.cells import CellTypeMap
from repro.dram.geometry import DramGeometry
from repro.dram.module import DramModule
from repro.dram.rowhammer import FlipStatistics, RowHammerModel
from repro.errors import ConfigurationError, ReproError
from repro.kernel.kernel import Kernel
from repro.perf.parallel import run_probabilistic_trials
from repro.perf.runner import WORKLOAD_BASE, make_perf_kernel
from repro.units import MIB, PAGE_SIZE

BENCH_VERSION = 1

DEFAULT_OUTPUT = "BENCH_hotpath.json"

#: Default allowed slowdown vs the committed baseline before CI fails.
DEFAULT_MAX_REGRESSION = 2.0


def _hammer_world(slow_reference: bool, seed: int) -> RowHammerModel:
    geometry = DramGeometry(total_bytes=16 * MIB, row_bytes=16 * 1024, num_banks=2)
    cell_map = CellTypeMap.interleaved(geometry, period_rows=8)
    module = DramModule(geometry, cell_map)
    for row in range(96):
        module.fill_row(row, 0xFF if row % 2 else 0x5A)
    return RowHammerModel(
        module,
        stats=FlipStatistics(p_vulnerable=2e-3, p_with_leak=0.9),
        seed=seed,
        activation_probability=0.9,
        slow_reference=slow_reference,
    )


def _time_hammers(model: RowHammerModel, warmup: int, hammers: int) -> tuple:
    """Hammer ``warmup`` untimed bursts, then time ``hammers`` more.

    The warmup absorbs one-time costs shared by both paths — vulnerable-bit
    sampling per first-touched row and the initial flip flood on fresh
    fill patterns — so the timed region measures steady-state hammering.
    Both paths consume the RNG identically during warmup, so streams stay
    aligned and total flips (warmup + timed) remain comparable.
    """
    flips = 0
    for burst in range(warmup):
        aggressor = 2 + (burst * 3) % 90
        flips += model.hammer(aggressor).flip_count
    start = time.perf_counter()
    for burst in range(warmup, warmup + hammers):
        aggressor = 2 + (burst * 3) % 90
        flips += model.hammer(aggressor).flip_count
    return time.perf_counter() - start, flips


def bench_hammer_heavy(quick: bool = False) -> Dict[str, Any]:
    """Vectorized vs scalar hammer bursts; asserts identical flip totals."""
    warmup = 60
    hammers = 120 if quick else 300
    seed = 20_260_806
    vec_elapsed, vec_flips = _time_hammers(_hammer_world(False, seed), warmup, hammers)
    ref_elapsed, ref_flips = _time_hammers(_hammer_world(True, seed), warmup, hammers)
    if vec_flips != ref_flips:
        raise ReproError(
            f"hammer bench mismatch: vectorized induced {vec_flips} flips, "
            f"scalar reference {ref_flips} — equivalence is broken"
        )
    return {
        "ops": hammers,
        "elapsed_s": vec_elapsed,
        "ops_per_s": hammers / vec_elapsed if vec_elapsed else 0.0,
        "reference_elapsed_s": ref_elapsed,
        "speedup": ref_elapsed / vec_elapsed if vec_elapsed else 0.0,
        "flips": vec_flips,
    }


#: Minimum frontier-vs-scalar speedup the walk benches tolerate before
#: failing outright. The measured ratio is far higher (the acceptance
#: floor is 5x); 2x absorbs machine noise while still catching a walker
#: that silently degrades to per-entry reads.
WALK_SPEEDUP_FLOOR = 2.0


def _walk_world(regions: int, pages_per_region: int, region_stride_pages: int) -> tuple:
    """A mapped working set plus its page VAs, for the walk benches."""
    import numpy as np

    kernel = make_perf_kernel(cta=False, total_bytes=64 * MIB)
    process = kernel.create_process()
    addresses: List[int] = []
    for region in range(regions):
        base = WORKLOAD_BASE + region * (region_stride_pages * PAGE_SIZE)
        vma, _ = kernel.mmap_touch_many(
            process, pages_per_region * PAGE_SIZE, address=base, write=True
        )
        addresses.extend(
            vma.start + page * PAGE_SIZE for page in range(pages_per_region)
        )
    return kernel, process, np.asarray(addresses, dtype=np.int64)


def _time_frontier_vs_scalar(
    kernel, process, vas, passes: int, case: str
) -> Dict[str, Any]:
    """Time TLB-off ``translate_many`` against its scalar reference loop.

    Asserts bit-identical physical addresses and gates the speedup at
    :data:`WALK_SPEEDUP_FLOOR` — the bench *fails*, it does not merely
    report, when the frontier walker stops beating the scalar walk.
    """
    import numpy as np

    mmu = kernel.mmu
    # Warmup both paths: PT views, decode caches, resident-row dict.
    mmu.translate_many(process.cr3, vas, pid=process.pid, use_tlb=False)
    mmu.translate_many(
        process.cr3, vas, pid=process.pid, use_tlb=False, slow_reference=True
    )
    start = time.perf_counter()
    for _ in range(passes):
        batched = mmu.translate_many(
            process.cr3, vas, pid=process.pid, use_tlb=False
        )
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(passes):
        reference = mmu.translate_many(
            process.cr3, vas, pid=process.pid, use_tlb=False, slow_reference=True
        )
    ref_elapsed = time.perf_counter() - start
    if not np.array_equal(batched, reference):
        raise ReproError(f"{case} mismatch: frontier != scalar addresses")
    speedup = ref_elapsed / elapsed if elapsed else 0.0
    if speedup < WALK_SPEEDUP_FLOOR:
        raise ReproError(
            f"{case}: frontier walker speedup {speedup:.2f}x is below the "
            f"{WALK_SPEEDUP_FLOOR:g}x floor vs the scalar reference walk"
        )
    walks = passes * int(vas.size)
    return {
        "ops": walks,
        "elapsed_s": elapsed,
        "ops_per_s": walks / elapsed if elapsed else 0.0,
        "reference_elapsed_s": ref_elapsed,
        "speedup": speedup,
    }


def bench_walk_heavy(quick: bool = False) -> Dict[str, Any]:
    """TLB-off frontier sweeps vs the scalar reference walk (gated)."""
    passes = 6 if quick else 30
    kernel, process, vas = _walk_world(
        regions=8, pages_per_region=32, region_stride_pages=64
    )
    return _time_frontier_vs_scalar(kernel, process, vas, passes, "walk_heavy")


def bench_walk_frontier(quick: bool = False) -> Dict[str, Any]:
    """The frontier walker at width: thousands of VPNs, many leaf tables.

    Each pass misses the (disabled) TLB for every VPN, so all of them
    advance through the radix tree as one frontier per level; the 32
    regions share PML4/PDPT interior nodes, exercising the per-level
    address dedup. Gated like ``walk_heavy``.
    """
    passes = 4 if quick else 20
    kernel, process, vas = _walk_world(
        regions=32, pages_per_region=64, region_stride_pages=512
    )
    return _time_frontier_vs_scalar(kernel, process, vas, passes, "walk_frontier")


def bench_live_boot_multigb(quick: bool = False) -> Dict[str, Any]:
    """Boot a 2 GiB sparse world and run the live attacks (gated).

    ``ops`` counts live hammer rounds (every ZONE_PTP row of the
    truncated Algorithm 1 sweep plus the templating bursts). Fails when
    an attack breaks containment at paper scale or when the sparse store
    materializes more than the bench memory budget.
    """
    from repro.dram.rowhammer import FlipStatistics
    from repro.perf.paperscale import run_paperscale_campaign
    from repro.units import GIB

    report = run_paperscale_campaign(
        total_bytes=2 * GIB,
        spray_mappings=48,
        max_target_pages=1,
        stats=FlipStatistics(p_vulnerable=1e-3, p_with_leak=0.998),
    )
    if report.algorithm1_outcome == "success":
        raise ReproError(
            "live_boot_multigb: Algorithm 1 succeeded at paper scale — "
            "the No Self-Reference containment is broken"
        )
    if report.templating_outcome != "blocked":
        raise ReproError(
            f"live_boot_multigb: templating attack reported "
            f"{report.templating_outcome!r} on a CTA kernel, expected blocked"
        )
    budget = 256 * MIB
    if report.resident_bytes > budget:
        raise ReproError(
            f"live_boot_multigb: {report.resident_bytes} resident DRAM bytes "
            f"exceed the {budget} bench budget — the sparse store is leaking "
            "dense allocations"
        )
    elapsed = report.boot_s + report.algorithm1_s + report.templating_s
    return {
        "ops": report.hammer_rounds,
        "elapsed_s": elapsed,
        "ops_per_s": report.hammer_rounds / elapsed if elapsed else 0.0,
        "boot_s": report.boot_s,
        "flips": report.flips_induced,
        "pointer_observations": report.pointer_observations,
        "monotonic_observations": report.monotonic_observations,
        "resident_bytes": report.resident_bytes,
        "resident_fraction": report.resident_fraction,
        "total_bytes": report.total_bytes,
    }


def bench_walk_batch(quick: bool = False) -> Dict[str, Any]:
    """Vectorized ``translate_many`` sweeps vs the scalar reference loop.

    Both sides run TLB-on over the same warm working set; the batched
    pass must return bit-identical physical addresses.
    """
    import numpy as np

    passes = 10 if quick else 60
    kernel = make_perf_kernel(cta=False, total_bytes=64 * MIB)
    process = kernel.create_process()
    addresses: List[int] = []
    for region in range(16):
        base = WORKLOAD_BASE + region * (128 * PAGE_SIZE)
        vma, _ = kernel.mmap_touch_many(
            process, 64 * PAGE_SIZE, address=base, write=True
        )
        addresses.extend(vma.start + page * PAGE_SIZE for page in range(64))
    vas = np.asarray(addresses, dtype=np.int64)
    mmu = kernel.mmu
    mmu.translate_many(process.cr3, vas, pid=process.pid)  # warmup: fill TLB
    start = time.perf_counter()
    for _ in range(passes):
        batched = mmu.translate_many(process.cr3, vas, pid=process.pid)
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(passes):
        reference = mmu.translate_many(
            process.cr3, vas, pid=process.pid, slow_reference=True
        )
    ref_elapsed = time.perf_counter() - start
    if not np.array_equal(batched, reference):
        raise ReproError("walk_batch mismatch: batched != scalar addresses")
    walks = passes * len(addresses)
    return {
        "ops": walks,
        "elapsed_s": elapsed,
        "ops_per_s": walks / elapsed if elapsed else 0.0,
        "reference_elapsed_s": ref_elapsed,
        "speedup": ref_elapsed / elapsed if elapsed else 0.0,
    }


def bench_spray_batch(quick: bool = False) -> Dict[str, Any]:
    """Spray-verify sweeps: batched ``load_many`` vs the per-VA loop.

    Models the hot loop of the probabilistic attack — re-reading every
    sprayed page each round to check for flips. The spray itself (mapped
    through ``mmap_touch_many``) runs once, untimed; both verify sides
    must return identical page contents.
    """
    import numpy as np

    rounds = 4 if quick else 20
    kernel = make_perf_kernel(cta=False, total_bytes=64 * MIB)
    process = kernel.create_process()
    checked: List[int] = []
    for index in range(16):
        base = WORKLOAD_BASE + index * (64 * PAGE_SIZE)
        vma, _ = kernel.mmap_touch_many(
            process, 32 * PAGE_SIZE, address=base, write=True
        )
        checked.extend(vma.start + page * PAGE_SIZE for page in range(32))
    vas = np.asarray(checked, dtype=np.int64)
    mmu = kernel.mmu
    mmu.load_many(process.cr3, vas, 64, pid=process.pid)  # warmup: fill TLB
    start = time.perf_counter()
    for _ in range(rounds):
        batched = list(mmu.load_many(process.cr3, vas, 64, pid=process.pid))
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(rounds):
        reference = list(
            mmu.load_many(
                process.cr3, vas, 64, pid=process.pid, slow_reference=True
            )
        )
    ref_elapsed = time.perf_counter() - start
    if batched != reference:
        raise ReproError("spray_batch mismatch: batched != scalar contents")
    ops = rounds * len(checked)
    return {
        "ops": ops,
        "elapsed_s": elapsed,
        "ops_per_s": ops / elapsed if elapsed else 0.0,
        "reference_elapsed_s": ref_elapsed,
        "speedup": ref_elapsed / elapsed if elapsed else 0.0,
    }


def bench_snapshot_warm_start(quick: bool = False) -> Dict[str, Any]:
    """Per-segment setup: cold boot + spray vs copy-on-write attach."""
    from repro.perf.parallel import capture_trial_snapshot, probabilistic_trial
    from repro.perf.snapshot import SimulatorSnapshot

    setups = 2 if quick else 6
    start = time.perf_counter()
    for index in range(setups):
        probabilistic_trial(index, seed=7 + index, max_rounds=0)
    cold_elapsed = time.perf_counter() - start
    snapshot = capture_trial_snapshot()
    try:
        start = time.perf_counter()
        for index in range(setups):
            probabilistic_trial(
                index, seed=7 + index, max_rounds=0, snapshot=snapshot.name
            )
        warm_elapsed = time.perf_counter() - start
    finally:
        snapshot.release()
    return {
        "ops": setups,
        "elapsed_s": warm_elapsed,
        "ops_per_s": setups / warm_elapsed if warm_elapsed else 0.0,
        "reference_elapsed_s": cold_elapsed,
        "speedup": cold_elapsed / warm_elapsed if warm_elapsed else 0.0,
    }


def bench_campaign(quick: bool = False) -> Dict[str, Any]:
    """Serial probabilistic-trial throughput through the campaign engine."""
    trials = 2 if quick else 4
    start = time.perf_counter()
    report = run_probabilistic_trials(
        trials,
        seed=99,
        workers=1,
        spray_mappings=8,
        max_rounds=1,
    )
    elapsed = time.perf_counter() - start
    outcomes = sorted(
        record["result"]["outcome"] for record in report.completed.values()
    )
    return {
        "ops": trials,
        "elapsed_s": elapsed,
        "ops_per_s": trials / elapsed if elapsed else 0.0,
        "outcomes": outcomes,
    }


def bench_chaos_smoke(quick: bool = False) -> Dict[str, Any]:
    """Armed chaos campaign throughput (segments/s), as ``repro chaos --smoke``."""
    from repro.faults.scenarios import DEFAULT_SEGMENTS, run_chaos_campaign

    segments = 3 if quick else DEFAULT_SEGMENTS
    start = time.perf_counter()
    report = run_chaos_campaign(1, num_segments=segments, smoke=True)
    elapsed = time.perf_counter() - start
    if report.failed or not report.retries:
        raise ReproError(
            f"chaos_smoke: expected every segment to complete after a "
            f"dram-read-error retry, got {len(report.failed)} failed and "
            f"{report.retries} retries"
        )
    return {
        "ops": segments,
        "elapsed_s": elapsed,
        "ops_per_s": segments / elapsed if elapsed else 0.0,
        "retries": report.retries,
        "fault_totals": report.fault_totals(),
    }


#: Minimum warm-over-cold speedup the memoized campaign bench tolerates.
#: A warm pass replays serialized outcomes instead of booting kernels and
#: spraying pages, so the measured ratio is far higher; 5x is the
#: acceptance floor from the memoization contract.
MEMO_SPEEDUP_FLOOR = 5.0


def bench_campaign_memo_warm(quick: bool = False) -> Dict[str, Any]:
    """Cold-vs-warm campaign passes through a shared segment memo (gated).

    Both passes run the identical ``run_probabilistic_trials`` campaign
    against one :class:`~repro.perf.memo.SegmentMemo`; the reports must
    compare equal (the byte-identity contract) and the warm pass must be
    at least :data:`MEMO_SPEEDUP_FLOOR` times faster. ``ops_per_s`` is
    the warm (cache-hit) throughput.
    """
    from repro.perf.memo import SegmentMemo

    trials = 2 if quick else 4
    memo = SegmentMemo()

    def one_pass() -> tuple:
        start = time.perf_counter()
        report = run_probabilistic_trials(
            trials,
            seed=99,
            workers=1,
            spray_mappings=8,
            max_rounds=1,
            memo=memo,
        )
        return time.perf_counter() - start, report

    cold_elapsed, cold = one_pass()
    warm_elapsed, warm = one_pass()
    if cold.to_dict() != warm.to_dict():
        raise ReproError(
            "campaign_memo_warm mismatch: warm (memoized) report diverges "
            "from the cold run — the byte-identity contract is broken"
        )
    if memo.hits < trials:
        raise ReproError(
            f"campaign_memo_warm: warm pass scored {memo.hits} hits for "
            f"{trials} segments — the cache is not being consulted"
        )
    speedup = cold_elapsed / warm_elapsed if warm_elapsed else 0.0
    if speedup < MEMO_SPEEDUP_FLOOR:
        raise ReproError(
            f"campaign_memo_warm: warm speedup {speedup:.2f}x is below the "
            f"{MEMO_SPEEDUP_FLOOR:g}x floor vs the cold run"
        )
    return {
        "ops": trials,
        "elapsed_s": warm_elapsed,
        "ops_per_s": trials / warm_elapsed if warm_elapsed else 0.0,
        "reference_elapsed_s": cold_elapsed,
        "speedup": speedup,
        "hits": memo.hits,
        "misses": memo.misses,
        "stores": memo.stores,
    }


def bench_service_multi_tenant_memo(quick: bool = False) -> Dict[str, Any]:
    """N tenants, one shared memo, one service: hit rate gated at (N-1)/N.

    Every tenant submits the same (name, target, segments, seed)
    campaign, so only the first submission may compute — the remaining
    N-1 must replay cached outcomes. All N reports are asserted equal;
    a hit rate below (N-1)/N fails the bench.
    """
    import asyncio

    from repro.perf.memo import SegmentMemo
    from repro.service.protocol import CampaignRequest
    from repro.service.server import CampaignService

    tenants = 4 if quick else 8
    segments = 3
    memo = SegmentMemo()

    async def _run() -> tuple:
        service = CampaignService(workers=1, memo=memo)
        service.start()
        start = time.perf_counter()
        reports = []
        for index in range(tenants):
            request = CampaignRequest(
                name="memo-bench",
                target="repro.perf.parallel:montecarlo_trial",
                num_segments=segments,
                seed=1234,
                tenant=f"team-{index}",
            )
            reports.append(await service.submit(request))
        elapsed = time.perf_counter() - start
        await service.drain()
        return elapsed, reports

    elapsed, reports = asyncio.run(_run())
    first = reports[0].to_dict()
    for report in reports[1:]:
        if report.to_dict() != first:
            raise ReproError(
                "service_multi_tenant_memo mismatch: a memoized tenant "
                "report diverges from the first tenant's computed report"
            )
    total = memo.hits + memo.misses
    # Integer cross-multiplication: hits/total >= (tenants-1)/tenants
    # without float rounding at the exact boundary.
    if total == 0 or memo.hits * tenants < (tenants - 1) * total:
        raise ReproError(
            f"service_multi_tenant_memo: hit rate {memo.hits}/{total} is "
            f"below the ({tenants - 1}/{tenants}) floor — tenants beyond "
            "the first are recomputing"
        )
    ops = tenants * segments
    return {
        "ops": ops,
        "elapsed_s": elapsed,
        "ops_per_s": ops / elapsed if elapsed else 0.0,
        "hit_rate": memo.hits / total,
        "hits": memo.hits,
        "misses": memo.misses,
        "tenants": tenants,
    }


def bench_payload_compiled(quick: bool = False) -> Dict[str, Any]:
    """Compiled payload execution vs the slow_reference interpreter.

    Runs one hammer-sweep program both ways against identically seeded
    worlds and requires identical flips — the payload equivalence
    contract, priced. ``ops`` counts executed bursts on the compiled
    path.
    """
    from repro import payload

    rows = list(range(8, 24 if quick else 56))
    activations = 500
    program = payload.hammer_sweep(
        "bench-sweep", rows, activations=activations
    )
    compiled = payload.compile_program(program)

    # Warm both worlds identically (first-touch vulnerable-bit sampling
    # and the initial flip flood) so the timed region measures execution,
    # not shared one-time costs — and both consume the same randomness.
    model = _hammer_world(False, seed=17)
    reference_model = _hammer_world(False, seed=17)
    warmup = payload.hammer_sweep("bench-warmup", rows, activations=1)
    payload.run(warmup, payload.PayloadContext(hammer=model))
    payload.run(warmup, payload.PayloadContext(hammer=reference_model))

    start = time.perf_counter()
    fast = payload.run(compiled, payload.PayloadContext(hammer=model))
    elapsed = time.perf_counter() - start

    ref_start = time.perf_counter()
    slow = payload.slow_reference(
        program, payload.PayloadContext(hammer=reference_model)
    )
    ref_elapsed = time.perf_counter() - ref_start

    if fast.flips_induced != slow.flips_induced:
        raise ReproError(
            f"payload bench mismatch: compiled induced {fast.flips_induced} "
            f"flips, slow_reference {slow.flips_induced} — equivalence is "
            "broken"
        )
    return {
        "ops": fast.bursts,
        "elapsed_s": elapsed,
        "ops_per_s": fast.bursts / elapsed if elapsed else 0.0,
        "reference_elapsed_s": ref_elapsed,
        "speedup": ref_elapsed / elapsed if elapsed else 0.0,
        "flips": fast.flips_induced,
    }


def run_bench_suite(quick: bool = False) -> Dict[str, Any]:
    """Run every case against a fresh registry; returns the report dict."""
    previous = obs.get_registry()
    obs.set_registry(obs.Registry())
    try:
        results = {
            "hammer_heavy": bench_hammer_heavy(quick=quick),
            "walk_heavy": bench_walk_heavy(quick=quick),
            "walk_frontier": bench_walk_frontier(quick=quick),
            "walk_batch": bench_walk_batch(quick=quick),
            "live_boot_multigb": bench_live_boot_multigb(quick=quick),
            "spray_batch": bench_spray_batch(quick=quick),
            "snapshot_warm_start": bench_snapshot_warm_start(quick=quick),
            "campaign": bench_campaign(quick=quick),
            "chaos_smoke": bench_chaos_smoke(quick=quick),
            "campaign_memo_warm": bench_campaign_memo_warm(quick=quick),
            "service_multi_tenant_memo": bench_service_multi_tenant_memo(
                quick=quick
            ),
            "payload_compiled": bench_payload_compiled(quick=quick),
        }
    finally:
        obs.set_registry(previous)
    return {"version": BENCH_VERSION, "quick": bool(quick), "results": results}


def write_bench_report(report: Dict[str, Any], path: Union[str, Path]) -> None:
    """Persist a bench report as stable-ordered JSON, atomically.

    The report is written to a temp file in the destination directory
    and moved into place with ``os.replace``, so readers never observe
    a truncated ``BENCH_hotpath.json`` — an interrupted bench leaves
    either the previous report or the new one, nothing in between.
    """
    destination = Path(path)
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    fd, tmp_path = tempfile.mkstemp(
        dir=str(destination.parent) or ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp_path, destination)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a committed baseline (``{case: {"ops_per_s": float}}``)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read baseline {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"baseline {path} is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"baseline {path} must be a JSON object")
    return data


def check_baseline(
    report: Dict[str, Any],
    baseline: Union[str, Path, Dict[str, Any]],
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> List[str]:
    """Compare a report against a baseline; returns regression messages.

    A case regresses when its measured ops/s falls below the baseline's
    ``ops_per_s / max_regression``. Cases absent from either side are
    skipped (new benchmarks don't fail old baselines).
    """
    if max_regression <= 0:
        raise ConfigurationError(f"max_regression {max_regression} must be > 0")
    if not isinstance(baseline, dict):
        baseline = load_baseline(baseline)
    failures: List[str] = []
    for case, expected in sorted(baseline.items()):
        measured = report.get("results", {}).get(case)
        if measured is None or "ops_per_s" not in expected:
            continue
        floor = float(expected["ops_per_s"]) / max_regression
        actual = float(measured["ops_per_s"])
        if actual < floor:
            failures.append(
                f"{case}: {actual:.1f} ops/s is below the regression floor "
                f"{floor:.1f} (baseline {float(expected['ops_per_s']):.1f} "
                f"/ {max_regression:g}x)"
            )
    return failures


def format_bench_table(report: Dict[str, Any]) -> str:
    """Human-readable summary of one report."""
    lines = []
    for case, result in sorted(report.get("results", {}).items()):
        parts = [
            f"{case:<14s}",
            f"{result['ops']:>6d} ops",
            f"{result['elapsed_s']:>9.3f} s",
            f"{result['ops_per_s']:>10.1f} ops/s",
        ]
        if "speedup" in result:
            parts.append(f"{result['speedup']:>7.1f}x vs scalar")
        lines.append("  ".join(parts))
    return "\n".join(lines)


def bench_main(
    quick: bool = False,
    output: Union[str, Path] = DEFAULT_OUTPUT,
    baseline: Optional[Union[str, Path]] = None,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> int:
    """CLI driver: run, persist, print, optionally gate on a baseline."""
    report = run_bench_suite(quick=quick)
    write_bench_report(report, output)
    print(format_bench_table(report))
    print(f"report written to {output}")
    if baseline is not None:
        failures = check_baseline(report, baseline, max_regression=max_regression)
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}")
            return 1
        print(f"baseline check passed (max regression {max_regression:g}x)")
    return 0

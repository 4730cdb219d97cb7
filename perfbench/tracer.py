"""Layer attribution for the traced benchmark run.

The program carries no timing spans of its own, so the benchmark installs
wrappers around the calls into each layer's public functions. A wrapper
is one of two kinds:

``span``
    Records an individual span ``(id, parent, name, start, end, self)``
    in memory; used at coarse boundaries (a kernel boot, an attack phase,
    a hammer burst, a memo lookup).
``in place``
    Used at per-access boundaries that run millions of times
    (``DramModule.read``, ``faults.notify``, ``obs.inc``): no span is
    stored; the call adds to a count and a total under its parent span.

Both kinds keep exact self time: a call's duration minus the time spent
in wrapped calls nested directly inside it. Every layer's self time is
the sum over its boundaries, and time outside every boundary is the
benchmark's own (``harness``).
"""

from __future__ import annotations

import sys
import time
from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple

#: Layers, named after the simulator's modules. ``scenario`` holds the
#: segment bodies that glue layers together (chaos segments, trials, the
#: paper-scale campaign).
LAYERS = (
    "dram",
    "faults",
    "kernel",
    "attacks",
    "payload",
    "sanitize",
    "verify",
    "analysis",
    "obs",
    "campaign",
    "memo",
    "service",
    "scenario",
)

SPAN, INPLACE = "span", "inplace"
_INHERITED = object()

#: ``(module, qualname, boundary name, kind)``. The layer is the name's
#: first component. A boundary missing from the program is skipped and
#: reported, so the benchmark keeps working across refactors.
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    # dram: per-access byte/bit/word primitives, batched gathers, hammer.
    ("repro.dram.module", "DramModule.read", "dram.read", INPLACE),
    ("repro.dram.module", "DramModule.read_bit", "dram.read_bit", INPLACE),
    ("repro.dram.module", "DramModule.write", "dram.write", INPLACE),
    ("repro.dram.module", "DramModule.write_bit", "dram.write_bit", INPLACE),
    ("repro.dram.module", "DramModule.read_u64", "dram.read_u64", INPLACE),
    ("repro.dram.module", "DramModule.write_u64", "dram.write_u64", INPLACE),
    ("repro.dram.module", "DramModule.flip_bit", "dram.flip_bit", INPLACE),
    ("repro.dram.module", "DramModule.read_many", "dram.read_many", INPLACE),
    ("repro.dram.module", "DramModule.read_u64_many", "dram.read_u64_many", INPLACE),
    ("repro.dram.module", "DramModule.write_many", "dram.write_many", INPLACE),
    ("repro.dram.module", "DramModule.read_bits", "dram.read_bits", INPLACE),
    ("repro.dram.module", "DramModule.apply_bit_flips", "dram.apply_bit_flips", INPLACE),
    ("repro.dram.rowhammer", "RowHammerModel.hammer", "dram.hammer", SPAN),
    # faults: the pre-hook entry and the plane's dispatch.
    ("repro.faults", "notify", "faults.notify", INPLACE),
    ("repro.faults", "FaultPlane.dispatch", "faults.dispatch", INPLACE),
    ("repro.faults", "install", "faults.install", SPAN),
    # kernel
    ("repro.kernel.kernel", "Kernel.__init__", "kernel.boot", SPAN),
    ("repro.kernel.kernel", "Kernel.mmap", "kernel.mmap", INPLACE),
    ("repro.kernel.kernel", "Kernel.munmap", "kernel.mmap", INPLACE),
    ("repro.kernel.kernel", "Kernel.touch", "kernel.mmap", INPLACE),
    ("repro.kernel.kernel", "Kernel.touch_many", "kernel.mmap", INPLACE),
    ("repro.kernel.kernel", "Kernel.mmap_touch_many", "kernel.mmap", INPLACE),
    ("repro.kernel.kernel", "Kernel.map_huge_page", "kernel.mmap", INPLACE),
    ("repro.kernel.kernel", "Kernel.read_virtual", "kernel.mmap", INPLACE),
    ("repro.kernel.kernel", "Kernel.write_virtual", "kernel.mmap", INPLACE),
    ("repro.kernel.kernel", "Kernel.alloc_page", "kernel.alloc", INPLACE),
    ("repro.kernel.kernel", "Kernel.free_page", "kernel.alloc", INPLACE),
    ("repro.kernel.kernel", "Kernel.pte_alloc_one", "kernel.alloc", INPLACE),
    ("repro.kernel.kernel", "Kernel.reclaim_empty_page_tables", "kernel.alloc", INPLACE),
    ("repro.kernel.mmu", "Mmu.translate", "kernel.mmu", INPLACE),
    ("repro.kernel.mmu", "Mmu.walk", "kernel.mmu", INPLACE),
    ("repro.kernel.mmu", "Mmu.translate_many", "kernel.mmu", INPLACE),
    ("repro.kernel.mmu", "Mmu.load", "kernel.mmu", INPLACE),
    ("repro.kernel.mmu", "Mmu.store", "kernel.mmu", INPLACE),
    ("repro.kernel.mmu", "Mmu.load_many", "kernel.mmu", INPLACE),
    ("repro.kernel.mmu", "Mmu.store_many", "kernel.mmu", INPLACE),
    ("repro.kernel.tlb", "Tlb.lookup", "kernel.tlb", INPLACE),
    ("repro.kernel.tlb", "Tlb.insert", "kernel.tlb", INPLACE),
    ("repro.kernel.tlb", "Tlb.flush", "kernel.tlb", INPLACE),
    ("repro.kernel.tlb", "Tlb.flush_pid", "kernel.tlb", INPLACE),
    ("repro.kernel.tlb", "Tlb.invalidate", "kernel.tlb", INPLACE),
    ("repro.kernel.tlb", "Tlb.probe_many", "kernel.tlb", INPLACE),
    ("repro.kernel.tlb", "Tlb.commit_many", "kernel.tlb", INPLACE),
    ("repro.kernel.buddy", "BuddyAllocator.alloc_pages", "kernel.buddy", INPLACE),
    ("repro.kernel.buddy", "BuddyAllocator.free_pages_block", "kernel.buddy", INPLACE),
    # attacks: spray (prepare) and the seed-dependent phases (execute).
    ("repro.attacks.probabilistic", "ProbabilisticPteAttack.prepare", "attacks.prepare", SPAN),
    ("repro.attacks.probabilistic", "ProbabilisticPteAttack.execute", "attacks.execute", SPAN),
    ("repro.attacks.algorithm1", "CtaBruteForceAttack.run", "attacks.execute", SPAN),
    ("repro.attacks.templating", "TemplatingAttack.run", "attacks.execute", SPAN),
    # payload: compilation, whole-payload runs and per-step execution.
    ("repro.payload.compiler", "compile_program", "payload.compile", INPLACE),
    ("repro.payload.executor", "run", "payload.run", SPAN),
    ("repro.payload.executor", "PendingBurst.perform", "payload.run", INPLACE),
    ("repro.payload.executor", "PendingRead.perform", "payload.run", INPLACE),
    ("repro.payload.executor", "PendingWrite.perform", "payload.run", INPLACE),
    # sanitize
    ("repro.sanitize", "install", "sanitize.install", SPAN),
    ("repro.sanitize", "notify", "sanitize.notify", INPLACE),
    ("repro.sanitize", "SanitizerSuite.check_now", "sanitize.check", SPAN),
    # verify
    ("repro.verify", "payload_verdict_summary", "verify.payload", SPAN),
    ("repro.verify.payload", "verify_payload", "verify.payload", INPLACE),
    # analysis
    ("repro.analysis.montecarlo", "simulate_exploitable_ptes", "analysis.montecarlo", SPAN),
    # obs: the recording helpers and the cross-registry export/merge.
    ("repro.obs", "inc", "obs.inc", INPLACE),
    ("repro.obs", "set_gauge", "obs.record", INPLACE),
    ("repro.obs", "observe", "obs.record", INPLACE),
    ("repro.obs", "trace", "obs.record", INPLACE),
    ("repro.obs.metrics", "Registry.export_state", "obs.export", SPAN),
    ("repro.obs.metrics", "Registry.merge_state", "obs.merge", SPAN),
    # campaign: the segment executors.
    ("repro.faults.campaign", "CampaignRunner.run", "campaign.run", SPAN),
    ("repro.faults.campaign", "CampaignRunner._run_segment", "campaign.segment", SPAN),
    ("repro.faults.campaign", "write_checkpoint", "campaign.checkpoint", SPAN),
    ("repro.faults.campaign", "CampaignReport.to_dict", "campaign.report", INPLACE),
    ("repro.perf.parallel", "run_campaign_parallel", "campaign.run", SPAN),
    ("repro.perf.parallel", "run_segment_task", "campaign.segment", SPAN),
    # scenario: segment bodies and campaign entry points.
    ("repro.faults.scenarios", "run_chaos_campaign", "scenario.campaign", SPAN),
    ("repro.faults.scenarios", "run_chaos_segment", "scenario.segment", SPAN),
    ("repro.perf.parallel", "run_probabilistic_trials", "scenario.campaign", SPAN),
    ("repro.perf.parallel", "probabilistic_trial", "scenario.segment", SPAN),
    ("repro.perf.parallel", "montecarlo_trial", "scenario.segment", SPAN),
    ("repro.perf.paperscale", "run_paperscale_campaign", "scenario.campaign", SPAN),
    # memo
    ("repro.perf.memo.runtime", "SegmentMemo.lookup", "memo.lookup", SPAN),
    ("repro.perf.memo.runtime", "SegmentMemo.store", "memo.store", SPAN),
    ("repro.perf.memo.runtime", "SegmentMemo.run", "memo.run", SPAN),
    ("repro.perf.memo.runtime", "SegmentMemo.payload_key", "memo.key", INPLACE),
    ("repro.perf.memo.runtime", "SegmentMemo.campaign_key", "memo.key", INPLACE),
    # service: wire protocol, admission, queueing and the report merge.
    ("repro.service.protocol", "encode_line", "service.protocol", INPLACE),
    ("repro.service.protocol", "decode_line", "service.protocol", INPLACE),
    ("repro.service.protocol", "CampaignRequest.from_wire", "service.protocol", INPLACE),
    ("repro.service.admission", "AdmissionController.admit", "service.admission", INPLACE),
    ("repro.service.admission", "AdmissionController.release", "service.admission", INPLACE),
    ("repro.service.server", "CampaignService._build_job", "service.admission", INPLACE),
    ("repro.service.server", "CampaignService._merge", "service.merge", SPAN),
    ("repro.service.server", "CampaignService.stats", "service.stats", INPLACE),
    ("repro.service.supervisor", "WorkerPool.submit_job", "service.queue", INPLACE),
)


def layer_of(name: str) -> str:
    """The layer a boundary name belongs to."""
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder plus exact per-boundary call counts and times.

    ``clock`` is injectable so tests can build span trees with exact
    durations. Spans are stored in memory and written out at the end.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: boundary name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: (parent span id, boundary name) -> [calls, total_s, direct_s];
        #: ``direct_s`` counts only calls made directly by the span, not
        #: from inside another in-place call.
        self.inplace: Dict[Tuple[int, str], List[float]] = {}
        #: (id, parent id, direct child of parent, name, start, end, self_s)
        self.spans: List[Tuple[int, int, bool, str, float, float, float]] = []
        #: Each frame is [child_time, span id, is a span]; the root frame is
        #: span 0 and counts as a span.
        self._stack: List[List[Any]] = [[0.0, 0, True]]
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []
        #: Job submission times and measured queue waits (service only).
        self._submitted: Dict[int, float] = {}
        self.queue_waits_s: List[float] = []

    # -- wrappers ------------------------------------------------------------
    def wrap(self, fn: Callable[..., Any], name: str, kind: str) -> Callable[..., Any]:
        """A wrapper recording calls to ``fn`` under boundary ``name``."""
        clock = self.clock
        stack = self._stack
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        if kind == INPLACE:
            inplace = self.inplace

            def inplace_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = stack[-1]
                frame = [0.0, parent[1], False]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    parent[0] += duration
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[0]
                    slot = inplace.get((parent[1], name))
                    if slot is None:
                        slot = inplace[(parent[1], name)] = [0, 0.0, 0.0]
                    slot[0] += 1
                    slot[1] += duration
                    if parent[2]:
                        slot[2] += duration

            return inplace_wrapper

        spans = self.spans

        def span_wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id, True]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                spans.append(
                    (span_id, int(parent[1]), bool(parent[2]), name, start, end,
                     duration - frame[0])
                )

        return span_wrapper

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary that exists in the loaded program."""
        for module_name, qualname, name, kind in BOUNDARIES:
            try:
                module = import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}:{qualname}")
                continue
            owner: Any = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}:{qualname}")
                continue
            wrapper = self.wrap(original, name, kind)
            if path:
                self._patch(owner, attr, wrapper)
            else:
                # A module function may be bound by name in other modules.
                for other in list(sys.modules.values()):
                    if (
                        getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, attr, None) is original
                    ):
                        self._patch(other, attr, wrapper)
        self._install_queue_probe()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def _install_queue_probe(self) -> None:
        """Time each service job from queueing to its first dispatch."""
        try:
            supervisor = import_module("repro.service.supervisor")
        except ImportError:
            return
        pool = getattr(supervisor, "WorkerPool", None)
        submit = getattr(pool, "submit_job", None)
        dispatch = getattr(pool, "_dispatch", None)
        if submit is None or dispatch is None:
            self.missing.append("repro.service.supervisor:WorkerPool queue probe")
            return
        submitted = self._submitted
        waits = self.queue_waits_s
        clock = self.clock

        def submit_job(pool_self: Any, job: Any) -> Any:
            submitted[id(job)] = clock()
            return submit(pool_self, job)

        async def first_dispatch(pool_self: Any, worker_id: int, job: Any, payload: Any) -> Any:
            queued_at = submitted.pop(id(job), None)
            if queued_at is not None:
                waits.append(clock() - queued_at)
            return await dispatch(pool_self, worker_id, job, payload)

        self._patch(pool, "submit_job", submit_job)
        self._patch(pool, "_dispatch", first_dispatch)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """JSON-ready record of spans, in-place totals and boundary stats."""
        return {
            "boundaries": {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "inplace": [
                {"parent": parent, "name": name, "calls": int(c), "total_s": t,
                 "direct_s": d}
                for (parent, name), (c, t, d) in sorted(self.inplace.items())
            ],
            "spans": [
                {"id": i, "parent": p, "direct": direct, "name": n, "start": s,
                 "end": e, "self_s": x}
                for i, p, direct, n, s, e, x in self.spans
            ],
            "queue_waits_s": list(self.queue_waits_s),
            "missing": list(self.missing),
        }


def span_self_times(spans: List[Dict[str, Any]], inplace: List[Dict[str, Any]]) -> Dict[int, float]:
    """Self time of every span recomputed from a dump.

    A span's self time is its duration minus the time covered by its
    children: the spans and in-place calls it made directly (a span
    opened inside an in-place call is already inside that call's total).
    Used to cross-check a dump offline.
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span["direct"]:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    for entry in inplace:
        covered[entry["parent"]] = covered.get(entry["parent"], 0.0) + entry["direct_s"]
    return {
        span["id"]: (span["end"] - span["start"]) - covered.get(span["id"], 0.0)
        for span in spans
    }


"""The two workloads that run inside one simulating process.

Each workload turns the benchmark seed into concrete inputs up front and
then runs *passes*: one pass is a fixed amount of user-visible work (one
smoke chaos campaign, a batch of paper-scale live campaigns), split into
*timing units* (a segment, a campaign) that are timed one by one. Every
pass repeats the same inputs, so its outputs and its simulated-work
fingerprint must equal those of the reference pass computed untimed
during set-up, and a unit's host time differs between passes only by the
host's own noise.

``service_tenants`` lives in :mod:`service`, because its simulating
process is a real ``repro serve`` server.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from common import (
    ERROR,
    MISMATCH,
    OK,
    canonical,
    classify,
    error_output,
    input_rng,
    probe_s,
    registry_fingerprint,
)

Output = Tuple[str, str]

#: Host-speed probes before each chaos segment: a pass has only six
#: segments, and its host factor is the median of its probes.
CHAOS_PROBES = 5
#: Paper-scale campaigns per ``paperscale_alg1`` pass.
PAPERSCALE_CAMPAIGNS = 32
#: Every run times at least this many passes, whatever ``--seconds`` says.
MIN_PASSES = 2


def timed_passes(seconds: float, pass_s: float) -> int:
    """How many passes a run of ``seconds`` times.

    The count depends only on ``seconds`` and the workload's nominal pass
    time on the reference host, never on how fast this host happens to
    be, so the same arguments always do the same work and count the same
    operations.
    """
    return max(MIN_PASSES, round(seconds / pass_s))


@dataclass
class PassResult:
    """What one pass did: per-operation outputs and their weights."""

    #: ``(status, canonical bytes)`` per checked output.
    outputs: List[Output]
    #: Operations each output stands for (a paper-scale campaign stands
    #: for all of its hammer rounds).
    weights: List[int]
    #: Host seconds of each timing unit, in pass order.
    unit_s: List[float]
    #: Host-speed probe times (:func:`common.probe_s`), one before each unit.
    probes: List[float]
    fingerprint: Dict[str, int]
    #: Broken invariants (sanitizer violations, unsound verdicts, escaped
    #: containment); any makes every operation of the pass a wrong output.
    problems: List[str] = field(default_factory=list)
    #: Raw obs counters for per-layer metrics.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(self.weights)

    @property
    def elapsed_s(self) -> float:
        return sum(self.unit_s)


def reset_program_state() -> None:
    """What ``repro chaos`` does before a campaign: fresh obs/sanitize/faults."""
    from repro import faults, obs, sanitize

    obs.reset()
    sanitize.reset()
    faults.reset()


#: obs series summed into per-layer counts (gauges: the pass's last value).
COUNTER_NAMES = (
    "rowhammer.hammers",
    "rowhammer.flips",
    "payload.executions",
    "mmu.walks",
    "mmu.walk.levels",
    "tlb.hits",
    "tlb.misses",
    "kernel.pte_allocs",
    "sanitize.checks",
    "sanitize.violations",
    "verify.payload_checks",
    "verify.unsound",
    "faults.injected",
    "campaign.segments",
    "campaign.retries",
    "memo.hits",
    "memo.misses",
    "memo.stores",
    "service.admitted",
    "service.rejected",
    "service.shed",
)
GAUGE_NAMES = ("dram.resident_rows", "memo.bytes")


def registry_counters(registry: Any) -> Dict[str, float]:
    """Totals of :data:`COUNTER_NAMES` and values of :data:`GAUGE_NAMES`."""
    out: Dict[str, float] = {}
    for name in COUNTER_NAMES:
        metric = registry.get(name)
        out[name] = float(metric.total()) if metric is not None else 0.0
    for name in GAUGE_NAMES:
        metric = registry.get(name)
        series = metric.series() if metric is not None else {}
        out[name] = float(sum(series.values()))
    return out


def _finish(
    outputs: List[Output], weights: List[int], unit_s: List[float], probes: List[float],
    problems: List[str],
) -> PassResult:
    from repro import obs

    registry = obs.get_registry()
    counters = registry_counters(registry)
    if counters["sanitize.violations"]:
        problems.append(f"sanitizer violations: {counters['sanitize.violations']:g}")
    if counters["verify.unsound"]:
        problems.append(f"verify.unsound: {counters['verify.unsound']:g}")
    return PassResult(
        outputs=outputs,
        weights=weights,
        unit_s=unit_s,
        probes=probes,
        fingerprint=registry_fingerprint(registry),
        problems=problems,
        counters=counters,
    )


class ChaosArmed:
    """``repro chaos --smoke`` (the CI configuration): 6 segments, serial, armed.

    A pass is the serial campaign ``run_chaos_campaign`` runs
    (``build_chaos_runner(...).run()``), with a time source that probes
    the host speed and stamps each segment's start, so every segment is a
    timing unit of its own.
    Like the other workloads it calls the program through its module at
    every pass, so the tracer's wrappers, installed later, are seen.
    """

    name = "chaos_armed"
    op = "segment"
    traced_passes = 1
    #: Host seconds of one pass on the reference host.
    pass_s = 7.5

    def __init__(self, seed: int):
        from repro.faults import campaign, scenarios

        self._campaign = campaign
        self._scenarios = scenarios
        self.segments = scenarios.DEFAULT_SEGMENTS
        self.campaign_seed = input_rng(self.name, seed).getrandbits(31)

    def reference_pass(self) -> PassResult:
        """The user's call, ``run_chaos_campaign``, that the stamped passes must match."""
        reset_program_state()
        start = time.perf_counter()
        try:
            report = self._scenarios.run_chaos_campaign(
                self.campaign_seed, num_segments=self.segments, smoke=True
            )
        except Exception as exc:  # noqa: BLE001 - a crashed campaign is a failed pass
            report = exc
        return self._result(report, [time.perf_counter() - start], [])

    def run_pass(self) -> PassResult:
        reset_program_state()
        # Per call of ``stamp``: when it was entered, its probes, and when
        # it returned, so a segment's time leaves the probe out.
        entered: List[float] = []
        probes: List[float] = []
        returned: List[float] = []

        def stamp() -> float:
            entered.append(time.perf_counter())
            probes.extend(probe_s() for _ in range(CHAOS_PROBES))
            returned.append(time.perf_counter())
            return returned[-1]

        # The budget never stops the campaign; it makes the runner call
        # ``stamp`` once before each segment.
        runner = self._scenarios.build_chaos_runner(
            self.campaign_seed, num_segments=self.segments, smoke=True,
            budget=self._campaign.CampaignBudget(max_wall_s=1e9), time_source=stamp,
        )
        try:
            report = runner.run()
        except Exception as exc:  # noqa: BLE001 - a crashed campaign is a failed pass
            report = exc
        entered.append(time.perf_counter())
        # Calls: the campaign start, then one before each segment.
        unit_s = [end - start for start, end in zip(returned[1:], entered[2:])]
        return self._result(report, unit_s, probes[CHAOS_PROBES:])

    def _result(self, report: Any, unit_s: List[float], probes: List[float]) -> PassResult:
        problems: List[str] = []
        if isinstance(report, Exception):
            outputs = [error_output(report)] * self.segments
        else:
            whole = canonical(report.to_dict())
            outputs = []
            for index in range(self.segments):
                if index in report.completed:
                    record = report.completed[index]
                    if record["result"].get("sanitizer_violations", 0):
                        problems.append(f"segment {index} sanitizer violations")
                    outputs.append((OK, canonical(record) + whole))
                else:
                    outputs.append((ERROR, canonical(report.failed.get(index)) + whole))
        return _finish(outputs, [1] * self.segments, unit_s, probes, problems)

    def requests_s(self, unit_s: List[float]) -> List[float]:
        """One request, the campaign call: the sum of its segments' times."""
        return [sum(unit_s)]


class PaperscaleAlg1:
    """Live Algorithm 1 + templating on a 2 GiB CTA kernel (128 KiB rows).

    A pass runs :data:`PAPERSCALE_CAMPAIGNS` campaigns with different
    hammer seeds; each campaign call is a request and a timing unit.
    """

    name = "paperscale_alg1"
    op = "hammer round"
    traced_passes = 2
    pass_s = 5.0

    #: Report fields that are host timings, excluded from the output check.
    TIMING_FIELDS = ("boot_s", "algorithm1_s", "templating_s")

    def __init__(self, seed: int):
        from repro.perf import paperscale

        self._paperscale = paperscale
        rng = input_rng(self.name, seed)
        self.hammer_seeds = [rng.getrandbits(31) for _ in range(PAPERSCALE_CAMPAIGNS)]

    def run_pass(self) -> PassResult:
        from dataclasses import asdict

        reset_program_state()
        problems: List[str] = []
        outputs: List[Output] = []
        weights: List[int] = []
        unit_s: List[float] = []
        probes: List[float] = []
        for hammer_seed in self.hammer_seeds:
            probes.append(probe_s())
            start = time.perf_counter()
            try:
                report = self._paperscale.run_paperscale_campaign(seed=hammer_seed)
            except Exception as exc:  # noqa: BLE001 - a crashed campaign is a failed op
                unit_s.append(time.perf_counter() - start)
                outputs.append(error_output(exc))
                weights.append(1)
                continue
            unit_s.append(time.perf_counter() - start)
            record = {
                key: value
                for key, value in asdict(report).items()
                if key not in self.TIMING_FIELDS
            }
            # Contained means neither attack succeeds. Templating reports
            # ``blocked`` when CTA stops it and ``failed`` when no template
            # hits a PTE field at all, before CTA is reached.
            for attack, outcome in (("Algorithm 1", report.algorithm1_outcome),
                                    ("templating", report.templating_outcome)):
                if outcome == "success":
                    problems.append(f"{attack} succeeded against CTA (seed {hammer_seed})")
            outputs.append((OK, canonical(record)))
            weights.append(max(1, report.hammer_rounds))
        return _finish(outputs, weights, unit_s, probes, problems)

    reference_pass = run_pass

    def requests_s(self, unit_s: List[float]) -> List[float]:
        """Every campaign call is a request."""
        return list(unit_s)


WORKLOADS = {cls.name: cls for cls in (ChaosArmed, PaperscaleAlg1)}


def check_pass(result: PassResult, reference: PassResult) -> List[Tuple[str, int]]:
    """``(verdict, weight)`` per output of a pass against the reference.

    A pass whose fingerprint differs from the reference, or which broke
    an invariant, did different (or wrong) work: every output is a
    mismatch.
    """
    spoiled = bool(result.problems) or result.fingerprint != reference.fingerprint
    if len(result.outputs) != len(reference.outputs):
        spoiled = True
    verdicts = []
    for index, (output, weight) in enumerate(zip(result.outputs, result.weights)):
        if spoiled:
            verdicts.append((MISMATCH, weight))
        else:
            verdicts.append((classify(output, reference.outputs[index]), weight))
    return verdicts

"""``service_tenants``: a real ``repro serve`` driven by a closed-loop client.

The server runs in its own process (the simulating process, whose peak
RSS is reported); this module is the client. It sends its next request
only after the previous reply arrived (each on its own connection, as
``repro submit`` does), on behalf of 8 tenants submitting 2-segment
``probabilistic_trial`` campaigns.

The schedule is a pure function of the seed. A request is new (a fresh
campaign seed) or repeats an earlier request, whose reply has therefore
already arrived, so every repeat is a deterministic memo hit. One
request in four is new: the median measures the hit path and p90 the
compute path.

A run replays the schedule's first :data:`REQUESTS` requests several
times, each time against a fresh server with a fresh ``--memo-dir``, so
every replay does the same work. A host-speed probe runs before each
request; each request's latency is scaled to the reference host's speed
by its replay's probes, and its median over the replays is reported.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from common import (
    ERROR,
    OK,
    WORK,
    add_counts,
    canonical,
    classify,
    digest,
    host_factor,
    input_rng,
    median,
    pass_rate,
    program_env,
    probe_s,
    proc_peak_rss_mib,
    registry_fingerprint,
)
from workloads import timed_passes

NAME = "service_tenants"
TARGET = "repro.perf.parallel:probabilistic_trial"
TENANTS = 8
SEGMENTS = 2
#: One request in each block of this many is new; the rest repeat.
BLOCK = 4
#: Requests per replay (and in the traced replay).
REQUESTS = 128
#: Host seconds of one replay, server start included, on the reference host.
REPLAY_S = 10.0
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Scheduled:
    """One request of the schedule."""

    position: int
    tenant: str
    seed: int
    #: Position of the earlier request this repeats.
    repeat_of: Optional[int]


def schedule(seed: int) -> Iterator[Scheduled]:
    """The endless request stream for ``seed``.

    Requests come in blocks of :data:`BLOCK`; exactly one per block is
    new (the first request of the stream always is), so every run issues
    the same share of compute-path requests whatever the seed.
    """
    rng = input_rng(NAME, seed)
    seeds: List[int] = []
    new_slot = 0
    for position in itertools.count():
        slot = position % BLOCK
        if slot == 0 and position:
            new_slot = rng.randrange(BLOCK)
        tenant = f"tenant-{rng.randrange(TENANTS)}"
        if slot == new_slot:
            repeat_of = None
            campaign_seed = rng.getrandbits(48)
        else:
            repeat_of = rng.randrange(position)
            campaign_seed = seeds[repeat_of]
        seeds.append(campaign_seed)
        yield Scheduled(position, tenant, campaign_seed, repeat_of)


def request_for(item: Scheduled) -> Any:
    """The wire request a scheduled item sends."""
    from repro.service import CampaignRequest

    return CampaignRequest(
        name="tenants",
        target=TARGET,
        num_segments=SEGMENTS,
        seed=item.seed,
        tenant=item.tenant,
    )


def report_output(report: Dict[str, Any]) -> Tuple[str, str]:
    """``(status, bytes)`` of a report; failed segments make it an error.

    A failed campaign is compared by the set of its segments' error
    types, which is what a serial reference that raised at its first
    failing segment can be compared with.
    """
    results = report.get("results", [])
    errors = {r["error"] for r in results if isinstance(r, dict) and "error" in r}
    if report["segments"]["failed"]:
        return (ERROR, ",".join(sorted(errors)))
    return (OK, canonical(report))


# -- server process ------------------------------------------------------------
class Server:
    """A ``repro serve`` process listening on an ephemeral port."""

    def __init__(self, memo_dir: Path, launcher_out: Optional[Path] = None):
        if launcher_out is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       "--out", str(launcher_out)]
        command += ["serve", "--port", "0", "--memo-dir", str(memo_dir)]
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=program_env()
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.monotonic() - spawned
        if "listening on" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def op(self, name: str) -> Dict[str, Any]:
        from repro.service import send_op

        return send_op("127.0.0.1", self.port, name, timeout_s=60.0)

    def drain(self) -> None:
        """Drain, then wait for the process to exit."""
        try:
            self.op("drain")
        finally:
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


def _memo_dir(tag: str) -> Path:
    path = WORK / f"memo-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- client --------------------------------------------------------------------
@dataclass
class Reply:
    item: Scheduled
    latency_s: float
    output: Tuple[str, str]
    completed_segments: int
    #: The host-speed probe run just before the request was sent.
    probe_s: float = 0.0


def drive(port: int, seed: int) -> Tuple[List[Reply], float]:
    """Send the schedule's first :data:`REQUESTS` requests, one at a time.

    Returns the replies and the elapsed host time.
    """
    from repro.errors import ReproError
    from repro.service import submit_over_socket

    replies: List[Reply] = []
    start = time.perf_counter()
    for item in itertools.islice(schedule(seed), REQUESTS):
        probe = probe_s()
        began = time.perf_counter()
        try:
            report, _ = submit_over_socket(
                "127.0.0.1", port, request_for(item), timeout_s=120.0
            )
        except ReproError as exc:
            output: Tuple[str, str] = (ERROR, type(exc).__name__)
            completed = 0
        else:
            output = report_output(report)
            completed = int(report["segments"]["completed"])
        replies.append(Reply(item, time.perf_counter() - began, output, completed, probe))
    return replies, time.perf_counter() - start


def expected_memo(replies: List[Reply]) -> Tuple[int, int]:
    """Memo ``(hits, stores)`` the schedule implies for these replies.

    Only successful segments are stored, so a repeat hits once per
    completed segment of the new request whose seed it carries (new
    seeds are unique within a schedule).
    """
    stored = {r.item.seed: r.completed_segments for r in replies if r.item.repeat_of is None}
    hits = sum(stored[r.item.seed] for r in replies if r.item.repeat_of is not None)
    return hits, sum(stored.values())


def references(seeds: List[int]) -> Dict[int, Tuple[Tuple[str, str], Dict[str, int]]]:
    """Serial ``run_campaign_parallel(workers=1)`` output and fingerprint per seed."""
    from repro import faults, obs, sanitize
    from repro.perf.parallel import run_campaign_parallel

    out = {}
    for seed in seeds:
        obs.reset()
        sanitize.reset()
        faults.reset()
        try:
            report = run_campaign_parallel(
                name="tenants", target=TARGET, num_segments=SEGMENTS, seed=seed,
                kwargs={}, config={}, workers=1, max_retries=3,
            )
        except Exception as exc:  # noqa: BLE001 - a crashed reference is a failed op
            output: Tuple[str, str] = (ERROR, type(exc).__name__)
        else:
            output = report_output(report.to_dict())
        out[seed] = (output, registry_fingerprint(obs.get_registry()))
    return out


def _traced(seed: int) -> Dict[str, Any]:
    """Replay the schedule against a traced server."""
    dump_path = WORK / f"spans-{NAME}-{seed}.json"
    server = Server(_memo_dir("traced"), launcher_out=dump_path)
    try:
        replies, elapsed = drive(server.port, seed)
    finally:
        server.drain()
    traced = json.loads(dump_path.read_text(encoding="utf-8"))
    traced.update(replies=replies, elapsed_s=elapsed,
                  spans_file=str(dump_path.relative_to(WORK.parent)))
    return traced


def _trace_result(traced: Dict[str, Any], untraced_rate: float, refs: Dict[int, Any],
                  verdicts) -> Dict[str, Any]:
    """The traced run's raw data, with its fingerprint check.

    The traced server's registry must hold exactly the references'
    simulated counts for the requests it served, plus the memo traffic
    the schedule implies. The tracing overhead compares the traced rate
    with the untraced replays' median rate over the same requests.
    """
    replies = traced["replies"]
    expected: Dict[str, int] = {}
    for reply in replies:
        expected = add_counts(expected, refs[reply.item.seed][1])
    hits, stores = expected_memo(replies)
    expected = add_counts(expected, {"memo.hits": hits, "memo.stores": stores})
    # A failed segment ships no obs state, so the check needs clean replies.
    clean = all(reply.output[0] == OK for reply in replies)
    return {
        "passes": [{"ops": len(replies), "elapsed_s": traced["elapsed_s"]}],
        "untraced_rate": untraced_rate,
        "verdicts": verdicts(replies),
        "fingerprints_match": (
            traced["fingerprint"] == {k: v for k, v in expected.items() if v}
            if clean else None
        ),
        "counters": traced["counters"],
        "boundaries": traced["boundaries"],
        "queue_waits_s": traced["queue_waits_s"],
        "missing": traced["missing"],
        "spans_file": traced["spans_file"],
        "hit_latency_ms": sorted(
            r.latency_s * 1000.0 for r in replies if r.item.repeat_of is not None
        ),
    }


def _replay(seed: int, index: int) -> Dict[str, Any]:
    """One timed replay against a fresh server."""
    server = Server(_memo_dir(f"timed-{index}"))
    try:
        replies, elapsed = drive(server.port, seed)
        stats = server.op("stats")["stats"]
        peak_rss = proc_peak_rss_mib(server.proc.pid)
    finally:
        server.drain()
    problems = []
    hits, stores = expected_memo(replies)
    memo = stats.get("memo") or {}
    if (memo.get("hits"), memo.get("stores")) != (hits, stores):
        problems.append(
            f"memo accounting in replay {index}: server hits/stores "
            f"{memo.get('hits')}/{memo.get('stores')} but the schedule implies {hits}/{stores}"
        )
    return {"setup_s": server.setup_s, "replies": replies, "elapsed_s": elapsed,
            "peak_rss_mib": peak_rss, "problems": problems}


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """The whole ``service_tenants`` run; raw data for ``run.py``."""
    replays = [_replay(seed, index) for index in range(timed_passes(seconds, REPLAY_S))]
    traced = _traced(seed) if trace else None

    items = list(itertools.islice(schedule(seed), REQUESTS))
    refs = references(sorted({item.seed for item in items}))
    fingerprint: Dict[str, int] = {}
    for item in items:
        fingerprint = add_counts(fingerprint, refs[item.seed][1])
    repeats = sum(1 for item in items if item.repeat_of is not None)
    fingerprint = add_counts(fingerprint, {"schedule.repeat_segments": repeats * SEGMENTS})

    def verdicts(batch: List[Reply]) -> List[Tuple[str, int]]:
        return [(classify(r.output, refs[r.item.seed][0]), 1) for r in batch]

    passes = [{"ops": len(r["replies"]), "elapsed_s": r["elapsed_s"]} for r in replays]
    factors = [host_factor([reply.probe_s for reply in r["replies"]]) for r in replays]
    unit_s = [
        median([r["replies"][position].latency_s / factor
                for r, factor in zip(replays, factors)])
        for position in range(REQUESTS)
    ]
    result: Dict[str, Any] = {
        "workload": NAME,
        "op": "request",
        "setup_s": [r["setup_s"] for r in replays],
        "passes": passes,
        "host_factor": median(factors),
        "ops_per_pass": REQUESTS,
        "unit_s": unit_s,
        "unit_samples": REQUESTS * len(replays),
        "requests_s": unit_s,
        "verdicts": [v for r in replays for v in verdicts(r["replies"])],
        "fingerprint": fingerprint,
        "outputs_digest": digest([refs[item.seed][0] for item in items]),
        "reference_problems": [p for r in replays for p in r["problems"]],
        "peak_rss_mib": max(r["peak_rss_mib"] for r in replays),
    }
    if traced is not None:
        result["trace"] = _trace_result(traced, pass_rate(passes), refs, verdicts)
    for path in WORK.glob("memo-*"):
        shutil.rmtree(path, ignore_errors=True)
    return result

"""Shared pieces of the benchmark: paths, statistics, fingerprints, checks.

Everything here is pure Python and imports nothing from the simulator at
module load, so ``run.py`` can start (and fail cleanly) in a directory
that does not hold the program's sources.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The simulator's sources inside that checkout.
SRC = ROOT / "src"
#: Scratch space for server memo directories and span dumps (git-ignored).
WORK = ROOT / ".perfbench"

#: Percentiles the tail rule picks from, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Simulated-work counters from the program's obs registry that make up
#: a workload's fingerprint. ``faults.injected`` is split by fault kind.
FINGERPRINT_COUNTERS = (
    "rowhammer.hammers",
    "rowhammer.flips",
    "faults.injected",
    "mmu.walks",
    "tlb.hits",
    "tlb.misses",
    "campaign.retries",
    "memo.hits",
    "memo.stores",
)


def require_sources() -> None:
    """Exit with status 2 unless the checkout holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def input_rng(workload: str, seed: int) -> random.Random:
    """The benchmark's own generator for a workload's inputs.

    The program never sees ``seed``; it sees only values drawn from here.
    """
    return random.Random(f"perfbench/{workload}/{seed}")


# -- statistics ----------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above the ``pct`` rank."""
    return count - math.ceil(count * pct / 100.0)


def tail_percentile(values: Sequence[float]) -> Tuple[Optional[float], Optional[float], int]:
    """The highest ladder percentile with enough samples beyond it.

    Returns ``(pct, value, sample_count)``; ``pct`` and ``value`` are
    ``None`` when even the median lacks ten samples beyond it.
    """
    count = len(values)
    best: Tuple[Optional[float], Optional[float]] = (None, None)
    for pct in PERCENTILE_LADDER:
        if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            best = (pct, percentile(values, pct))
    return best[0], best[1], count


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return percentile(values, 50.0)


def pass_rate(passes: Sequence[Dict[str, float]]) -> float:
    """The median of the passes' rates (operations per second)."""
    return median([p["ops"] / p["elapsed_s"] for p in passes])


# -- host speed ----------------------------------------------------------------
#: Iterations of the host-speed probe.
PROBE_ITERATIONS = 20_000
#: The probe's median time on the reference host (a 2-vCPU shared Xeon VM).
PROBE_REF_S = 0.0018


def probe_s() -> float:
    """Host seconds of one run of a fixed pure-Python loop.

    The host is shared, and its speed drifts by up to ~1.7x over minutes
    as co-tenants come and go; this loop's median time over a few seconds
    follows the drift (r = 0.95 against the simulator's own over 20 s
    windows). It never calls the simulator, so no change to the program
    can move it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def host_factor(probes: Sequence[float]) -> float:
    """How much slower than the reference host the host ran the probes."""
    return median(probes) / PROBE_REF_S


# -- fingerprints and output checks -------------------------------------------
def registry_fingerprint(registry: Any) -> Dict[str, int]:
    """Exact simulated-work counts from an obs registry."""
    out: Dict[str, int] = {}
    for name in FINGERPRINT_COUNTERS:
        metric = registry.get(name)
        if metric is None:
            continue
        if name == "faults.injected":
            for key, value in metric.series().items():
                kind = dict(key).get("fault", "?")
                series = f"{name}.{kind}"
                out[series] = out.get(series, 0) + int(value)
        else:
            out[name] = int(metric.total())
    return {name: value for name, value in sorted(out.items()) if value}


def add_counts(total: Dict[str, int], more: Dict[str, int]) -> Dict[str, int]:
    """Sum two count dicts (returns a new dict)."""
    out = dict(total)
    for name, value in more.items():
        out[name] = out.get(name, 0) + value
    return dict(sorted(out.items()))


def canonical(value: Any) -> str:
    """Canonical JSON text, the byte form outputs are compared in."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: Any) -> str:
    """Short content digest of a JSON-able value."""
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()[:16]


#: Classification of one operation's output against its reference.
OK, ERROR, MISMATCH = "ok", "error", "mismatch"


def classify(output: Tuple[str, str], reference: Tuple[str, str]) -> str:
    """Compare one operation's ``(status, bytes)`` with its reference.

    ``status`` is ``"ok"`` or ``"error"``. An operation that fails the
    same way as its reference is a reproduced program failure
    (``ERROR``); any other difference is a wrong output (``MISMATCH``).
    """
    if output != reference:
        return MISMATCH
    return ERROR if output[0] == "error" else OK


def tally(verdicts: Iterable[Tuple[str, int]]) -> Dict[str, int]:
    """Sum ``(verdict, operations)`` pairs into attempted/failed/mismatched."""
    counts = {"attempted": 0, "failed": 0, "mismatched": 0}
    for verdict, weight in verdicts:
        counts["attempted"] += weight
        if verdict != OK:
            counts["failed"] += weight
        if verdict == MISMATCH:
            counts["mismatched"] += weight
    return counts


def failed_fraction(counts: Dict[str, int]) -> float:
    """Failed operations over attempted operations."""
    return counts["failed"] / counts["attempted"] if counts["attempted"] else 0.0


def error_output(exc: BaseException) -> Tuple[str, str]:
    """The ``(status, bytes)`` output of an operation that raised."""
    return ("error", f"{type(exc).__name__}: {exc}")


def peak_rss_mib() -> float:
    """High-water resident set size of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mib(pid: int) -> float:
    """High-water RSS of another live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def summarize_latency(values_ms: List[float]) -> Dict[str, Any]:
    """Median, p90 and the tail-rule percentile of latencies in ms."""
    tail_pct, tail_value, count = tail_percentile(values_ms)
    return {
        "p50": median(values_ms),
        "p90": percentile(values_ms, 90.0),
        "tail_pct": tail_pct,
        "tail": tail_value,
        "count": count,
    }

"""The repository benchmark: three user workloads, timed end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload chaos_armed --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

``chaos_armed``        ``repro chaos --smoke`` (the CI configuration), plane armed
``service_tenants``    a ``repro serve`` process, one closed-loop client
``paperscale_alg1``    live Algorithm 1 + templating on a 2 GiB CTA kernel

Each workload runs in its own process. A run does a fixed amount of
work, sized to take about ``--seconds`` on the reference host: the same
inputs are timed in several passes, each timing unit (a segment, a
campaign, a request) is scaled to the reference host's speed by a
host-speed probe run beside it, and its median over the passes is
reported, so that co-tenants slowing the shared host down for minutes
do not move the result. The run prints human-readable
lines (every metric with its unit and sample count, the failure count
and the simulated-work fingerprint), then, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    MISMATCH,
    SRC,
    digest,
    failed_fraction,
    median,
    pass_rate,
    program_env,
    require_sources,
    summarize_latency,
    tally,
)

WORKLOAD_NAMES = ("chaos_armed", "service_tenants", "paperscale_alg1")
#: Set-up is measured this many times per run (fresh processes).
SETUP_SAMPLES = 5
#: A run is stopped if its simulating process takes longer than this.
PROCESS_TIMEOUT_S = 170
#: Fingerprint and output digests recorded per workload and seed
#: (written by ``record_expected.py``).
EXPECTED = HERE / "expected.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def _spawn_worker(args: argparse.Namespace, setup_only: bool) -> subprocess.Popen:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=program_env())


def _finish_worker(proc: subprocess.Popen, spawned: float) -> Dict[str, Any]:
    """Collect one worker's output: set-up time and its last JSON line."""
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("simulating process timed out")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"simulating process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    ready = float(lines[0].split()[1])
    result = json.loads(lines[-1]) if len(lines) > 1 else {}
    result["setup_sample_s"] = ready - spawned
    return result


def run_in_worker(args: argparse.Namespace) -> Dict[str, Any]:
    """Set-up probes, then the measured process, for an in-process workload."""
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        spawned = time.monotonic()
        setup.append(_finish_worker(_spawn_worker(args, True), spawned)["setup_sample_s"])
    spawned = time.monotonic()
    result = _finish_worker(_spawn_worker(args, False), spawned)
    setup.append(result.pop("setup_sample_s"))
    result["setup_s"] = setup
    return result


def digests(raw: Dict[str, Any]) -> Dict[str, str]:
    """The run's simulated-work fingerprint and reference-output digests."""
    return {"fingerprint": digest(raw["fingerprint"]), "outputs": raw["outputs_digest"]}


def expected_problems(workload: str, seed: int, measured: Dict[str, str]) -> List[str]:
    """How ``measured`` differs from the digests recorded for this pair.

    A pair that was never recorded has nothing to differ from.
    """
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    expected = recorded.get(workload, {}).get(str(seed))
    if expected is None:
        return []
    return [
        f"{key} digest {measured[key]}, but {expected[key]} is recorded for "
        f"{workload} seed {seed}: the program does different work or gives other outputs"
        for key in ("fingerprint", "outputs")
        if measured[key] != expected[key]
    ]


def unit_rate(raw: Dict[str, Any]) -> float:
    """Operations per second of one pass at every unit's median time."""
    return raw["ops_per_pass"] / sum(raw["unit_s"])


def end_to_end(raw: Dict[str, Any], latency: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics, each with unit and sample count."""
    values = {
        "setup_s": (median(raw["setup_s"]) / raw["host_factor"], len(raw["setup_s"])),
        "ops_per_s": (unit_rate(raw), raw["unit_samples"]),
        "request_p50_ms": (latency["p50"], latency["count"]),
        "request_p90_ms": (latency["p90"], latency["count"]),
        "peak_rss_mib": (raw["peak_rss_mib"], 1),
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name], "samples": count}
        for name, (value, count) in values.items()
    }


def _print_end_to_end(raw: Dict[str, Any], metrics: Dict[str, Dict[str, Any]],
                      latency: Dict[str, Any], counts: Dict[str, int]) -> None:
    for name, metric in metrics.items():
        kind = "host memory" if name == "peak_rss_mib" else "host time at reference speed"
        print(f"  {name:<16} {metric['value']:>12.4f} {metric['unit']:<4} "
              f"(n={metric['samples']})  [{kind}]")
    if latency["tail_pct"] is not None:
        print(f"  request tail     p{latency['tail_pct']:g} = {latency['tail']:.4f} ms "
              f"(n={latency['count']}, >=10 samples beyond it)")
    else:
        print(f"  request tail     none: fewer than 10 samples beyond the median "
              f"(n={latency['count']})")
    print(f"  failed_fraction  {failed_fraction(counts):>12.4f}      "
          f"({counts['failed']} of {counts['attempted']} operations failed; "
          f"{counts['mismatched']} wrong outputs)")
    print(f"  host speed       probes ran {raw['host_factor']:.3f}x the reference host's time; "
          f"host times above are divided by it")
    for problem in raw["reference_problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  fingerprint {digest(raw['fingerprint'])} [simulated work, must repeat "
          f"exactly]: {json.dumps(raw['fingerprint'], sort_keys=True)}")
    print(f"  outputs {raw['outputs_digest']} [digest of the reference outputs]")


def _traced_metrics(raw: Dict[str, Any], untraced_rate: float) -> Dict[str, float]:
    from layers import layer_metrics, layer_shares

    trace = raw["trace"]
    values = layer_metrics(
        trace["boundaries"],
        trace["counters"],
        sum(p["elapsed_s"] for p in trace["passes"]),
        pass_rate(trace["passes"]),
        untraced_rate,
        trace["queue_waits_s"],
    )
    shares = ", ".join(f"{layer} {share:.1%}" for layer, share in layer_shares(values)[:6])
    print(f"  traced: {len(trace['passes'])} pass(es), spans in {trace['spans_file']}")
    print(f"  self-time shares: {shares}")
    if trace.get("hit_latency_ms"):
        hits = trace["hit_latency_ms"]
        requests = trace["passes"][0]["ops"]
        print(f"  traced hit requests: median {median(hits):.3f} ms (n={len(hits)}); "
              f"per request: memo.lookup "
              f"{values['memo.lookup.self_s'] * 1000 / requests:.3f} ms, "
              f"service.protocol {values['service.protocol.self_s'] * 1000 / requests:.3f} ms")
    if trace["missing"]:
        print(f"  boundaries not found: {', '.join(trace['missing'])}")
    for name, value in values.items():
        print(f"    {name:<28} {value:.6g}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds normally, so it stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    require_sources()
    sys.path.insert(0, str(SRC))

    if args.workload == "service_tenants":
        import service

        raw = service.run(args.seed, args.seconds, bool(args.trace))
    else:
        raw = run_in_worker(args)

    raw["reference_problems"] += expected_problems(args.workload, args.seed, digests(raw))
    verdicts = [tuple(v) for v in raw["verdicts"]]
    if args.trace:
        verdicts += [tuple(v) for v in raw["trace"]["verdicts"]]
    if raw["reference_problems"]:
        # Different or wrong work: no operation's output can be trusted.
        verdicts = [(MISMATCH, weight) for _, weight in verdicts]
    counts = tally(verdicts)
    correct = counts["mismatched"] == 0 and not raw["reference_problems"]

    latency = summarize_latency([s * 1000.0 for s in raw["requests_s"]])
    metrics = end_to_end(raw, latency)
    print(f"workload {args.workload} seed {args.seed}: one operation = one {raw['op']}")
    _print_end_to_end(raw, metrics, latency, counts)
    if args.trace:
        from layers import per_layer_output

        match = raw["trace"]["fingerprints_match"]
        print("  traced fingerprint: " + {True: "identical to the untraced one",
                                          False: "PROBLEM: differs from the untraced one",
                                          None: "not compared (a traced request failed)"}[match])
        correct = correct and match is not False
        untraced_rate = raw["trace"].get("untraced_rate", pass_rate(raw["passes"]))
        output_metrics = per_layer_output(_traced_metrics(raw, untraced_rate))
    else:
        output_metrics = {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": output_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

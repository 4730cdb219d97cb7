"""One simulating process for ``chaos_armed`` or ``paperscale_alg1``.

Started by ``run.py``; prints ``READY <monotonic time>`` once imports and
input generation are done (the end of set-up), then, unless
``--setup-only``, one JSON line with the run's raw measurements:

1. a reference pass, untimed;
2. a fixed number of timed passes of the same inputs, as many as take
   about ``--seconds`` on the reference host (:func:`timed_passes`);
   each timing unit's time is scaled to the reference host's speed by
   the probes of its pass, and its median over the passes is reported;
3. with ``--trace 1``, a fixed number of further passes under the
   layer tracer, for per-layer attribution and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import WORK, digest, host_factor, median, peak_rss_mib
from workloads import GAUGE_NAMES, WORKLOADS, check_pass, timed_passes


def _pass_summary(result) -> dict:
    return {"ops": result.ops, "elapsed_s": result.elapsed_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    reference = workload.reference_pass()
    verdicts = []
    passes = []
    factors = []
    scaled = []
    for _ in range(timed_passes(args.seconds, workload.pass_s)):
        result = workload.run_pass()
        verdicts += check_pass(result, reference)
        passes.append(_pass_summary(result))
        factors.append(host_factor(result.probes))
        scaled.append([seconds / factors[-1] for seconds in result.unit_s])
    unit_s = [median(times) for times in zip(*scaled)]
    out = {
        "workload": workload.name,
        "op": workload.op,
        "passes": passes,
        "host_factor": median(factors),
        "ops_per_pass": reference.ops,
        "unit_s": unit_s,
        "unit_samples": len(scaled) * len(unit_s),
        "requests_s": workload.requests_s(unit_s),
        "verdicts": verdicts,
        "fingerprint": reference.fingerprint,
        "outputs_digest": digest(reference.outputs),
        "reference_problems": reference.problems,
        "peak_rss_mib": peak_rss_mib(),
    }
    if args.trace:
        out["trace"] = _traced_passes(workload, reference, args)
    print(json.dumps(out), flush=True)
    return 0


def _traced_passes(workload, reference, args) -> dict:
    """Run the workload's traced passes; return tracer data and counts."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        results = [workload.run_pass() for _ in range(workload.traced_passes)]
    finally:
        tracer.uninstall()
    counters: dict = {}
    for result in results:
        for name, value in result.counters.items():
            if name in GAUGE_NAMES:
                counters[name] = max(counters.get(name, 0.0), value)
            else:
                counters[name] = counters.get(name, 0.0) + value
    dump = tracer.dump()
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload.name}-{args.seed}.json"
    spans_path.write_text(json.dumps(dump), encoding="utf-8")
    verdicts = []
    for result in results:
        verdicts += check_pass(result, reference)
    return {
        "passes": [_pass_summary(result) for result in results],
        "verdicts": verdicts,
        "fingerprints_match": all(r.fingerprint == reference.fingerprint for r in results),
        "counters": counters,
        "boundaries": dump["boundaries"],
        "queue_waits_s": dump["queue_waits_s"],
        "missing": dump["missing"],
        "spans_file": str(spans_path.relative_to(WORK.parent)),
    }


if __name__ == "__main__":
    sys.exit(main())

"""Record the digests ``run.py`` checks each (workload, seed) run against.

Usage (from the root of a checkout)::

    python3 perfbench/record_expected.py [WORKLOAD ...]

Runs ``run.py`` once per workload for each of :data:`SEEDS`, with a
one-second timed phase, and writes the fingerprint and reference-output
digests it prints to ``perfbench/expected.json``: for the named
workloads (default: all), keeping the other entries. Re-record only for a
change that is meant to alter the simulated work or the outputs; a
speed-up must leave every recorded digest as it is.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXPECTED, WORKLOAD_NAMES  # noqa: E402

#: The seeds recorded for every workload.
SEEDS = range(1, 11)


def recorded_digests(workload: str, seed: int) -> dict:
    """The two digests one run prints."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    found = {}
    for line in out.splitlines():
        words = line.split()
        if len(words) >= 2 and words[0] in ("fingerprint", "outputs"):
            found[words[0]] = words[1]
    return {"fingerprint": found["fingerprint"], "outputs": found["outputs"]}


def main(argv=None) -> int:
    workloads = (sys.argv[1:] if argv is None else argv) or list(WORKLOAD_NAMES)
    unknown = sorted(set(workloads) - set(WORKLOAD_NAMES))
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    expected = {name: entries for name, entries in expected.items() if name in WORKLOAD_NAMES}
    for workload in workloads:
        expected[workload] = {}
        for seed in SEEDS:
            entry = recorded_digests(workload, seed)
            expected[workload][str(seed)] = entry
            print(workload, seed, entry["fingerprint"], entry["outputs"], flush=True)
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

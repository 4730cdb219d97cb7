"""Start ``repro serve`` under the layer tracer (the traced service run).

Installs the benchmark's wrappers, then calls ``repro.cli.main`` with the
remaining arguments, so the traced server has the same process layout as
the untraced ``python -m repro serve``. When the server has drained, the
tracer's data and the registry's counters are written to ``--out``::

    python3 perfbench/serve_launcher.py --out spans.json serve --port 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import registry_fingerprint
from tracer import Tracer
from workloads import registry_counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, type=Path)
    args, rest = parser.parse_known_args(argv)

    from repro import cli, obs

    tracer = Tracer()
    tracer.install()
    try:
        status = cli.main(rest)
    finally:
        tracer.uninstall()
    registry = obs.get_registry()
    dump = tracer.dump()
    dump["counters"] = registry_counters(registry)
    dump["fingerprint"] = registry_fingerprint(registry)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(dump), encoding="utf-8")
    return int(status or 0)


if __name__ == "__main__":
    sys.exit(main())

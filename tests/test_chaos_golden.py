"""Golden replay of armed chaos campaigns.

Every other chaos test compares two runs of the same code, so a change
that moves both sides alike (say, a rewrite of the hammer path that only
runs under an armed fault plane) would pass them. These digests pin the
campaign report and the full obs registry state of two fixed seeds to
values captured before the fault plane learned to take batches of
``dram.read`` events. Both seeds fire ``dram-read-error`` during
segment 0 and retry it, so the digests cover a fault raised mid-hammer,
the failed attempt's metrics, and the retried attempt.

Regenerating after an *intentional* semantic change: run
``campaign_digests(seed)[1:]`` and paste the new values below.
"""

import hashlib
import json

import pytest

from repro import faults, obs, sanitize
from repro.faults.scenarios import run_chaos_campaign

#: (report digest, registry digest) per seed.
GOLDEN = {
    1: (
        "40a1ff9d9fb24f7c1cba15fc1f9aa4819c5063fdceafec3c0520dc602ec93a6c",
        "0235205ac884c5973336255e17278e6ac23cb3bdbc340868588c8381104bf7b4",
    ),
    7: (
        "255e07eb0561db92e363cc572d43d090b4259495dc5629ab8937b69c9532f766",
        "3f7f955eacfc04ec8c4a49853eda00dcd79ea2de025079942d5e95756ff6f317",
    ),
}

#: Attempts segment 0 needs per seed (``dram-read-error`` retries).
SEGMENT0_ATTEMPTS = {1: 2, 7: 3}


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def campaign_digests(seed: int):
    """Run the smoke chaos rotation in a fresh world; digest its outputs."""
    obs.set_registry(obs.Registry())
    sanitize.reset()
    faults.uninstall()
    report = run_chaos_campaign(seed, num_segments=6, smoke=True)
    state = obs.get_registry().export_state()
    return report, _digest(report.to_dict()), _digest(state)


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_armed_chaos_replays_golden_bytes(seed):
    report, report_digest, state_digest = campaign_digests(seed)
    assert report.completed[0]["attempts"] == SEGMENT0_ATTEMPTS[seed]
    snapshot = obs.get_registry().snapshot()
    assert snapshot["faults.injected{event=dram.read,fault=dram-read-error}"] >= 1
    assert (report_digest, state_digest) == GOLDEN[seed]

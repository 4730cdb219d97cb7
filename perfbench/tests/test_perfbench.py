"""Tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
from tracer import INPLACE, SPAN, Tracer, span_self_times  # noqa: E402


# -- the percentile rule -------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    pct, value, reported = common.tail_percentile([float(i) for i in range(count)])
    assert reported == count
    assert pct == expected
    if expected is None:
        assert value is None
    else:
        assert common.samples_beyond(count, pct) >= common.MIN_SAMPLES_BEYOND
        assert value == common.percentile([float(i) for i in range(count)], pct)


def test_percentile_interpolates_linearly():
    assert common.percentile([0.0, 10.0], 50.0) == 5.0
    assert common.percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert common.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90.0) == pytest.approx(4.6)


# -- span self time on synthetic trees ------------------------------------------
class FakeClock:
    """A clock that advances only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def _tree(tracer: Tracer, clock: FakeClock):
    """root(span) -> [child(span) -> leaf(in place)], access(in place) x3."""

    def leaf():
        clock.spend(0.5)

    def access():
        clock.spend(0.25)

    leaf_w = tracer.wrap(leaf, "dram.read", INPLACE)
    access_w = tracer.wrap(access, "obs.inc", INPLACE)

    def child():
        clock.spend(1.0)
        leaf_w()
        clock.spend(2.0)

    child_w = tracer.wrap(child, "dram.hammer", SPAN)

    def root():
        clock.spend(3.0)
        child_w()
        for _ in range(3):
            access_w()
        clock.spend(4.0)

    return tracer.wrap(root, "campaign.run", SPAN)


def test_span_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _tree(tracer, clock)()
    # root: 3 + 3.5 (child) + 0.75 (accesses) + 4 = 11.25; self 7.
    assert tracer.stats["campaign.run"] == [1, 11.25, 7.0]
    assert tracer.stats["dram.hammer"] == [1, 3.5, 3.0]
    assert tracer.stats["dram.read"] == [1, 0.5, 0.5]
    assert tracer.stats["obs.inc"] == [3, 0.75, 0.75]
    dump = tracer.dump()
    layer = layers.layer_metrics(dump["boundaries"], {}, 11.25, 1.0, 1.0, [])
    assert (layer["campaign.self_s"], layer["dram.self_s"], layer["obs.self_s"]) == (7.0, 3.5, 0.75)
    assert layer["dram.us_per_hammer"] == 3.5e6
    assert layer["harness.self_s"] == 0.0
    # Only spans are stored individually; the offline recomputation from
    # the dump agrees with the online accounting.
    assert [span["name"] for span in dump["spans"]] == ["dram.hammer", "campaign.run"]
    recomputed = span_self_times(dump["spans"], dump["inplace"])
    assert {span["id"]: span["self_s"] for span in dump["spans"]} == recomputed


def test_span_opened_inside_an_inplace_call_is_not_counted_twice():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap(lambda: clock.spend(2.0), "dram.hammer", SPAN)

    def step():
        clock.spend(1.0)
        inner()

    outer = tracer.wrap(lambda: (clock.spend(1.0), tracer.wrap(step, "payload.run", INPLACE)()),
                        "attacks.execute", SPAN)
    outer()
    assert tracer.stats["attacks.execute"] == [1, 4.0, 1.0]
    assert tracer.stats["payload.run"] == [1, 3.0, 1.0]
    dump = tracer.dump()
    recomputed = span_self_times(dump["spans"], dump["inplace"])
    assert sorted(recomputed.values()) == [1.0, 2.0]


# -- in-place per-access accounting ---------------------------------------------
def test_inplace_calls_aggregate_under_their_parent_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def read():
        clock.spend(0.001)

    read_w = tracer.wrap(read, "dram.read", INPLACE)
    read_bit_w = tracer.wrap(lambda: read_w(), "dram.read_bit", INPLACE)

    def segment():
        for _ in range(1000):
            read_bit_w()
        read_w()

    tracer.wrap(segment, "scenario.segment", SPAN)()
    (span,) = tracer.spans
    span_id = span[0]
    calls, total, direct = tracer.inplace[(span_id, "dram.read")]
    assert calls == 1001
    assert total == pytest.approx(1.001)
    assert direct == pytest.approx(0.001)  # only the call made by the span itself
    calls, total, direct = tracer.inplace[(span_id, "dram.read_bit")]
    assert (calls, total, direct) == (1000, pytest.approx(1.0), pytest.approx(1.0))
    assert tracer.stats["dram.read_bit"][2] == pytest.approx(0.0)
    assert tracer.stats["scenario.segment"][2] == pytest.approx(0.0)
    assert len(tracer.spans) == 1


def test_install_wraps_and_uninstall_restores_the_program():
    from repro import obs
    from repro.dram.module import DramModule

    original_read = DramModule.read
    original_inc = obs.inc
    tracer = Tracer()
    tracer.install()
    try:
        assert DramModule.read is not original_read
        assert obs.inc is not original_inc
        obs.inc("perfbench.test")
        assert tracer.stats["obs.inc"][0] == 1
    finally:
        tracer.uninstall()
    assert DramModule.read is original_read
    assert obs.inc is original_inc
    assert tracer.missing == []


# -- the service schedule -------------------------------------------------------
def _prefix(seed, count=64):
    return list(itertools.islice(service.schedule(seed), count))


def test_schedule_is_a_pure_function_of_the_seed():
    assert _prefix(7) == _prefix(7)
    assert _prefix(7) != _prefix(8)


def test_schedule_repeats_only_earlier_requests():
    items = _prefix(11)
    assert items[0].repeat_of is None
    for item in items:
        if item.repeat_of is not None:
            assert item.repeat_of < item.position
            assert items[item.repeat_of].seed == item.seed
    for block in range(len(items) // service.BLOCK):
        chunk = items[block * service.BLOCK:(block + 1) * service.BLOCK]
        assert sum(item.repeat_of is None for item in chunk) == 1
    new_seeds = [item.seed for item in items if item.repeat_of is None]
    assert len(set(new_seeds)) == len(new_seeds)


def test_expected_memo_counts_hits_per_completed_segment():
    items = _prefix(3, count=16)
    replies = [service.Reply(item, 0.0, (common.OK, ""), service.SEGMENTS) for item in items]
    hits, stores = service.expected_memo(replies)
    repeats = sum(item.repeat_of is not None for item in items)
    assert hits == repeats * service.SEGMENTS
    assert stores == (len(items) - repeats) * service.SEGMENTS
    # A request with a failed segment stores (and later replays) one fewer.
    first = replies[0]
    replies[0] = service.Reply(first.item, 0.0, (common.ERROR, "KernelError"), 1)
    repeats_of_first = sum(
        1 for item in items
        if item.repeat_of is not None and item.seed == first.item.seed
    )
    assert service.expected_memo(replies) == (hits - repeats_of_first, stores - 1)


# -- fixed work per run ------------------------------------------------------------
def test_timed_passes_depend_only_on_the_requested_seconds():
    from workloads import MIN_PASSES, timed_passes

    assert timed_passes(30, 5.0) == 6
    assert timed_passes(30, 7.5) == 4
    assert timed_passes(1, 5.0) == MIN_PASSES


def test_ops_per_s_is_one_pass_at_every_unit_median_time():
    raw = {"ops_per_pass": 6, "unit_s": [0.5, 1.0, 1.5]}
    assert run.unit_rate(raw) == 2.0
    assert common.pass_rate([{"ops": 6, "elapsed_s": 2.0}, {"ops": 6, "elapsed_s": 6.0},
                             {"ops": 6, "elapsed_s": 3.0}]) == 2.0


def test_host_factor_scales_by_the_median_probe():
    ref = common.PROBE_REF_S
    assert common.host_factor([ref, 3 * ref, 1.5 * ref]) == pytest.approx(1.5)
    assert common.probe_s() > 0.0


# -- output checks -----------------------------------------------------------------
def test_forced_output_mismatch_counts_in_failed_fraction(monkeypatch):
    import workloads
    from workloads import PaperscaleAlg1, check_pass

    monkeypatch.setattr(workloads, "PAPERSCALE_CAMPAIGNS", 2)
    workload = PaperscaleAlg1(seed=5)
    reference = workload.run_pass()
    result = workload.run_pass()
    total = sum(result.weights)
    assert common.tally(check_pass(result, reference)) == {
        "attempted": total, "failed": 0, "mismatched": 0
    }
    status, text = reference.outputs[1]
    reference.outputs[1] = (status, text.replace('"flips_induced":', '"flips_induced":1'))
    counts = common.tally(check_pass(result, reference))
    assert counts == {"attempted": total, "failed": result.weights[1],
                      "mismatched": result.weights[1]}
    assert common.failed_fraction(counts) == result.weights[1] / total
    # A different fingerprint means different work: every output fails.
    reference.fingerprint = dict(reference.fingerprint, **{"rowhammer.flips": -1})
    assert common.tally(check_pass(result, reference))["mismatched"] == total


def test_recorded_digests_are_checked_per_workload_and_seed(tmp_path, monkeypatch):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(
        {"chaos_armed": {"3": {"fingerprint": "f" * 16, "outputs": "0" * 16}}}
    ))
    monkeypatch.setattr(run, "EXPECTED", expected)
    same = {"fingerprint": "f" * 16, "outputs": "0" * 16}
    assert run.expected_problems("chaos_armed", 3, same) == []
    assert run.expected_problems("chaos_armed", 4, {"fingerprint": "x", "outputs": "y"}) == []
    moved = run.expected_problems("chaos_armed", 3, dict(same, fingerprint="e" * 16))
    assert len(moved) == 1 and moved[0].startswith("fingerprint digest eeee")
    assert len(run.expected_problems("chaos_armed", 3, {"fingerprint": "", "outputs": ""})) == 2


def test_committed_digests_cover_every_workload_and_seed():
    from record_expected import SEEDS

    recorded = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(run.WORKLOAD_NAMES)
    for entries in recorded.values():
        assert sorted(entries, key=int) == [str(seed) for seed in SEEDS]
        for entry in entries.values():
            assert sorted(entry) == ["fingerprint", "outputs"]


def test_reproduced_program_failure_is_failed_but_not_wrong():
    failure = ("error", "KernelError")
    assert common.classify(failure, failure) == common.ERROR
    assert common.classify(failure, ("ok", "{}")) == common.MISMATCH
    counts = common.tally([(common.ERROR, 3), (common.OK, 5)])
    assert counts == {"attempted": 8, "failed": 3, "mismatched": 0}


# -- BENCHMARK.json agrees with what run.py prints --------------------------------
def test_benchmark_json_names_match_run_py():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in layers.PER_LAYER
    ]

"""Crash-safe campaign running: budgets, retries, checkpoint/resume.

The central claim under test: a campaign killed mid-run and resumed from
its checkpoint produces *exactly* the report an uninterrupted run would
have — same per-segment results, same retry accounting — because every
(segment, attempt) pair derives its seed statelessly from the campaign
seed.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.errors import ConfigurationError, PageTableError, TransientFaultError
from repro.faults.campaign import (
    CampaignBudget,
    CampaignRunner,
    qualified_name,
    read_checkpoint,
)
from repro.rng import derive_seed, make_rng
from repro.service import CampaignRequest, CampaignService

#: ``(index, seed)`` of every call to :func:`recording_segment`.
RECORDED = []


def flaky_segment(index, seed, campaign_seed, fail_attempts=()):
    """A deterministic segment body that fails its listed attempts.

    Segment 1 raises TransientFaultError when ``seed`` is the derived
    seed of an attempt in ``fail_attempts``; every segment returns a
    result derived only from its seed, so reruns and resumes reproduce
    it bit-for-bit.
    """
    if index == 1 and any(
        seed == derive_seed(campaign_seed, index, attempt) for attempt in fail_attempts
    ):
        raise TransientFaultError("injected turbulence", fault="test")
    rng = make_rng(seed)
    return {
        "index": index,
        "draw": int(rng.integers(0, 1_000_000)),
        "faults": {"test": 1} if index == 1 else {},
    }


def flaky_runner(num_segments, seed, fail_attempts=(), **options):
    """A runner over :func:`flaky_segment` for this campaign seed."""
    return CampaignRunner(
        "t",
        flaky_segment,
        num_segments=num_segments,
        seed=seed,
        kwargs={"campaign_seed": seed, "fail_attempts": list(fail_attempts)},
        **options,
    )


def recording_segment(index, seed, campaign_seed):
    """Records its seed; attempt 0 of every segment fails transiently."""
    RECORDED.append((index, seed))
    if seed == derive_seed(campaign_seed, index, 0):
        raise TransientFaultError("again", fault="test")
    return {}


def broken_segment(index, seed):
    """Segment 1 raises a non-retryable ReproError; the others succeed."""
    if index == 1:
        raise PageTableError(f"segment {index} corrupted its page table")
    return {"index": index, "faults": {}}


class TestBudget:
    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignBudget(max_segments=0)
        with pytest.raises(ConfigurationError):
            CampaignBudget(max_wall_s=0)

    def test_segment_budget_interrupts(self, tmp_path):
        runner = flaky_runner(
            5,
            3,
            budget=CampaignBudget(max_segments=2),
            checkpoint_path=tmp_path / "ck.json",
        )
        report = runner.run()
        assert report.interrupted
        assert len(report.completed) == 2
        assert report.remaining == 3

    def test_wall_clock_budget_interrupts(self):
        clock = iter([0.0, 0.0, 100.0, 200.0, 300.0])
        runner = flaky_runner(
            5,
            3,
            budget=CampaignBudget(max_wall_s=50.0),
            time_source=lambda: next(clock),
        )
        report = runner.run()
        assert report.interrupted
        assert len(report.completed) == 1


class TestRetries:
    def test_transient_fault_retried_with_backoff(self):
        runner = flaky_runner(
            3, 3, fail_attempts=(0, 1), max_retries=3, backoff_base_s=0.5
        )
        report = runner.run()
        assert not report.interrupted and not report.failed
        assert [report.completed[i]["attempts"] for i in range(3)] == [1, 3, 1]
        assert report.retries == 2
        # Backoff is accounted from the attempt counts (0.5 + 1.0), never slept.
        assert report.backoff_wait_s == 1.5
        counter = obs.get_registry().counter("campaign.retries")
        assert counter.value(campaign="t") == 2

    def test_retries_exhausted_marks_segment_failed(self):
        runner = flaky_runner(3, 3, fail_attempts=(0, 1, 2), max_retries=2)
        report = runner.run()
        assert report.failed[1]["error_type"] == "TransientFaultError"
        assert report.failed[1]["attempts"] == 3
        assert len(report.completed) == 2
        assert not report.interrupted  # terminal failure, not a budget stop
        assert report.results()[1] == {"error": "TransientFaultError"}

    def test_retry_attempt_gets_fresh_derived_seed(self):
        RECORDED.clear()
        CampaignRunner(
            "t",
            recording_segment,
            num_segments=1,
            seed=9,
            kwargs={"campaign_seed": 9},
            max_retries=1,
        ).run()
        assert RECORDED == [(0, derive_seed(9, 0, 0)), (0, derive_seed(9, 0, 1))]
        assert RECORDED[0][1] != RECORDED[1][1]

    def test_non_retryable_error_raises_inline_but_fails_segment_in_service(
        self, tmp_path
    ):
        """The runner re-raises a non-retryable error after checkpointing
        the segments before it; the service records the same error as a
        failed segment and keeps serving."""
        path = tmp_path / "ck.json"
        runner = CampaignRunner(
            "t", broken_segment, num_segments=3, seed=4, checkpoint_path=path
        )
        with pytest.raises(PageTableError):
            runner.run()
        assert set(read_checkpoint(path)["completed"]) == {"0"}

        async def submit():
            service = CampaignService(workers=1)
            service.start()
            request = CampaignRequest(
                name="t",
                target=qualified_name(broken_segment),
                num_segments=3,
                seed=4,
            )
            report = await service.submit(request)
            await service.drain()
            return report

        report = asyncio.run(submit())
        assert sorted(report.completed) == [0, 2]
        assert report.failed[1]["error_type"] == "PageTableError"


class TestCheckpointResume:
    def test_killed_and_resumed_equals_uninterrupted(self, tmp_path):
        kwargs = dict(fail_attempts=(0,), max_retries=2)
        baseline = flaky_runner(4, 11, **kwargs).run()

        path = tmp_path / "ck.json"
        partial = flaky_runner(
            4,
            11,
            budget=CampaignBudget(max_segments=2),  # the "kill"
            checkpoint_path=path,
            **kwargs,
        ).run()
        assert partial.interrupted and len(partial.completed) == 2

        resumed = flaky_runner(4, 11, checkpoint_path=path, **kwargs).run(
            resume=True
        )
        assert not resumed.interrupted
        assert resumed.to_dict() == baseline.to_dict()

    def test_checkpoint_written_atomically_per_segment(self, tmp_path):
        path = tmp_path / "ck.json"
        flaky_runner(2, 5, checkpoint_path=path).run()
        data = read_checkpoint(path)
        assert set(data["completed"]) == {"0", "1"}
        assert not path.with_name(path.name + ".tmp").exists()

    def test_resume_without_checkpoint_path_rejected(self):
        runner = flaky_runner(1, 0)
        with pytest.raises(ConfigurationError):
            runner.run(resume=True)

    def test_resume_identity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        flaky_runner(2, 5, checkpoint_path=path).run()
        other = flaky_runner(2, 6, checkpoint_path=path)
        with pytest.raises(ConfigurationError):
            other.run(resume=True)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            read_checkpoint(path)
        path.write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            read_checkpoint(path)
        path.write_text(json.dumps({"version": 1}), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            read_checkpoint(path)

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_checkpoint(tmp_path / "absent.json")


class TestReport:
    def test_fault_totals_sum_completed_segments(self):
        report = flaky_runner(3, 2).run()
        assert report.fault_totals() == {"test": 1}

    def test_to_dict_is_json_serialisable_and_stable(self):
        first = flaky_runner(3, 2).run()
        second = flaky_runner(3, 2).run()
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

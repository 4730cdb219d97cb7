"""Crash-safe campaign running: the one segment path, budgets, checkpoints.

Long campaigns (Algorithm 1 sweeps, probabilistic sprays, Monte Carlo
batches) are split into numbered *segments*. Every executor — the
:class:`CampaignRunner` (inline or over a process pool), its thin
wrappers in :mod:`repro.perf.parallel`, and the campaign service's
supervised workers — runs segments through the same functions here:

- :func:`segment_payloads` turns a campaign into one plain JSON-able
  payload dict per segment, so a segment can cross a process boundary,
  be re-enqueued after a worker death, or be content-addressed by the
  segment memo;
- :func:`run_segment_task` runs one payload: the memo is consulted
  (:func:`consult_memo`) and, on a miss, :func:`segment_outcome` retries
  the segment target under an isolated obs registry and returns an
  ``{index, ok, record, obs_state}`` outcome;
- :func:`merge_outcomes` folds outcomes into a :class:`CampaignReport`
  in segment-index order, merging each outcome's obs delta back.

The determinism contract that makes them interchangeable: segment
``index`` attempt ``attempt`` always runs with seed
``derive_seed(campaign_seed, index, attempt)`` — independent of
execution order, worker or history — so a killed-and-resumed, pooled,
memoized or service-run campaign merges into *exactly* the result an
uninterrupted inline run produces (asserted by the resume, parallel,
memo and service tests). Reports derive retry/backoff accounting from
the recorded per-segment attempt counts; backoff is accounted, never
slept.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro import obs
from repro.errors import ConfigurationError, TransientFaultError, WorkerCrashError
from repro.rng import DEFAULT_SEED, derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.perf.memo.key import SegmentKey
    from repro.perf.memo.runtime import SegmentMemo

CHECKPOINT_VERSION = 1

#: Exception types retried with a fresh derived seed unless a campaign
#: names its own.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (TransientFaultError,)

#: Executor-level re-enqueues allowed per segment after worker deaths
#: before the segment is recorded as terminally failed.
DEFAULT_MAX_REQUEUES = 2


@dataclass(frozen=True)
class CampaignBudget:
    """Stop-early limits: segments per run() call and/or wall-clock."""

    max_segments: Optional[int] = None
    max_wall_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_segments is not None and self.max_segments < 1:
            raise ConfigurationError(
                f"max_segments {self.max_segments} must be >= 1"
            )
        if self.max_wall_s is not None and self.max_wall_s <= 0:
            raise ConfigurationError(f"max_wall_s {self.max_wall_s} must be > 0")


def _attempt_backoff_s(attempts: int, base_s: float) -> float:
    """Total backoff accounted before a segment that took ``attempts`` tries."""
    return sum(base_s * (2**retry) for retry in range(attempts - 1))


@dataclass
class CampaignReport:
    """Partial or complete campaign results plus retry accounting."""

    name: str
    seed: int
    num_segments: int
    config: Dict[str, Any]
    backoff_base_s: float
    completed: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def remaining(self) -> int:
        """Segments neither completed nor terminally failed."""
        return self.num_segments - len(self.completed) - len(self.failed)

    @property
    def interrupted(self) -> bool:
        """True when a budget (or a partial resume) left segments pending."""
        return self.remaining > 0

    @property
    def retries(self) -> int:
        """Total retry attempts across all recorded segments."""
        records = list(self.completed.values()) + list(self.failed.values())
        return sum(record["attempts"] - 1 for record in records)

    @property
    def backoff_wait_s(self) -> float:
        """Total exponential-backoff wait implied by the attempt counts."""
        records = list(self.completed.values()) + list(self.failed.values())
        return sum(
            _attempt_backoff_s(record["attempts"], self.backoff_base_s)
            for record in records
        )

    def results(self) -> list:
        """Per-index merged results: result dict, error record, or None."""
        out = []
        for index in range(self.num_segments):
            if index in self.completed:
                out.append(self.completed[index]["result"])
            elif index in self.failed:
                out.append({"error": self.failed[index]["error_type"]})
            else:
                out.append(None)
        return out

    def fault_totals(self) -> Dict[str, int]:
        """Injected-fault firings summed over completed segments."""
        totals: Dict[str, int] = {}
        for index in sorted(self.completed):
            faults = self.completed[index]["result"].get("faults", {})
            for name, count in faults.items():
                totals[name] = totals.get(name, 0) + int(count)
        return dict(sorted(totals.items()))

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready view (no wall-clock content)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "num_segments": self.num_segments,
            "config": self.config,
            "interrupted": self.interrupted,
            "segments": {
                "completed": len(self.completed),
                "failed": len(self.failed),
                "remaining": self.remaining,
            },
            "retries": self.retries,
            "backoff_wait_s": self.backoff_wait_s,
            "fault_totals": self.fault_totals(),
            "results": self.results(),
        }


def merge_outcomes(
    report: CampaignReport, outcomes: Iterable[Dict[str, Any]]
) -> CampaignReport:
    """Fold segment outcomes into ``report`` in segment-index order.

    Each outcome's exported obs delta merges into the current registry
    (counters add, gauges overwrite, traces re-emit) and its record lands
    in ``completed`` or ``failed``, so the report, the registry and any
    checkpoint written from the report are the same whichever executor
    produced the outcomes.
    """
    registry = obs.get_registry()
    for outcome in sorted(outcomes, key=lambda outcome: outcome["index"]):
        registry.merge_state(outcome["obs_state"])
        if outcome["ok"]:
            report.completed[outcome["index"]] = outcome["record"]
            obs.inc("campaign.segments", campaign=report.name, status="completed")
        else:
            report.failed[outcome["index"]] = outcome["record"]
            obs.inc("campaign.segments", campaign=report.name, status="failed")
    return report


# -- segment payloads and outcomes -------------------------------------------
def qualified_name(obj: Any) -> str:
    """``"module:qualname"`` reference for a picklable top-level object."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise ConfigurationError(
            f"{obj!r} is not an importable top-level callable; campaign "
            "segments need module-level targets"
        )
    return f"{module}:{qualname}"


def resolve_qualified(reference: str) -> Any:
    """Import the object a :func:`qualified_name` reference points at."""
    module_name, _, qualname = reference.partition(":")
    if not module_name or not qualname:
        raise ConfigurationError(f"malformed qualified reference {reference!r}")
    try:
        target: Any = import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import {module_name!r} for {reference!r}: {exc}"
        ) from None
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise ConfigurationError(
                f"{module_name!r} has no attribute path {qualname!r}"
            ) from None
    return target


def segment_payloads(
    *,
    name: str,
    target: str,
    seed: int,
    kwargs: Dict[str, Any],
    max_retries: int,
    retryable: Sequence[Type[BaseException]],
    indices: Iterable[int],
) -> List[Dict[str, Any]]:
    """One JSON-able payload per segment index: the unit every executor runs.

    ``target`` is a ``"module:qualname"`` reference; the retryable types
    travel as references too. Each payload gets its own ``kwargs`` copy.
    """
    retryable_refs = [qualified_name(exc_type) for exc_type in retryable]
    return [
        {
            "target": target,
            "retryable": retryable_refs,
            "index": index,
            "name": name,
            "seed": seed,
            "max_retries": max_retries,
            "kwargs": dict(kwargs),
        }
        for index in indices
    ]


def segment_outcome(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one segment, retrying retryable errors, under an isolated registry.

    Attempt ``n`` runs ``target(index, derive_seed(seed, index, n),
    **kwargs)``. A retryable error counts ``campaign.retries`` and tries
    again until ``max_retries`` retries are spent, then records the
    segment failed; any other exception propagates. Retries and the
    segment's own metrics land in a fresh registry whose exported state
    ships in the outcome, so merging it back — now, from a worker, or
    from a memo hit — reproduces a direct run's registry.
    """
    target = resolve_qualified(payload["target"])
    retryable: Tuple[Type[BaseException], ...] = tuple(
        resolve_qualified(reference) for reference in payload["retryable"]
    )
    index = payload["index"]
    previous = obs.get_registry()
    registry = obs.set_registry(obs.Registry())
    try:
        attempt = 0
        while True:
            segment_seed = derive_seed(payload["seed"], index, attempt)
            try:
                result = target(index, segment_seed, **payload["kwargs"])
            except retryable as exc:
                attempt += 1
                if attempt > payload["max_retries"]:
                    record: Dict[str, Any] = {
                        "attempts": attempt,
                        "error": str(exc),
                        "error_type": type(exc).__name__,
                    }
                    ok = False
                    break
                obs.inc("campaign.retries", campaign=payload["name"])
                continue
            record = {"attempts": attempt + 1, "result": result}
            ok = True
            break
    finally:
        obs.set_registry(previous)
    return {
        "index": index,
        "ok": ok,
        "record": record,
        "obs_state": registry.export_state(),
    }


def failed_outcome(index: int, error: BaseException) -> Dict[str, Any]:
    """Terminal failed-segment outcome for an error outside the retry loop.

    Used for segments lost to worker death and, in the campaign service,
    for targets that raised. Shaped like a :func:`segment_outcome`
    failure so merging, checkpoints and reports need no special case;
    the obs delta is empty because the segment never finished anywhere.
    """
    return {
        "index": index,
        "ok": False,
        "record": {
            "attempts": 1,
            "error": str(error),
            "error_type": type(error).__name__,
        },
        "obs_state": obs.Registry().export_state(),
    }


def consult_memo(
    memo: "SegmentMemo", payload: Dict[str, Any]
) -> Tuple[Optional["SegmentKey"], Optional[Dict[str, Any]]]:
    """Key one payload and look it up: ``(key, cached outcome or None)``.

    A ``None`` key is a counted bypass (the ambient fault plane makes the
    segment uncacheable). A key without an outcome is a miss: the caller
    computes the segment and publishes it with ``memo.store(key, ...)``.
    Sampled verification recomputes through :func:`segment_outcome`.
    """
    key = memo.payload_key(payload)
    if key is None:
        memo.note_bypass(payload["name"])
        return None, None
    cached = memo.lookup(
        key, campaign=payload["name"], recompute=partial(segment_outcome, payload)
    )
    return key, cached


def run_segment_task(
    payload: Dict[str, Any], memo: Optional["SegmentMemo"] = None
) -> Dict[str, Any]:
    """Run one segment payload, through ``memo`` when one is given.

    A ``payload["memo"]`` dict (``{"dir", "verify", "fault_digest"}``,
    attached by the pooled runner when its memo has a disk tier) makes
    a worker process rebuild that memo around the shared directory, so
    a segment re-enqueued after a worker death finds the bytes its first
    incarnation published. The rebuilt memo pins the parent's
    fault-schedule decision instead of probing the worker's own plane;
    its ``memo.*`` metrics land in the worker's default registry, never
    in the isolated one whose state is cached, and are discarded there.
    """
    memo_info = payload.get("memo")
    if memo_info:
        from repro.perf.memo.runtime import build_memo

        memo = build_memo(
            memo_info["dir"],
            verify_fraction=memo_info["verify"],
            fault_digest=memo_info["fault_digest"],
        )
    if memo is None:
        return segment_outcome(payload)
    key, outcome = consult_memo(memo, payload)
    if outcome is None:
        outcome = segment_outcome(payload)
        if key is not None:
            outcome = memo.store(key, outcome, campaign=payload["name"])
    return outcome


def _run_payloads_pooled(
    payloads: List[Dict[str, Any]],
    worker_count: int,
    *,
    campaign: str,
    max_requeues: int = DEFAULT_MAX_REQUEUES,
) -> Dict[int, Dict[str, Any]]:
    """Fan payloads across a process pool, surviving worker death.

    A worker process dying (OOM kill, segfault, ``os._exit`` in a
    target) surfaces as :class:`BrokenProcessPool` on every in-flight
    future. Instead of propagating that raw executor exception, this
    classifies the death into the retryable taxonomy: the pool is
    rebuilt (counted as ``service.worker_restarts``), segments without
    an outcome are re-enqueued — the stateless seed contract guarantees
    a re-run from attempt 0 is byte-identical — and a segment that
    exhausts its requeue budget is recorded as a failed segment with
    ``error_type: "WorkerCrashError"`` rather than crashing the run.
    """
    outcomes: Dict[int, Dict[str, Any]] = {}
    requeues: Dict[int, int] = {}
    pending = list(payloads)
    while pending:
        pool_size = min(worker_count, len(pending))
        broken = False
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = [pool.submit(run_segment_task, payload) for payload in pending]
            try:
                for future in as_completed(futures):
                    outcome = future.result()
                    outcomes[outcome["index"]] = outcome
            except BrokenProcessPool:
                broken = True
        if not broken:
            break
        obs.inc("service.worker_restarts", campaign=campaign, scope="pool")
        lost = [p for p in pending if p["index"] not in outcomes]
        pending = []
        for payload in lost:
            index = payload["index"]
            requeues[index] = requeues.get(index, 0) + 1
            if requeues[index] > max_requeues:
                outcomes[index] = failed_outcome(
                    index,
                    WorkerCrashError(
                        f"worker process died running segment {index} "
                        f"({max_requeues} re-enqueues exhausted)"
                    ),
                )
            else:
                pending.append(payload)
    return outcomes


# -- checkpoints -------------------------------------------------------------
def read_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and structurally validate a checkpoint file.

    Raises :class:`ConfigurationError` on a missing, unparseable or
    wrong-version file.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read checkpoint {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"checkpoint {path} is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"checkpoint {path} has unsupported version "
            f"{data.get('version') if isinstance(data, dict) else '?'}"
        )
    for key in ("name", "seed", "num_segments", "config", "completed", "failed"):
        if key not in data:
            raise ConfigurationError(f"checkpoint {path} is missing {key!r}")
    return data


def write_checkpoint(path: Union[str, Path], report: CampaignReport) -> None:
    """Atomically persist a report's recorded state (tmp file + ``os.replace``)."""
    path = Path(path)
    data = {
        "version": CHECKPOINT_VERSION,
        "name": report.name,
        "seed": report.seed,
        "num_segments": report.num_segments,
        "config": report.config,
        "completed": {str(k): v for k, v in sorted(report.completed.items())},
        "failed": {str(k): v for k, v in sorted(report.failed.items())},
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


class CampaignRunner:
    """Runs a campaign's segments crash-safely; see the module docstring.

    Parameters
    ----------
    name, num_segments, seed, config:
        Campaign identity; all four are recorded in checkpoints and
        validated on resume (a mismatch raises ConfigurationError).
    target, kwargs:
        Segment body ``target(index, seed, **kwargs) -> result dict``:
        an importable top-level callable or its ``"module:qualname"``
        string. The seed is already derived per (campaign seed, index,
        attempt); the JSON-able ``kwargs`` ride in every segment payload.
    workers:
        ``1`` runs segments inline and rewrites the checkpoint after
        every segment. More fan the pending segments out across a
        process pool that re-enqueues segments lost to worker deaths,
        and write the checkpoint once after the merge. Wall-clock
        budgets need ``workers=1``: they depend on execution order.
    budget:
        Optional per-``run()`` limits; exceeding one stops cleanly with
        ``interrupted=True`` and the checkpoint holding completed work.
    checkpoint_path:
        When set, the campaign state is rewritten atomically (see
        ``workers`` for when).
    max_retries, backoff_base_s, retryable:
        A segment raising one of the ``retryable`` types (default: the
        injected :class:`TransientFaultError`) is re-run with a fresh
        derived seed up to ``max_retries`` times, then recorded in
        ``failed``; the exponential backoff is accounted in the report,
        never slept. Any other exception, non-retryable ``ReproError``
        subclasses included, propagates out of :meth:`run` (inline, the
        checkpoint then holds the segments before it). The campaign
        service records such an error as a failed segment instead.
    time_source:
        Clock for wall-clock budgets: called once at the start of
        :meth:`run` and, when ``max_wall_s`` is set, once before each
        segment.
    memo:
        Optional :class:`~repro.perf.memo.runtime.SegmentMemo`. Each
        segment is first looked up by its payload's content address
        (target, name, retry taxonomy, kwargs, derived seed, ambient
        fault schedule, source digest); a hit merges the cached outcome
        byte-identically to recomputation, a miss computes and publishes
        it. Inline and pooled runs of one campaign share entries.
    """

    def __init__(
        self,
        name: str,
        target: Union[str, Callable[..., Dict[str, Any]]],
        num_segments: int,
        seed: Optional[int] = None,
        kwargs: Optional[Dict[str, Any]] = None,
        config: Optional[Dict[str, Any]] = None,
        budget: Optional[CampaignBudget] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        max_retries: int = 3,
        backoff_base_s: float = 0.5,
        retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE,
        time_source: Optional[Callable[[], float]] = None,
        memo: Optional["SegmentMemo"] = None,
        workers: int = 1,
    ):
        if num_segments < 1:
            raise ConfigurationError(f"num_segments {num_segments} must be >= 1")
        if max_retries < 0:
            raise ConfigurationError(f"max_retries {max_retries} must be >= 0")
        if backoff_base_s < 0:
            raise ConfigurationError(f"backoff_base_s {backoff_base_s} must be >= 0")
        if workers > 1 and budget is not None and budget.max_wall_s is not None:
            raise ConfigurationError(
                "wall-clock budgets need workers=1: pooled segments finish "
                "out of order"
            )
        self._name = name
        self._target = target if isinstance(target, str) else qualified_name(target)
        resolve_qualified(self._target)  # fail fast, before any segment runs
        self._num_segments = num_segments
        self._seed = DEFAULT_SEED if seed is None else int(seed)
        self._kwargs: Dict[str, Any] = dict(kwargs or {})
        self._config: Dict[str, Any] = dict(config or {})
        self._budget = budget
        self._checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self._max_retries = max_retries
        self._backoff_base_s = backoff_base_s
        self._retryable = retryable
        self._time_source = time_source or time.monotonic
        self._memo = memo
        self._workers = workers

    @property
    def checkpoint_path(self) -> Optional[Path]:
        """Where state is persisted (None = in-memory only)."""
        return self._checkpoint_path

    # -- running -----------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignReport:
        """Execute pending segments; returns the (possibly partial) report."""
        report = CampaignReport(
            name=self._name,
            seed=self._seed,
            num_segments=self._num_segments,
            config=dict(self._config),
            backoff_base_s=self._backoff_base_s,
        )
        if resume:
            self._load_state(report)
        started_at = self._time_source()
        pending = [
            index
            for index in range(self._num_segments)
            if index not in report.completed and index not in report.failed
        ]
        budget = self._budget
        if budget is not None and budget.max_segments is not None:
            pending = pending[: budget.max_segments]
        payloads = segment_payloads(
            name=self._name,
            target=self._target,
            seed=self._seed,
            kwargs=self._kwargs,
            max_retries=self._max_retries,
            retryable=self._retryable,
            indices=pending,
        )
        if self._workers > 1:
            merge_outcomes(report, self._run_pooled(payloads))
            self._write_checkpoint(report)
            return report
        for payload in payloads:
            if (
                budget is not None
                and budget.max_wall_s is not None
                and self._time_source() - started_at >= budget.max_wall_s
            ):
                break
            merge_outcomes(report, [run_segment_task(payload, self._memo)])
            self._write_checkpoint(report)
        return report

    def _run_pooled(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Consult the memo here, fan the misses out, publish what they computed.

        With a disk tier, keyed misses also carry the memo to the workers
        (:func:`run_segment_task`), so a re-enqueued segment hits what a
        dead worker already published; publishing twice is a no-op.
        """
        memo = self._memo
        outcomes: List[Dict[str, Any]] = []
        keys: Dict[int, "SegmentKey"] = {}
        misses: List[Dict[str, Any]] = []
        for payload in payloads:
            if memo is not None:
                key, cached = consult_memo(memo, payload)
                if cached is not None:
                    outcomes.append(cached)
                    continue
                if key is not None:
                    keys[payload["index"]] = key
                    if memo.disk_directory is not None:
                        payload["memo"] = {
                            "dir": memo.disk_directory,
                            "verify": memo.verify_fraction,
                            "fault_digest": key.fault_digest,
                        }
            misses.append(payload)
        computed = _run_payloads_pooled(misses, self._workers, campaign=self._name)
        for index, outcome in sorted(computed.items()):
            if memo is not None and index in keys:
                outcome = memo.store(keys[index], outcome, campaign=self._name)
            outcomes.append(outcome)
        return outcomes

    # -- checkpointing -----------------------------------------------------
    def _write_checkpoint(self, report: CampaignReport) -> None:
        if self._checkpoint_path is not None:
            write_checkpoint(self._checkpoint_path, report)

    def _load_state(self, report: CampaignReport) -> None:
        """Fill ``report`` from the checkpoint after validating its identity."""
        path = self._checkpoint_path
        if path is None:
            raise ConfigurationError("resume requested without a checkpoint_path")
        data = read_checkpoint(path)
        for key in ("name", "seed", "num_segments", "config"):
            if data[key] != getattr(report, key):
                raise ConfigurationError(
                    f"checkpoint {path} does not match this campaign: "
                    f"{key} is {data[key]!r}, expected {getattr(report, key)!r}"
                )
        report.completed = {int(k): v for k, v in data["completed"].items()}
        report.failed = {int(k): v for k, v in data["failed"].items()}

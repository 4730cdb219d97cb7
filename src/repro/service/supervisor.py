"""Supervised worker pool: persistent workers, crash/hang recovery.

The pool owns one shared :class:`asyncio.Queue` of ``(job, payload)``
pairs; ``size`` persistent worker coroutines drain it, so segments from
concurrent campaigns interleave on the same workers instead of each
request spinning up private machinery. Every worker runs under a
supervisor loop: a :class:`~repro.errors.WorkerCrashError` (injected
via the ``worker-crash``/``worker-hang`` fault kinds, or a real process
death in ``process`` mode) kills the worker coroutine, the supervisor
restarts it with exponential backoff — *accounted, never slept*, the
repo-wide backoff convention — and the lost segment is re-enqueued
exactly once per death, bounded by ``max_requeues``.

Why recovery preserves byte-identity: injected crashes fire at dispatch
time, before the segment executes, so a lost segment contributed no obs
delta and no partial record; the re-run starts from attempt 0 with the
same ``derive_seed(campaign_seed, index, attempt)`` stream and merges
into the identical outcome an uninterrupted run records.

Execution modes:

- ``inline`` (default) — segments run synchronously in the event loop
  via :func:`repro.faults.campaign.run_segment_task`. Fully deterministic;
  crashes and hangs exist only as injected faults. This is what tests
  and the CI smoke job drive.
- ``process`` — segments run in a :class:`ProcessPoolExecutor`;
  :class:`BrokenProcessPool` is classified as a crash (pool rebuilt),
  and a per-segment timeout missing its deadline is classified as a
  hang (:class:`~repro.errors.WorkerHangError`).

``asyncio.create_task`` is banned in this package by lint rule
``RL011`` except through :func:`spawn_supervised`, which attaches a
done-callback so a task dying with an unconsumed exception is recorded
instead of silently discarded.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Callable, Coroutine, Dict, List, Optional, Tuple

from repro import faults, obs
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ServiceError,
    WorkerCrashError,
    WorkerHangError,
)
from repro.faults.campaign import consult_memo, failed_outcome, run_segment_task
from repro.service.admission import AdmissionTicket
from repro.service.protocol import CampaignRequest
from repro.service.snapshot_library import SnapshotLibrary

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.perf.memo.runtime import SegmentMemo

__all__ = ["SegmentJob", "WorkerPool", "spawn_supervised"]

#: Exceptions that escaped supervised tasks (inspected by tests/shutdown).
_unconsumed_failures: List[BaseException] = []


def spawn_supervised(
    coro: Coroutine[Any, Any, Any], *, name: str
) -> "asyncio.Task[Any]":
    """The one sanctioned way to start a task in ``repro.service``.

    Wraps :func:`asyncio.create_task` with a done-callback that records
    any exception the task died with, so nothing in the service can
    fail silently into a garbage-collected task object (lint ``RL011``
    forbids the bare call everywhere else in this package).
    """
    task = asyncio.create_task(coro, name=name)  # repro-lint: ignore[RL011]

    def _record(finished: "asyncio.Task[Any]") -> None:
        if finished.cancelled():
            return
        exc = finished.exception()
        if exc is not None:
            _unconsumed_failures.append(exc)

    task.add_done_callback(_record)
    return task


def supervised_failures() -> Tuple[BaseException, ...]:
    """Exceptions recorded by :func:`spawn_supervised` done-callbacks."""
    return tuple(_unconsumed_failures)


class SegmentJob:
    """One admitted campaign broken into queued segment payloads."""

    def __init__(
        self,
        request: CampaignRequest,
        payloads: List[Dict[str, Any]],
        ticket: Optional[AdmissionTicket] = None,
        snapshot_key: Optional[str] = None,
        progress_cb: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        self.request = request
        self.payloads = payloads
        self.ticket = ticket
        self.snapshot_key = snapshot_key
        self.progress_cb = progress_cb
        self.outcomes: Dict[int, Dict[str, Any]] = {}
        self.requeues: Dict[int, int] = {}
        self.started = 0
        self.error: Optional[Exception] = None
        self.done = asyncio.Event()

    @property
    def finished(self) -> bool:
        """True once the job has a final answer (report or typed error)."""
        return self.done.is_set()

    def record(self, outcome: Dict[str, Any]) -> None:
        """Accept one segment outcome; completes the job on the last one."""
        if self.finished:
            return
        self.outcomes[outcome["index"]] = outcome
        if self.progress_cb is not None:
            self.progress_cb(
                {
                    "event": "progress",
                    "name": self.request.name,
                    "completed": len(self.outcomes),
                    "total": len(self.payloads),
                }
            )
        if len(self.outcomes) >= len(self.payloads):
            self.done.set()

    def fail(self, error: Exception) -> None:
        """Terminate the job with a typed error; queued payloads skip."""
        if self.finished:
            return
        self.error = error
        self.done.set()

    def try_shed(self) -> bool:
        """Evict the job if no segment has started; the shed contract."""
        if self.started > 0 or self.outcomes:
            return False
        self.fail(
            AdmissionError(
                f"campaign {self.request.name!r} shed for a higher-priority "
                "arrival while queued",
                reason="shed",
            )
        )
        return True


class WorkerPool:
    """Supervised persistent workers over a shared segment queue."""

    def __init__(
        self,
        size: int = 2,
        *,
        mode: str = "inline",
        max_requeues: int = 2,
        max_restarts_per_worker: int = 8,
        backoff_base_s: float = 0.5,
        segment_timeout_s: Optional[float] = None,
        time_source: Callable[[], float] = time.monotonic,
        library: Optional[SnapshotLibrary] = None,
        memo: Optional["SegmentMemo"] = None,
    ):
        if size < 1:
            raise ConfigurationError(f"pool size {size} must be >= 1")
        if mode not in ("inline", "process"):
            raise ConfigurationError(f"unknown pool mode {mode!r}")
        if max_requeues < 0:
            raise ConfigurationError(f"max_requeues {max_requeues} must be >= 0")
        self.size = size
        self.mode = mode
        self.max_requeues = max_requeues
        self.max_restarts_per_worker = max_restarts_per_worker
        self.backoff_base_s = backoff_base_s
        self.segment_timeout_s = segment_timeout_s
        self._clock = time_source
        self.library = library
        #: Shared cross-tenant segment-result cache. Consulted only
        #: after a job's shed window has closed (``job.started`` is
        #: bumped first) and after the fault plane saw the dispatch, so
        #: shed jobs never touch the cache and the injected crash
        #: schedule is byte-identical with and without memoization.
        self.memo = memo
        self._queue: "asyncio.Queue[Tuple[SegmentJob, Dict[str, Any]]]" = (
            asyncio.Queue()
        )
        self._supervisors: List["asyncio.Task[Any]"] = []
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        #: Worker restarts performed by the supervisors (all causes).
        self.restarts = 0
        #: Exponential backoff accounted (never slept) across restarts.
        self.backoff_accounted_s = 0.0
        #: Last dispatch heartbeat per worker id (time-source domain).
        self.heartbeats: Dict[int, float] = {}

    # -- lifecycle ---------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether supervisor tasks are running."""
        return bool(self._supervisors)

    @property
    def queued(self) -> int:
        """Segments waiting for a worker right now."""
        return self._queue.qsize()

    def start(self) -> None:
        """Launch the supervised workers (idempotent)."""
        if self._supervisors or self._closed:
            return
        for worker_id in range(self.size):
            self._supervisors.append(
                spawn_supervised(
                    self._supervise(worker_id), name=f"service-worker-{worker_id}"
                )
            )

    def submit_job(self, job: SegmentJob) -> None:
        """Enqueue every segment of ``job`` onto the shared queue."""
        if self._closed:
            raise ServiceError("worker pool is closed")
        for payload in job.payloads:
            self._queue.put_nowait((job, payload))

    async def drain(self) -> None:
        """Wait for the queue to empty, then stop workers cleanly."""
        await self._queue.join()
        await self.close()

    async def close(self) -> None:
        """Cancel workers and release the executor (idempotent)."""
        self._closed = True
        for task in self._supervisors:
            task.cancel()
        for task in self._supervisors:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._supervisors = []
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- supervision -------------------------------------------------------
    async def _supervise(self, worker_id: int) -> None:
        """Restart ``_worker_loop`` with accounted exponential backoff."""
        deaths = 0
        while not self._closed:
            try:
                await self._worker_loop(worker_id)
                return
            except WorkerCrashError as exc:
                deaths += 1
                self.restarts += 1
                obs.inc(
                    "service.worker_restarts",
                    worker=str(worker_id),
                    cause=type(exc).__name__,
                )
                if deaths > self.max_restarts_per_worker:
                    # A worker dying this often is a systemic fault; stop
                    # burning restarts and leave the remaining workers to
                    # drain the queue.
                    return
                self.backoff_accounted_s += self.backoff_base_s * 2 ** (deaths - 1)
                await asyncio.sleep(0)

    async def _worker_loop(self, worker_id: int) -> None:
        """One persistent worker: dequeue, dispatch, record — forever."""
        while True:
            job, payload = await self._queue.get()
            try:
                self.heartbeats[worker_id] = self._clock()
                await self._dispatch(worker_id, job, payload)
            finally:
                self._queue.task_done()

    async def _dispatch(
        self, worker_id: int, job: SegmentJob, payload: Dict[str, Any]
    ) -> None:
        """Run one segment; classify crashes/hangs; never leak raw errors."""
        if job.finished:
            return
        ticket = job.ticket
        if ticket is not None and ticket.deadline_passed(self._clock()):
            obs.inc("service.deadline_missed", tenant=job.request.tenant)
            job.fail(
                AdmissionError(
                    f"campaign {job.request.name!r} missed its deadline "
                    "before dispatch",
                    reason="deadline-missed",
                )
            )
            return
        if (
            self.library is not None
            and job.snapshot_key is not None
            and job.snapshot_key in self.library.quarantined
        ):
            # Circuit breaker opened mid-job: fall back to cold boot for
            # every remaining segment (warm==cold keeps the report equal).
            payload["kwargs"].pop("snapshot", None)
        job.started += 1
        try:
            faults.notify(
                "service.segment",
                index=payload["index"],
                campaign=job.request.name,
                worker=worker_id,
            )
            memo = self.memo
            key, outcome = (None, None) if memo is None else consult_memo(memo, payload)
            if outcome is None:
                outcome = await self._execute(payload)
                if memo is not None and key is not None:
                    outcome = memo.store(key, outcome, campaign=job.request.name)
        except WorkerCrashError as exc:  # WorkerHangError included
            self._requeue_lost(job, payload, exc)
            raise
        except Exception as exc:  # noqa: BLE001 — server must survive targets
            outcome = failed_outcome(payload["index"], exc)
        job.record(outcome)

    async def _execute(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Run the segment in the configured mode."""
        if self.mode == "inline":
            return run_segment_task(payload)
        loop = asyncio.get_running_loop()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.size)
        future = loop.run_in_executor(self._executor, run_segment_task, payload)
        try:
            if self.segment_timeout_s is None:
                return await future
            return await asyncio.wait_for(future, timeout=self.segment_timeout_s)
        except asyncio.TimeoutError:
            # The worker process stopped making progress: classify as a
            # hang and rebuild the executor so the stuck process dies.
            self._replace_executor()
            raise WorkerHangError(
                f"segment {payload['index']} exceeded its "
                f"{self.segment_timeout_s}s timeout"
            ) from None
        except BrokenProcessPool:
            self._replace_executor()
            raise WorkerCrashError(
                f"worker process died running segment {payload['index']}"
            ) from None

    def _replace_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = ProcessPoolExecutor(max_workers=self.size)

    def _requeue_lost(
        self, job: SegmentJob, payload: Dict[str, Any], exc: WorkerCrashError
    ) -> None:
        """Re-enqueue a segment lost to a worker death, exactly once.

        Each death buys exactly one re-enqueue of the lost segment;
        ``max_requeues`` deaths on the same index record a terminal
        failed segment instead of retrying forever. A death while a
        snapshot-backed job was in flight is a circuit-breaker strike
        against that snapshot.
        """
        if self.library is not None and job.snapshot_key is not None:
            self.library.strike(job.snapshot_key)
        if job.finished:
            return
        index = payload["index"]
        job.requeues[index] = job.requeues.get(index, 0) + 1
        if job.requeues[index] > self.max_requeues:
            job.record(
                failed_outcome(
                    index,
                    WorkerCrashError(
                        f"worker died running segment {index} "
                        f"({self.max_requeues} re-enqueues exhausted): {exc}"
                    ),
                )
            )
        else:
            self._queue.put_nowait((job, payload))

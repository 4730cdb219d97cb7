"""Process-parallel campaigns and the Monte-Carlo trial targets they run.

Campaign segments run under the stateless seed contract
``derive_seed(campaign_seed, index, attempt)`` (see
:mod:`repro.faults.campaign`), which makes them order-independent: a
segment's stream depends only on its identity, never on what ran before
it. :func:`run_campaign_parallel` is a
:class:`~repro.faults.campaign.CampaignRunner` run that exploits this to
fan segments out across a process pool while keeping the merged report,
the obs registry and any checkpoint **bit-identical** to an inline run:
workers run the same segment function under isolated registries, and
the parent merges their deltas in segment-index order.

This module also holds the importable trial targets
(:func:`probabilistic_trial`, :func:`montecarlo_trial`) that campaigns
and the campaign service ship to workers as ``"module:qualname"``
strings.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple, Type, Union

from repro.attacks.timing import AttackTimingModel
from repro.dram.rowhammer import FlipStatistics, RowHammerModel
from repro.errors import ConfigurationError
from repro.faults.campaign import (
    DEFAULT_RETRYABLE,
    CampaignBudget,
    CampaignReport,
    CampaignRunner,
    qualified_name,
    resolve_qualified,
    run_segment_task,
)
from repro.kernel.kernel import Kernel, KernelConfig
from repro.rng import derive_seed
from repro.units import GIB, MIB

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.perf.memo.runtime import SegmentMemo

__all__ = [
    "default_workers",
    "qualified_name",
    "resolve_qualified",
    "run_segment_task",
    "run_campaign_parallel",
    "capture_trial_snapshot",
    "probabilistic_trial",
    "montecarlo_trial",
    "run_probabilistic_trials",
]


def default_workers() -> int:
    """Sensible worker count: one core left for the parent process."""
    return max(1, (os.cpu_count() or 2) - 1)


def run_campaign_parallel(
    *,
    name: str,
    target: Union[str, Callable[..., Dict[str, Any]]],
    num_segments: int,
    seed: Optional[int] = None,
    kwargs: Optional[Dict[str, Any]] = None,
    config: Optional[Dict[str, Any]] = None,
    workers: Optional[int] = None,
    max_retries: int = 3,
    backoff_base_s: float = 0.5,
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE,
    checkpoint_path: Optional[Union[str, Path]] = None,
    budget: Optional[CampaignBudget] = None,
    resume: bool = False,
    memo: Optional["SegmentMemo"] = None,
) -> CampaignReport:
    """Run a campaign across ``workers`` processes (default: one per spare core).

    A :class:`~repro.faults.campaign.CampaignRunner` run; ``target`` is
    ``(index, seed, **kwargs) -> result dict``, an importable top-level
    callable or its ``"module:qualname"`` string. Wall-clock budgets are
    rejected whatever the worker count: they depend on execution order.
    """
    if budget is not None and budget.max_wall_s is not None:
        raise ConfigurationError(
            "wall-clock budgets require the serial CampaignRunner"
        )
    runner = CampaignRunner(
        name,
        target,
        num_segments,
        seed=seed,
        kwargs=kwargs,
        config=config,
        budget=budget,
        checkpoint_path=checkpoint_path,
        max_retries=max_retries,
        backoff_base_s=backoff_base_s,
        retryable=retryable,
        memo=memo,
        workers=default_workers() if workers is None else int(workers),
    )
    return runner.run(resume=resume)


def _trial_kernel(total_bytes: int, row_bytes: int) -> Kernel:
    """The stock kernel every probabilistic trial runs against."""
    return Kernel(
        KernelConfig(
            total_bytes=total_bytes,
            row_bytes=row_bytes,
            num_banks=2,
            cell_interleave_rows=32,
        )
    )


def capture_trial_snapshot(
    total_bytes: int = 16 * MIB,
    row_bytes: int = 16 * 1024,
    spray_mappings: int = 16,
):
    """Freeze a booted + sprayed trial world for warm-started trials.

    The spray (:meth:`ProbabilisticPteAttack.prepare`) consumes no hammer
    randomness, so it is identical for every trial seed — exactly the
    setup work :func:`probabilistic_trial` otherwise repeats per segment.
    Returns a :class:`~repro.perf.snapshot.SimulatorSnapshot` whose extra
    state carries the attacker pid and the sprayed/checked address lists.
    """
    from repro.attacks.probabilistic import ProbabilisticPteAttack
    from repro.perf.snapshot import SimulatorSnapshot

    def extra_fn(kernel: Kernel) -> Dict[str, Any]:
        # The hammer is unused during prepare(); trials build their own,
        # seeded per segment, against the materialized module.
        attack = ProbabilisticPteAttack(
            kernel=kernel,
            hammer=RowHammerModel(kernel.module, seed=0),
            timing=AttackTimingModel(),
        )
        attacker = kernel.create_process()
        attack.prepare(attacker, spray_mappings=spray_mappings)
        return {
            "pid": attacker.pid,
            "sprayed_vas": list(attack.sprayed_vas),
            "checked_vas": list(attack.checked_vas),
        }

    return SimulatorSnapshot.capture(
        lambda: _trial_kernel(total_bytes, row_bytes), extra_fn
    )


def probabilistic_trial(
    index: int,
    seed: int,
    total_bytes: int = 16 * MIB,
    row_bytes: int = 16 * 1024,
    spray_mappings: int = 16,
    max_rounds: int = 1,
    p_vulnerable: float = 3e-2,
    p_with_leak: float = 0.5,
    snapshot: Optional[str] = None,
) -> Dict[str, Any]:
    """One self-contained probabilistic-attack trial (picklable target).

    Builds a fresh stock kernel + hammer seeded from the segment seed and
    runs one Drammer-style spray; the result dict is JSON-checkpointable.
    ``index`` is accepted for the segment-fn signature but the trial's
    stream depends only on ``seed``.

    ``snapshot`` names a shared-memory world from
    :func:`capture_trial_snapshot` (captured with the same kwargs): the
    trial then attaches copy-on-write instead of replaying boot + spray,
    merging the captured obs state so reports, checkpoints, and metric
    totals stay byte-identical to a cold trial.
    """
    del index
    from repro.attacks.probabilistic import ProbabilisticPteAttack

    stats = FlipStatistics(p_vulnerable=p_vulnerable, p_with_leak=p_with_leak)
    hammer_seed = derive_seed(seed, "hammer")
    if snapshot is not None:
        from repro.perf.snapshot import SimulatorSnapshot

        kernel, extra = SimulatorSnapshot.attach_cached(snapshot).materialize()
        attacker = kernel.processes[extra["pid"]]
        attack = ProbabilisticPteAttack(
            kernel=kernel,
            hammer=RowHammerModel(kernel.module, stats=stats, seed=hammer_seed),
            timing=AttackTimingModel(),
            sprayed_vas=list(extra["sprayed_vas"]),
            checked_vas=list(extra["checked_vas"]),
        )
        result = attack.execute(attacker, max_rounds=max_rounds)
    else:
        kernel = _trial_kernel(total_bytes, row_bytes)
        hammer = RowHammerModel(
            kernel.module, stats=stats, seed=hammer_seed
        )
        attack = ProbabilisticPteAttack(
            kernel=kernel, hammer=hammer, timing=AttackTimingModel()
        )
        result = attack.run(
            kernel.create_process(),
            spray_mappings=spray_mappings,
            max_rounds=max_rounds,
        )
    return {
        "outcome": result.outcome.value,
        "hammer_rounds": result.hammer_rounds,
        "flips": result.flips_induced,
        "ptes_checked": result.ptes_checked,
        "faults": {},
    }


def montecarlo_trial(
    index: int,
    seed: int,
    trials: int = 1,
    total_bytes: int = 8 * GIB,
    ptp_bytes: int = 32 * MIB,
    p_vulnerable: float = 1e-4,
    p_up: float = 0.5,
) -> Dict[str, Any]:
    """One analytical Monte-Carlo segment (cheap importable service target).

    Wraps :func:`repro.analysis.montecarlo.simulate_exploitable_ptes` so
    the campaign service has a fast, pure-computation workload for
    overload and fault-injection scenarios: no kernel boot, no snapshot,
    milliseconds per segment. The stream depends only on ``seed``;
    ``index`` is accepted for the segment-fn signature.
    """
    del index
    from repro.analysis.montecarlo import simulate_exploitable_ptes

    result = simulate_exploitable_ptes(
        total_bytes=total_bytes,
        ptp_bytes=ptp_bytes,
        p_vulnerable=p_vulnerable,
        p_up=p_up,
        trials=trials,
        seed=seed,
    )
    return {
        "trials": result.trials,
        "num_ptes": result.num_ptes,
        "exploitable_count": result.exploitable_count,
        "expected_per_system": result.expected_per_system,
        "faults": {},
    }


def run_probabilistic_trials(
    trials: int,
    seed: Optional[int] = None,
    workers: int = 1,
    checkpoint_path: Optional[Union[str, Path]] = None,
    budget: Optional[CampaignBudget] = None,
    resume: bool = False,
    warm_start: bool = False,
    memo: Optional["SegmentMemo"] = None,
    **trial_kwargs: Any,
) -> CampaignReport:
    """Run ``trials`` independent probabilistic-attack trials.

    ``workers`` is the :class:`CampaignRunner`'s: ``1`` runs inline,
    more fan out across processes. Both produce identical reports,
    checkpoints and obs totals for the same seed.

    ``warm_start`` captures one boot + spray world up front
    (:func:`capture_trial_snapshot`) and has every trial attach to it
    copy-on-write instead of replaying setup. The snapshot name travels
    in the segment kwargs only — never in ``config`` — so checkpoint
    files stay byte-identical to cold runs.

    ``memo`` threads a :class:`~repro.perf.memo.runtime.SegmentMemo`
    through the run: a repeated identical run, inline or pooled, replays
    from the cache instead of recomputing, byte-identically.
    """
    config = {"trials": int(trials), **{k: trial_kwargs[k] for k in sorted(trial_kwargs)}}
    snapshot = None
    run_kwargs = dict(trial_kwargs)
    if warm_start:
        snapshot = capture_trial_snapshot(
            **{
                k: trial_kwargs[k]
                for k in ("total_bytes", "row_bytes", "spray_mappings")
                if k in trial_kwargs
            }
        )
        run_kwargs["snapshot"] = snapshot.name
    try:
        runner = CampaignRunner(
            "probabilistic-trials",
            "repro.perf.parallel:probabilistic_trial",
            trials,
            seed=seed,
            kwargs=run_kwargs,
            config=config,
            budget=budget,
            checkpoint_path=checkpoint_path,
            memo=memo,
            workers=workers,
        )
        return runner.run(resume=resume)
    finally:
        if snapshot is not None:
            snapshot.release()

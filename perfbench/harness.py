"""Replay a workload through a pooled ``QueryService`` and check every answer.

One *round* starts a fresh 2-worker service (timed as set-up), replays the
workload's operation list ``warm_passes`` times untimed and then
``timed_passes`` times with each blocking client call timed, and closes
the service.  Rounds repeat until the run's time budget is spent; every
round replays the same operations, so its answers and its shape counts
must repeat exactly.  One round's answers are checked against a
single-process ``PHomSolver`` reference after the timed region.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from repro.core.solver import PHomSolver
from repro.exceptions import ReproError
from repro.service import QueryService, ServiceRequest

from workloads import NUM_WORKERS, Workload

#: Largest allowed gap between a float answer and the exact reference.
FLOAT_TOLERANCE = 1e-9

#: ``evaluate_many`` calls whose every valuation is checked; of the other
#: calls, the first :data:`CHECKED_VALUATIONS` valuations are.  A looped
#: ``CompiledPlan.evaluate`` over every valuation would take longer than
#: the timed run itself.
FULL_CHECK_EVERY = 8
CHECKED_VALUATIONS = 4


@dataclass
class RoundResult:
    """What one replay of the operation list produced and measured."""

    setup_s: float
    #: Wall time of the timed passes.
    elapsed_s: float
    call_ms: List[float]
    update_ms: List[float]
    #: Every answer of every pass, warm passes included, in order.
    answers: List[object]
    #: Answers returned by the timed passes.
    timed_answers: int
    failed: int
    shape: Dict[str, int]
    stats: object = None
    persistence: Optional[dict] = None
    #: (kind, start, end) per operation, on the ``perf_counter`` clock.
    intervals: List[tuple] = field(default_factory=list)


def set_up(workload: Workload, state_dir: Optional[str], **tracing) -> tuple:
    """Start the pool and register every instance; returns (service, seconds).

    A durable workload's service opens its WAL in ``state_dir``, which
    must be fresh.  ``tracing`` passes the tracer settings of a traced
    round.
    """
    instances = workload.fresh_instances()
    if workload.durable:
        tracing["state_dir"] = state_dir
    start = time.perf_counter()
    service = QueryService(num_workers=NUM_WORKERS, **tracing)
    try:
        for instance_id in sorted(instances):
            service.register_instance(instances[instance_id], instance_id)
    except BaseException:
        service.close()
        raise
    return service, time.perf_counter() - start


def run_round(workload: Workload, state_dir: Optional[str], **tracing) -> RoundResult:
    """Set up a fresh service, replay the warm and timed passes, close it."""
    service, setup_s = set_up(workload, state_dir, **tracing)
    try:
        call_ms: List[float] = []
        update_ms: List[float] = []
        answers: List[object] = []
        intervals: List[tuple] = []
        failed = 0
        clock = time.perf_counter
        warm_ops = workload.ops * workload.warm_passes
        timed_ops = workload.ops * workload.timed_passes
        for op in warm_ops:
            failed += _replay(service, op, answers)
        warm_answers = len(answers)
        began = clock()
        for op in timed_ops:
            t0 = clock()
            failed += _replay(service, op, answers)
            t1 = clock()
            (update_ms if op[0] == "update" else call_ms).append((t1 - t0) * 1000.0)
            intervals.append((op[0], t0, t1))
        elapsed_s = clock() - began
        stats = service.stats()
        persistence = service.persistence_stats()
    finally:
        service.close()
    return RoundResult(
        setup_s=setup_s,
        elapsed_s=elapsed_s,
        call_ms=call_ms,
        update_ms=update_ms,
        answers=answers,
        timed_answers=len(answers) - warm_answers,
        failed=failed,
        shape=shape_counts(workload, stats, persistence),
        stats=stats,
        persistence=persistence,
        intervals=intervals,
    )


def _replay(service: QueryService, op: tuple, answers: List[object]) -> int:
    """Make one client call, append its answers; returns how many failed.

    A failed request, valuation or update counts once; its answers are
    ``None``.
    """
    kind = op[0]
    if kind == "submit":
        results = service.submit_many(
            [
                ServiceRequest(query=query, instance_id=iid, precision=precision)
                for iid, query, precision in op[1]
            ],
            on_error="return",
        )
        failed = 0
        for entry in results:
            if entry.error is not None:
                failed += 1
                answers.append(None)
            else:
                answers.append(entry.result.probability)
        return failed
    if kind == "evaluate":
        try:
            answers.extend(service.evaluate_many(op[1], op[2], op[3], precision="float"))
        except ReproError:
            answers.extend([None] * len(op[3]))
            return len(op[3])
        return 0
    try:
        service.update_probability(op[1], op[2], op[3])
    except ReproError:
        return 1
    return 0


def attempts_per_round(workload: Workload) -> int:
    """Requests, valuations and updates a round attempts, warm passes included."""
    counts = workload.counts()
    per_pass = counts["requests"] + counts["valuations"] + counts["updates"]
    return (workload.warm_passes + workload.timed_passes) * per_pass


def plan_cache_totals(stats) -> Dict[str, int]:
    """Plan-cache counters summed over the pool's workers."""
    totals = {"hits": 0, "misses": 0, "compiles": 0, "evictions": 0}
    for worker in stats.workers:
        for key in totals:
            totals[key] += int((worker.get("plan_cache") or {}).get(key, 0))
    return totals


def shape_counts(workload: Workload, stats, persistence) -> Dict[str, int]:
    """Counts that depend only on the workload, never on the speed.

    A drift between two runs of one seed means the workload (or the
    program's caching policy) changed, not its speed.
    """
    plans = plan_cache_totals(stats)
    return {
        "service.requests": stats.requests,
        "service.dispatched": stats.dispatched,
        "service.coalesced": stats.coalesced,
        "service.result_cache_hits": stats.result_cache_hits(),
        "service.steals": stats.steals,
        "plan.compiles": plans["compiles"],
        "plan.evictions": plans["evictions"],
        "plan.hits": plans["hits"],
        "persist.wal_appends": (persistence or {}).get("wal_appends", 0),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any worker it has reaped.

    Linux reports ``ru_maxrss`` in KiB; the workers are reaped when each
    round's service closes, so their peaks are included.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(samples: List[float], q: float) -> float:
    """The q-th percentile (0 < q < 100), interpolated between ranks."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[int(q) - 1]


def reference_mismatches(workload: Workload, answers: List[object], limit: int = 5) -> List[str]:
    """Compare one round's answers with a single-process ``PHomSolver``.

    The reference replays the operation list as often as a round does.

    Exact answers must be bit-identical to the reference, float answers
    within :data:`FLOAT_TOLERANCE` of the exact reference, and each
    ``evaluate_many`` value within the same tolerance of a float
    ``CompiledPlan.evaluate`` under the same overrides (every valuation of
    every :data:`FULL_CHECK_EVERY`-th call, the first few of the others).
    Updates are applied in operation order.  Returns up to ``limit``
    descriptions of mismatches.
    """
    instances = workload.fresh_instances()
    solver = PHomSolver()
    version = {instance_id: 0 for instance_id in instances}
    memo: Dict[tuple, Fraction] = {}
    errors: List[str] = []
    position = 0
    evaluate_calls = 0

    def check(ok: bool, message: str) -> None:
        if not ok and len(errors) < limit:
            errors.append(message)

    passes = workload.warm_passes + workload.timed_passes
    for index, op in enumerate(workload.ops * passes):
        if op[0] == "update":
            instances[op[1]].set_probability(op[2], op[3])
            version[op[1]] += 1
        elif op[0] == "submit":
            for iid, query, precision in op[1]:
                key = (iid, version[iid], query if isinstance(query, str) else id(query))
                if key not in memo:
                    memo[key] = solver.solve(query, instances[iid], precision="exact").probability
                expected, got = memo[key], answers[position]
                position += 1
                if got is None:
                    continue
                if precision == "exact":
                    check(
                        isinstance(got, Fraction) and got == expected,
                        f"op {index} {iid}: exact {got!r} != reference {expected!r}",
                    )
                else:
                    check(
                        abs(float(got) - float(expected)) <= FLOAT_TOLERANCE,
                        f"op {index} {iid}: float {got!r} vs exact {expected!r}",
                    )
        else:
            _, iid, query, batches = op
            plan = solver.compile(query, instances[iid])
            checked = len(batches) if evaluate_calls % FULL_CHECK_EVERY == 0 else CHECKED_VALUATIONS
            evaluate_calls += 1
            for offset, overrides in enumerate(batches):
                got = answers[position]
                position += 1
                if got is None or offset >= checked:
                    continue
                expected = plan.evaluate(probabilities=overrides, precision="float")
                check(
                    abs(float(got) - float(expected)) <= FLOAT_TOLERANCE,
                    f"op {index} {iid}: evaluate_many {got!r} vs evaluate {expected!r}",
                )
    check(position == len(answers), f"{len(answers)} answers for {position} positions")
    return errors

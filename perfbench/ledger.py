"""The traced run: a per-layer cost ledger of one workload.

The run alternates untraced rounds with traced ones.  A traced round turns
on the program's own tracer (``QueryService(trace_sample_rate=1.0,
trace_path=...)``), whose ``service.submit_many``, ``service.dispatch``,
``worker.solve``, ``plan.*``, ``tape.*``, ``store.*`` and ``wal.append``
spans split each client call's wall time:

* ``client``: call wall time outside ``service.submit_many`` (building the
  requests, which parses query strings);
* ``service.coordinator``: ``service.submit_many`` self time, i.e. outside
  the union of its ``service.dispatch`` intervals;
* ``service.ipc``: each ``service.dispatch`` minus the ``worker.solve``
  spans inside it (frame pickling, pipe transfer, reply handling);
* ``service.result_cache``: ``worker.solve`` spans answered from the
  worker's result cache;
* every ``plan.*``, ``tape.*``, ``store.*`` and ``wal.append`` span's self
  time, under its own name;
* unattributed, by source: uncached ``worker.solve`` self time
  (``worker_solve``: query minimization and the plan key run there),
  ``update_probability`` time outside ``wal.append`` (``update``), and
  whole ``evaluate_many`` calls (``evaluate``), which open no program span
  at all.

Dispatches to the two workers overlap, so each call's dispatch-side terms
are scaled by (union of its dispatch intervals) / (sum of their
durations); the terms of a call then add up to its wall time.  For
``evaluate_many`` the run reports, apart from the ledger, an estimate of
the worker's share: the same batches replayed in-process
(``ledger.batch_estimate_share``).

Beside the pooled ledger, the run calls each layer's public functions
in-process on fresh (pickled) copies of the workload's distinct queries
and instances, each call wrapped in a harness span, so memoised graph
metadata cannot hide work.  Harness spans are kept in memory and written
when the run ends, next to the program's trace, under ``.perfbench_traces/``.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.core.solver import PHomSolver
from repro.graphs.classes import graph_class_of
from repro.obs.trace import read_trace, validate_trace
from repro.plan import canonical_query_key
from repro.query import format_query, normalize, parse_query_graph

from harness import attempts_per_round, plan_cache_totals, reference_mismatches, run_round

#: Solver method -> the route name used in per-layer metric names.
ROUTES = {
    "labeled-dwt": "labeled-dwt",
    "connected-2wp": "labeled-2wp",
    "polytree-dp": "polytree-dp",
    "polytree-automaton": "ddnnf",
}

#: ``PHomSolver(prefer=...)`` values compiled in-process: the default DP
#: routes, and the d-DNNF automaton route on unlabeled polytrees.
PREFERENCES = ("dp", "automaton")

#: Distinct (instance, query) pairs measured in-process per run.
MAX_LAYER_QUERIES = 48

#: The ROADMAP's target share of call wall time that named layers cover.
COVERAGE_TARGET = 0.9

#: Valuations per in-process ``evaluate_many`` batch.
BATCH = 64

#: Ledger layers reported as shares of call wall time.
LAYERS = (
    "client", "service.coordinator", "service.ipc", "service.result_cache",
    "plan.lookup", "plan.compile", "plan.evaluate", "tape", "persist",
    "unattributed",
)


class SpanLog:
    """Harness spans kept in memory: id, parent, name, start, end, call id."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float, call: int,
            parent: Optional[int] = None, **attrs) -> int:
        span_id = len(self.records)
        self.records.append({
            "span": span_id, "parent": parent, "name": name, "call": call,
            "start": start, "end": end, "attrs": attrs,
        })
        return span_id

    @contextmanager
    def span(self, name: str, call: int, **attrs):
        """Time a block as a child of the innermost open harness span."""
        parent = self._stack[-1] if self._stack else None
        span_id = self.add(name, time.perf_counter(), 0.0, call, parent, **attrs)
        self._stack.append(span_id)
        try:
            yield self.records[span_id]
        finally:
            self._stack.pop()
            self.records[span_id]["end"] = time.perf_counter()


def span_errors(records: List[dict]) -> List[str]:
    """Orphan parents and negative durations among harness spans."""
    ids = {r["span"] for r in records}
    errors = []
    for r in records:
        if r["parent"] is not None and r["parent"] not in ids:
            errors.append(f"harness span {r['span']} ({r['name']}): orphan parent")
        if r["end"] < r["start"]:
            errors.append(f"harness span {r['span']} ({r['name']}): negative duration")
    return errors


def _union_ms(intervals: List[Tuple[float, float]]) -> float:
    """Length in ms of the union of (start_s, end_s) intervals."""
    total, current_end = 0.0, None
    current_start = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total * 1000.0


def _interval(record: dict) -> Tuple[float, float]:
    return record["ts"], record["ts"] + record["dur_ms"] / 1000.0


def _layer_of(name: str) -> str:
    if name.startswith("tape."):
        return "tape"
    if name.startswith("store.") or name == "wal.append":
        return "persist"
    return name


def pooled_ledger(program: List[dict], intervals: List[tuple], harness: SpanLog) -> dict:
    """Split every client call of a traced round into ledger layers.

    ``program`` is the round's program trace, ``intervals`` the round's
    timed ``(kind, start, end)`` client calls.  Each call becomes a harness
    span with one child span per layer.  Returns the per-layer totals plus
    the dispatch-level numbers the metrics need.
    """
    children: Dict[str, List[dict]] = defaultdict(list)
    for record in program:
        if record.get("parent") is not None:
            children[record["parent"]].append(record)
    submits = [i for i, (kind, _, _) in enumerate(intervals) if kind == "submit"]
    # Warm passes precede the timed calls: the last spans pair with them.
    roots = sorted(
        (r for r in program if r.get("parent") is None and r["name"] == "service.submit_many"),
        key=lambda r: r["ts"],
    )
    roots = roots[len(roots) - len(submits):] if len(roots) >= len(submits) else roots
    appends = sorted(
        (r for r in program if r.get("parent") is None and r["name"] == "wal.append"),
        key=lambda r: r["ts"],
    )
    updates = [i for i, (kind, _, _) in enumerate(intervals) if kind == "update"]
    # Registration and warm-pass appends come first; the last ones pair
    # with the timed update calls in order.
    appends = appends[len(appends) - len(updates):] if len(appends) >= len(updates) else []
    append_of = dict(zip(updates, appends))
    errors: List[str] = []
    if len(roots) != len(submits):
        errors.append(f"{len(roots)} service.submit_many spans for {len(submits)} calls")
    root_of = dict(zip(submits, roots))

    totals: Dict[str, float] = defaultdict(float)
    #: Unscaled span self times inside ``worker.solve``, for worker shares.
    worker_totals: Dict[str, float] = defaultdict(float)
    wall_ms = worker_ms = 0.0
    dispatch_self: List[float] = []

    def self_ms(record: dict) -> float:
        return record["dur_ms"] - _union_ms([_interval(c) for c in children[record["span"]]])

    def descend(record: dict, scale: float, layers: Dict[str, float]) -> None:
        for child in children[record["span"]]:
            own = self_ms(child)
            layers[_layer_of(child["name"])] += scale * own
            worker_totals[_layer_of(child["name"])] += own
            descend(child, scale, layers)

    for index, (kind, start, end) in enumerate(intervals):
        wall = (end - start) * 1000.0
        wall_ms += wall
        layers: Dict[str, float] = defaultdict(float)
        if kind == "submit" and index in root_of:
            root = root_of[index]
            layers["client"] += wall - root["dur_ms"]
            dispatches = children[root["span"]]
            union = _union_ms([_interval(d) for d in dispatches])
            layers["service.coordinator"] += root["dur_ms"] - union
            total = sum(d["dur_ms"] for d in dispatches)
            scale = union / total if total > 0 else 0.0
            for dispatch in dispatches:
                own = self_ms(dispatch)
                dispatch_self.append(own)
                layers["service.ipc"] += scale * own
                for solve in children[dispatch["span"]]:
                    worker_ms += solve["dur_ms"]
                    if solve.get("attrs", {}).get("cached"):
                        layers["service.result_cache"] += scale * solve["dur_ms"]
                        continue
                    layers["unattributed.worker_solve"] += scale * self_ms(solve)
                    descend(solve, scale, layers)
        elif kind == "update" and index in append_of:
            append = append_of[index]
            layers["persist"] += append["dur_ms"]
            layers["unattributed.update"] += wall - append["dur_ms"]
        else:
            layers[f"unattributed.{kind}"] += wall
        call_span = harness.add(f"call.{kind}", start, end, index)
        cursor = start
        for layer, ms in sorted(layers.items()):
            # Layer spans are laid end to end inside the call: their order
            # is arbitrary, their lengths are the attributed times.
            harness.add(layer, cursor, cursor + ms / 1000.0, index, call_span)
            cursor += ms / 1000.0
            totals[layer] += ms
    return {
        "totals": dict(totals),
        "wall_ms": wall_ms,
        "worker_ms": worker_ms,
        "worker_totals": dict(worker_totals),
        "dispatch_self_ms": dispatch_self,
        "submit_calls": len(submits),
        "errors": errors,
    }


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _fresh(obj):
    return pickle.loads(pickle.dumps(obj))


def _valuations(instance, rng: random.Random) -> List[dict]:
    edges = instance.edges()
    return [
        {(e.source, e.target): f"{rng.randint(1, 15)}/16" for e in rng.sample(edges, min(4, len(edges)))}
        for _ in range(BATCH)
    ]


def layer_pass(workload, log: SpanLog) -> Dict[str, List[float]]:
    """Call each layer's public functions in-process on fresh copies.

    Returns sample lists keyed by metric name.  Every call runs under a
    harness span whose parent is the per-query ``layers`` span.
    """
    samples: Dict[str, List[float]] = defaultdict(list)
    rng = random.Random(f"{workload.name}:{workload.seed}:layers")
    pairs = workload.distinct_queries()[:MAX_LAYER_QUERIES]
    for call, (iid, query) in enumerate(pairs, start=1_000_000):
        instance = workload.instances[iid]
        text = query if isinstance(query, str) else format_query(query)
        with log.span("layers", call, instance=iid, query=text):
            with log.span("query.parse", call) as span:
                graph = parse_query_graph(text)
            samples["query.parse_ms"].append(_ms(span))
            seen_routes = set()
            for prefer in PREFERENCES:
                fresh_query, fresh_instance = _fresh(graph), _fresh(instance)
                # Normalize and classify the copies first: compile then
                # finds both memoised, so its span holds only the route's
                # own work.
                stages = (
                    ("query.normalize", lambda: normalize(fresh_query)),
                    ("plan.key", lambda: canonical_query_key(fresh_query)),
                    ("core.classify", lambda: (graph_class_of(fresh_query),
                                               graph_class_of(fresh_instance.graph))),
                )
                for name, stage in stages:
                    with log.span(name, call) as span:
                        stage()
                    if prefer == "dp":
                        samples[f"{name}_ms"].append(_ms(span))
                solver = PHomSolver(prefer=prefer, plan_cache_size=0)
                with log.span("plan.compile", call, prefer=prefer) as span:
                    plan = solver.compile(fresh_query, fresh_instance)
                route = ROUTES.get(plan.method)
                if route is None or route in seen_routes:
                    continue
                seen_routes.add(route)
                samples[f"plan.compile_ms.{route}"].append(_ms(span))
                for precision in ("exact", "float"):
                    with log.span("plan.evaluate", call, route=route, precision=precision) as span:
                        plan.evaluate(precision=precision)
                    samples[f"plan.evaluate_ms.{route}.{precision}"].append(_ms(span))
                if prefer != "dp":
                    continue
                with log.span("tape.compile", call) as span:
                    tape = plan.tape()
                samples["tape.compile_ms"].append(_ms(span))
                samples["tape.ops"].append(tape.describe()["ops"])
                batches = _valuations(fresh_instance, rng)
                plan.evaluate_many(batches[:1], precision="float")  # warm the backend
                with log.span("tape.batch", call, batch=len(batches)) as span:
                    plan.evaluate_many(batches, precision="float")
                samples["tape.batch_us_per_valuation"].append(_ms(span) * 1000.0 / len(batches))
    return samples


def batch_cost_ms(workload) -> float:
    """In-process time of a round's timed ``evaluate_many`` calls.

    Replays a round's passes on a fresh copy of the instances (updates
    included), timing ``CompiledPlan.evaluate_many`` on the same batches.
    """
    instances = workload.fresh_instances()
    solver = PHomSolver()
    warm_ops = len(workload.ops) * workload.warm_passes
    total = 0.0
    for index, op in enumerate(workload.ops * (workload.warm_passes + workload.timed_passes)):
        if op[0] == "update":
            instances[op[1]].set_probability(op[2], op[3])
        elif op[0] == "evaluate":
            plan = solver.compile(op[2], instances[op[1]])
            plan.tape()
            start = time.perf_counter()
            plan.evaluate_many(op[3], precision="float")
            if index >= warm_ops:
                total += (time.perf_counter() - start) * 1000.0
    return total


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def traced_run(workload, seconds: float, work: str, trace_dir: str) -> tuple:
    """Alternate untraced and traced rounds, then build the ledger.

    As in the untraced run, a first warm-up round is checked against the
    reference but not measured.  The last traced round's harness and
    program spans are written under ``trace_dir``.
    """
    log = SpanLog()
    warm_up = run_round(workload, tempfile.mkdtemp(dir=work))
    untraced, traced, program = [], [], []
    spent = 0.0
    while not traced or spent < seconds:
        state_dir = tempfile.mkdtemp(dir=work)
        if len(untraced) <= len(traced):
            untraced.append(run_round(workload, state_dir))
            spent += untraced[-1].elapsed_s
        else:
            trace_path = os.path.join(work, f"program-{len(traced)}.jsonl")
            traced.append(run_round(
                workload, state_dir, trace_sample_rate=1.0, trace_path=trace_path
            ))
            # No program span opens on a workload without submit_many or
            # WAL appends, and then the tracer never creates its file.
            program = read_trace(trace_path) if os.path.exists(trace_path) else []
            spent += traced[-1].elapsed_s
        shutil.rmtree(state_dir, ignore_errors=True)

    errors = reference_mismatches(workload, warm_up.answers)
    for kind, rounds in (("untraced", untraced), ("traced", traced)):
        for index, other in enumerate(rounds):
            if other.answers != warm_up.answers:
                errors.append(f"{kind} round {index} answers differ from the warm-up round")
            if other.shape != warm_up.shape:
                errors.append(f"{kind} round {index} shape counts differ")
    errors.extend(validate_trace(program))

    ledger = pooled_ledger(program, traced[-1].intervals, log)
    batch_ms = batch_cost_ms(workload)
    evaluate_wall = sum(
        (end - start) * 1000.0 for kind, start, end in traced[-1].intervals if kind == "evaluate"
    )
    errors.extend(ledger["errors"])
    samples = layer_pass(workload, log)
    errors.extend(span_errors(log.records))
    errors.extend(self_time_errors(log.records))

    stats = traced[-1].stats
    plans = plan_cache_totals(stats)
    wall = ledger["wall_ms"]
    totals = ledger["totals"]
    rate = lambda r: r.timed_answers / r.elapsed_s  # noqa: E731
    metrics: Dict[str, Tuple[float, str]] = {
        "service.coordinator_ms_per_call": (
            totals.get("service.coordinator", 0.0) / max(1, ledger["submit_calls"]), "ms"),
        "service.ipc_ms_per_dispatch": (_mean(ledger["dispatch_self_ms"]), "ms"),
        "service.coalesced_ratio": (stats.coalesced / max(1, stats.requests), "ratio"),
        "service.result_cache_hit_ratio": (
            stats.result_cache_hits() / max(1, stats.dispatched), "ratio"),
        "service.dispatched": (stats.dispatched, "count"),
    }
    for name in ("query.parse_ms", "query.normalize_ms", "plan.key_ms", "core.classify_ms"):
        metrics[name] = (_mean(samples[name]), "ms")
    for route in ROUTES.values():
        metrics[f"plan.compile_ms.{route}"] = (_mean(samples[f"plan.compile_ms.{route}"]), "ms")
    metrics["plan.compiles"] = (plans["compiles"], "count")
    metrics["plan.evictions"] = (plans["evictions"], "count")
    metrics["plan.cache_hit_ratio"] = (
        plans["hits"] / max(1, plans["hits"] + plans["misses"]), "ratio")
    for route in ROUTES.values():
        for precision in ("exact", "float"):
            name = f"plan.evaluate_ms.{route}.{precision}"
            metrics[name] = (_mean(samples[name]), "ms")
    metrics["tape.compile_ms"] = (_mean(samples["tape.compile_ms"]), "ms")
    metrics["tape.ops"] = (_mean(samples["tape.ops"]), "count")
    metrics["tape.batch_us_per_valuation"] = (_mean(samples["tape.batch_us_per_valuation"]), "us")
    appends = [r["dur_ms"] for r in program if r["name"] == "wal.append"]
    metrics["persist.wal_append_ms"] = (_mean(appends), "ms")
    metrics["persist.wal_appends"] = ((traced[-1].persistence or {}).get("wal_appends", 0), "count")
    metrics["obs.trace_overhead_ratio"] = (
        statistics.median(map(rate, traced)) / statistics.median(map(rate, untraced)), "ratio")
    unattributed = {k: v for k, v in totals.items() if k.startswith("unattributed.")}
    totals["unattributed"] = sum(unattributed.values())
    coverage = 1.0 - totals["unattributed"] / wall
    metrics["ledger.coverage"] = (coverage, "ratio")
    for layer in LAYERS:
        metrics[f"ledger.share.{layer}"] = (totals.get(layer, 0.0) / wall, "ratio")
    worker, inside = ledger["worker_ms"], ledger["worker_totals"]
    metrics["ledger.worker_compile_share"] = (
        inside.get("plan.compile", 0.0) / worker if worker else 0.0, "ratio")
    metrics["ledger.worker_evaluate_share"] = (
        (inside.get("plan.evaluate", 0.0) + inside.get("tape", 0.0)) / worker if worker else 0.0,
        "ratio")
    metrics["ledger.batch_estimate_share"] = (
        batch_ms / evaluate_wall if evaluate_wall else 0.0, "ratio")

    write_traces(trace_dir, workload, log.records, program)

    rounds = [warm_up] + untraced + traced
    record = {
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "shape": warm_up.shape,
        "layer_samples": {name: len(values) for name, values in sorted(samples.items())},
        "ledger_ms": {k: round(v, 3) for k, v in sorted(totals.items())},
        "wall_ms": round(wall, 3),
        "errors": errors,
    }
    if coverage < COVERAGE_TARGET:
        record["coverage_below_target"] = {
            "workload": workload.name,
            "unattributed_share": round(1.0 - coverage, 4),
            "by_source": {k: round(v / wall, 4) for k, v in sorted(unattributed.items())},
        }
    result = {
        "correct": not errors,
        "attempted": len(rounds) * attempts_per_round(workload),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def self_time_errors(records: List[dict], slack_ms: float = 0.01) -> List[str]:
    """Layer self times must never exceed the wall time of their call."""
    by_parent: Dict[int, float] = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            by_parent[r["parent"]] += (r["end"] - r["start"]) * 1000.0
    errors = []
    for r in records:
        wall = (r["end"] - r["start"]) * 1000.0
        if by_parent.get(r["span"], 0.0) > wall + slack_ms:
            errors.append(
                f"{r['name']} call {r['call']}: children {by_parent[r['span']]:.3f} ms "
                f"exceed wall {wall:.3f} ms"
            )
    return errors


def write_traces(directory: str, workload, harness: List[dict], program: List[dict]) -> None:
    """Write the harness spans and the program trace of the last traced round."""
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"{workload.name}-seed{workload.seed}")
    for suffix, records in (("harness", harness), ("program", program)):
        with open(f"{stem}.{suffix}.jsonl", "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(r, default=str) + "\n" for r in records)

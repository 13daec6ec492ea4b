"""The four serving workloads, generated from a seed.

A workload is a list of client operations replayed in order by one closed-
loop client against a 2-worker ``QueryService``.  Operations are plain
tuples so a round can be replayed any number of times:

* ``("submit", [(instance_id, query, precision), ...])`` — one
  ``submit_many`` tick; ``query`` is a ``DiGraph`` or a query-language
  string;
* ``("update", instance_id, (source, target), probability)`` — one
  ``update_probability`` call;
* ``("evaluate", instance_id, query, batches)`` — one float
  ``evaluate_many`` call; ``batches`` is a list of override mappings.

Every workload mixes writes into its reads, at a rate chosen so that each
round has at least 50 update samples: the update latency is reported on
every workload, under that workload's traffic.

The graphs — instances and query pools — come from a fixed structure seed;
``--seed`` draws everything else: edge probabilities, which pool queries
are hot and in what order requests arrive, the update targets and values,
and the override valuations.  A seed thus changes every input value while
the cost of one round stays put, which keeps run-to-run spread low enough
for the benchmark's bounds (the cost of a polytree evaluation varies
several-fold between random graphs of one size).

``scale`` shrinks the operation count for the benchmark's own tests; the
instance and query sizes never change, so a scaled-down workload still
takes the same routes.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from repro.graphs.classes import GraphClass
from repro.probability.prob_graph import ProbabilisticGraph
from repro.query import format_query
from repro.workloads.generators import (
    make_instance,
    make_query,
    round_robin_interleave,
    zipf_ranks,
)

#: Worker processes in every workload's pool (fixed, recorded with each run).
NUM_WORKERS = 2

#: One in this many requests asks for the float backend; the rest are exact.
FLOAT_EVERY = 5

#: (instance class, labeled, query class, query edges, instance size): the
#: three tractable serving shapes — labeled ⊔DWT with 1WP queries, labeled
#: ⊔2WP with 2WP queries, unlabeled polytree with DWT queries.
SERVING_SHAPES = (
    (GraphClass.UNION_DOWNWARD_TREE, True, GraphClass.ONE_WAY_PATH, 3, 140),
    (GraphClass.UNION_TWO_WAY_PATH, True, GraphClass.TWO_WAY_PATH, 3, 80),
    (GraphClass.POLYTREE, False, GraphClass.DOWNWARD_TREE, 4, 80),
)

#: Shapes of cold-compile: larger queries on smaller labeled instances, so
#: distinct queries rarely fold onto the same plan.
COLD_SHAPES = (
    (GraphClass.UNION_TWO_WAY_PATH, True, GraphClass.TWO_WAY_PATH, 6, 40),
    (GraphClass.UNION_DOWNWARD_TREE, True, GraphClass.ONE_WAY_PATH, 7, 70),
)


@dataclass
class Workload:
    """One seeded workload: instances, the operation list, pool settings."""

    name: str
    seed: int
    instances: Dict[str, ProbabilisticGraph]
    ops: List[tuple]
    #: Whether the service runs with a fresh ``state_dir`` (WAL on).
    durable: bool = False
    #: Untimed passes over ``ops`` that warm a round's service, then timed
    #: passes: a round replays the operation list ``warm + timed`` times.
    warm_passes: int = 0
    timed_passes: int = 1
    #: Pickled instances, so every round starts from identical fresh copies.
    _snapshot: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        self._snapshot = pickle.dumps(self.instances)

    def fresh_instances(self) -> Dict[str, ProbabilisticGraph]:
        return pickle.loads(self._snapshot)

    def counts(self) -> Dict[str, int]:
        """Operation counts of one timed pass (requests, valuations, updates, calls)."""
        counts = {"requests": 0, "valuations": 0, "updates": 0, "calls": 0}
        for op in self.ops:
            if op[0] == "submit":
                counts["requests"] += len(op[1])
                counts["calls"] += 1
            elif op[0] == "evaluate":
                counts["valuations"] += len(op[3])
                counts["calls"] += 1
            else:
                counts["updates"] += 1
        return counts

    def distinct_queries(self) -> List[Tuple[str, object]]:
        """Each distinct (instance id, query) pair, in first-seen order."""
        seen = {}
        for op in self.ops:
            if op[0] == "submit":
                pairs = [(iid, query) for iid, query, _ in op[1]]
            elif op[0] == "evaluate":
                pairs = [(op[1], op[2])]
            else:
                continue
            for iid, query in pairs:
                key = (iid, query if isinstance(query, str) else id(query))
                seen.setdefault(key, (iid, query))
        return list(seen.values())


#: Seed of every workload's graphs (instances and query pools).
STRUCTURE_SEED = 20170514


def _rng(name: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{name}:{seed}:{part}")


def _structure_rng(name: str, part: str) -> random.Random:
    return _rng(name, STRUCTURE_SEED, f"structure-{part}")


def _instance(name: str, index, shape, seed: int) -> ProbabilisticGraph:
    """A fixed graph of the shape, with probabilities drawn from ``seed``.

    Which edges are certain (probability 1, a fifth of them) is part of the
    fixed structure; the seed draws every other edge's ``k/8``.  Exact
    arithmetic costs depend on how many factors are not 1, so this keeps
    a round's cost independent of the seed.
    """
    instance_class, labeled, _, _, size = shape
    structure = _structure_rng(name, f"instance-{index}")
    graph = make_instance(instance_class, labeled, size, structure)
    rng = _rng(name, seed, f"probabilities-{index}")
    return ProbabilisticGraph(graph, {
        edge: Fraction(1) if structure.random() < 0.2 else Fraction(rng.randint(1, 7), 8)
        for edge in graph.edges()
    })


def _pool(name: str, index, shape, size: int) -> list:
    """A fixed pool of ``size`` random queries of the shape's query class."""
    _, labeled, query_class, query_size, _ = shape
    rng = _structure_rng(name, f"queries-{index}")
    return [make_query(query_class, labeled, query_size, rng) for _ in range(size)]


def _update(instance_id: str, instance: ProbabilisticGraph, rng: random.Random) -> tuple:
    """Set a random uncertain edge to a random ``k/8``: certain edges stay so."""
    edges = instance.uncertain_edges()
    edge = edges[rng.randrange(len(edges))]
    return ("update", instance_id, (edge.source, edge.target), f"{rng.randint(1, 7)}/8")


def _precision(position: int) -> str:
    return "float" if position % FLOAT_EVERY == 0 else "exact"


def _streams(name, seed, instances, shapes, per_instance, pool_size, skew):
    """One Zipf(``skew``) request stream per instance over its own query pool.

    The seed ranks the pool (which query is hottest) and draws the stream;
    ``skew=0`` draws uniformly.
    """
    streams = []
    for index, (instance_id, shape) in enumerate(zip(instances, shapes)):
        pool = _pool(name, index, shape, pool_size)
        rng = _rng(name, seed, f"traffic-{index}")
        rng.shuffle(pool)
        streams.append([
            (instance_id, pool[rank], _precision(position))
            for position, rank in enumerate(zipf_ranks(per_instance, pool_size, skew, rng))
        ])
    return streams


def _ticks(arrival: Sequence, size: int) -> List[list]:
    return [list(arrival[start:start + size]) for start in range(0, len(arrival), size)]


def zipf_serve(seed: int, scale: float = 1.0) -> Workload:
    """Read-mostly hot traffic: coalescing and result caches answer most.

    Each round's service first answers one untimed pass, so the timed
    passes see warm plan and result caches, as a long-running service
    does: compile and first evaluations are cold-compile's subject.

    Two updates land on read instances, at a third and two thirds of the
    pass.  The steady write stream (one update every 2 ticks) goes to a
    ninth instance that no read touches: an update clears the result cache
    of its instance, and re-evaluating hot exact polytree queries after
    each one would make this workload evaluation-bound instead.
    """
    name = "zipf-serve"
    shapes = [SERVING_SHAPES[index % 3] for index in range(8)]
    instances = {
        f"z{index}": _instance(name, index, shape, seed) for index, shape in enumerate(shapes)
    }
    streams = _streams(name, seed, list(instances), shapes, max(8, int(250 * scale)), 16, 1.1)
    ticks = _ticks(round_robin_interleave(streams), 16)
    rng = _rng(name, seed, "updates")
    read_updates = {len(ticks) // 3: "z0", (2 * len(ticks)) // 3: "z1"}
    instances["z-ingest"] = _instance(name, "ingest", SERVING_SHAPES[0], seed)
    ops: List[tuple] = []
    for index, tick in enumerate(ticks):
        if index in read_updates:
            instance_id = read_updates[index]
            ops.append(_update(instance_id, instances[instance_id], rng))
        if index % 2 == 1:
            ops.append(_update("z-ingest", instances["z-ingest"], rng))
        ops.append(("submit", tick))
    return Workload(name, seed, instances, ops, warm_passes=1, timed_passes=2)


def update_churn(seed: int, scale: float = 1.0) -> Workload:
    """Writes beside reads: every tick follows one update per instance.

    Requests are uniform over each instance's 16 hot queries: with result
    caches cleared before every tick, a Zipf draw would let the cost of
    whichever query the seed makes hottest set the pace of the whole run.
    """
    name = "update-churn"
    shapes = list(SERVING_SHAPES)
    instances = {
        f"u{index}": _instance(name, index, shape, seed) for index, shape in enumerate(shapes)
    }
    num_ticks = max(2, int(50 * scale))
    streams = _streams(name, seed, list(instances), shapes, (num_ticks * 8 + 2) // 3, 16, 0.0)
    ticks = _ticks(round_robin_interleave(streams), 8)[:num_ticks]
    rng = _rng(name, seed, "updates")
    ops: List[tuple] = []
    for tick in ticks:
        for instance_id in sorted(instances):
            ops.append(_update(instance_id, instances[instance_id], rng))
        ops.append(("submit", tick))
    return Workload(name, seed, instances, ops, durable=True)


def cold_compile(seed: int, scale: float = 1.0) -> Workload:
    """Ad-hoc distinct queries sent as text: most requests compile a plan."""
    name = "cold-compile"
    shapes = [COLD_SHAPES[0], COLD_SHAPES[0], COLD_SHAPES[1], COLD_SHAPES[1]]
    instances = {
        f"c{index}": _instance(name, index, shape, seed) for index, shape in enumerate(shapes)
    }
    num_requests = max(16, int(800 * scale))
    per_instance = num_requests // len(instances)
    streams = []
    for index, (instance_id, shape) in enumerate(zip(instances, shapes)):
        pool = [format_query(query) for query in _pool(name, index, shape, 4 * per_instance)]
        ranks = zipf_ranks(per_instance, len(pool), 0.0, _rng(name, seed, f"traffic-{index}"))
        streams.append([(instance_id, pool[rank], "exact") for rank in ranks])
    ticks = _ticks(round_robin_interleave(streams), 8)
    rng = _rng(name, seed, "updates")
    ids = sorted(instances)
    ops: List[tuple] = []
    for index, tick in enumerate(ticks):
        if index % 2 == 1:
            instance_id = ids[(index // 2) % len(ids)]
            ops.append(_update(instance_id, instances[instance_id], rng))
        ops.append(("submit", tick))
    return Workload(name, seed, instances, ops)


def batch_eval(seed: int, scale: float = 1.0) -> Workload:
    """What-if analysis: 64 float valuations per ``evaluate_many`` call."""
    name = "batch-eval"
    shapes = list(SERVING_SHAPES)
    instances = {
        f"b{index}": _instance(name, index, shape, seed) for index, shape in enumerate(shapes)
    }
    pools = {
        instance_id: _pool(name, index, shape, 4)
        for index, (instance_id, shape) in enumerate(zip(instances, shapes))
    }
    ids = sorted(instances)
    rng = _rng(name, seed, "valuations")
    ops: List[tuple] = []
    for call in range(max(6, int(150 * scale))):
        instance_id = ids[call % len(ids)]
        if call % 2 == 1:
            ops.append(_update(instance_id, instances[instance_id], rng))
        edges = instances[instance_id].edges()
        batches = []
        for _ in range(64):
            batches.append({
                (edge.source, edge.target): f"{rng.randint(1, 15)}/16"
                for edge in rng.sample(edges, 4)
            })
        query = pools[instance_id][(call // len(ids)) % len(pools[instance_id])]
        ops.append(("evaluate", instance_id, query, batches))
    return Workload(name, seed, instances, ops)


WORKLOADS = {
    "zipf-serve": zipf_serve,
    "update-churn": update_churn,
    "cold-compile": cold_compile,
    "batch-eval": batch_eval,
}

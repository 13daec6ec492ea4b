"""Differential tests for flat-tape compilation (:mod:`repro.tape`).

The tape backend re-implements nothing: it lowers each plan's own
arithmetic by symbolic execution, so its one correctness obligation is
*equivalence* — tape evaluation must be bit-identical (exact mode) or
ulp-close (float mode) to the object-graph evaluator on every plan route,
under randomized instances, randomized probability tables, batched
evaluation, and incremental-update streams.  This suite asserts exactly
that, extending the :mod:`tests.test_plan_fuzz` idiom: seeds are pinned
(``REPRO_FUZZ_SEED`` overrides), so failures reproduce deterministically.
"""

from __future__ import annotations

import os
import pickle
import random
import warnings
from fractions import Fraction

import pytest

import repro.numeric as repro_numeric
from repro.core.solver import PHomSolver
from repro.exceptions import (
    GraphError,
    IntractableFallbackWarning,
    PlanError,
    ReproError,
)
from repro.graphs.builders import one_way_path
from repro.graphs.classes import GraphClass
from repro.graphs.digraph import Edge
from repro.numeric import EXACT
from repro.plan import ComponentPlan, ConstantPlan, FallbackPlan
from repro.probability.prob_graph import ProbabilisticGraph
from repro.tape import (
    OP_COMPL,
    OPCODE_NAMES,
    TapeEvaluator,
    compile_plan_tape,
)
from repro.workloads.generators import intractable_workload, workload_for_cell

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20170514"))

#: The compiled-plan routes of test_plan_fuzz, all of which must lower.
PLAN_ROUTES = [
    (GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, {}),
    (GraphClass.TWO_WAY_PATH, GraphClass.TWO_WAY_PATH, True, {}),
    (GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE, False, {}),
    (GraphClass.UNION_ONE_WAY_PATH, GraphClass.UNION_POLYTREE, False, {}),
    (GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False, {"prefer": "automaton"}),
]

FLOAT_TOLERANCE = 1e-9


def object_graph(plan, probabilities=None):
    """The oracle: the plan's object-graph evaluation, never the tape."""
    table = dict(plan.instance.probabilities_view())
    for key, value in (probabilities or {}).items():
        table[plan._resolve_edge(key)] = Fraction(value)
    return plan._evaluate_with(table, EXACT)


def fresh_exact(query, instance):
    """The ground truth: a cache-less compile, evaluated on its object graph.

    Exact ``solve`` answers from the plan's tape, so the oracle evaluates a
    freshly compiled plan's object graph instead.
    """
    return object_graph(PHomSolver(plan_cache_size=0).compile(query, instance))


def random_probability(rng: random.Random) -> Fraction:
    """A random rational in [0, 1], hitting the 0 and 1 boundaries too."""
    roll = rng.random()
    if roll < 0.1:
        return Fraction(0)
    if roll < 0.2:
        return Fraction(1)
    return Fraction(rng.randint(1, 15), 16)


def route_plan(route: int):
    """A compiled (workload, plan) pair for one PLAN_ROUTES entry."""
    query_class, instance_class, labeled, solver_kwargs = PLAN_ROUTES[route]
    rng = random.Random(SEED + route)
    workload = workload_for_cell(
        query_class, instance_class, labeled,
        query_size=rng.randint(2, 3), instance_size=rng.randint(5, 8), rng=rng,
    )
    solver = PHomSolver(**solver_kwargs)
    plan = solver.compile(workload.query, workload.instance)
    assert isinstance(plan, (ComponentPlan, ConstantPlan))
    return workload, plan, rng


def graded_collapse_plan():
    """A plan pinned to the graded-collapse route (Proposition 3.6 product).

    With query minimization on, every unlabeled downward-tree query
    collapses to its height path and dispatches to the path routes, so the
    graded-collapse method is only reachable with ``minimize_queries=False``
    — a branching unlabeled tree query on a union-of-downward-trees
    instance.
    """
    rng = random.Random(SEED)
    workload = workload_for_cell(
        GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE, False,
        query_size=5, instance_size=14, rng=rng,
    )
    solver = PHomSolver(minimize_queries=False)
    plan = solver.compile(workload.query, workload.instance)
    assert plan.method == "graded-collapse"
    return workload, plan, rng


def random_tables(instance, rng, count):
    """Full edge-probability tables with randomized (boundary-heavy) entries."""
    edges = instance.edges()
    return [
        {edge: random_probability(rng) for edge in edges} for _ in range(count)
    ]


# ----------------------------------------------------------------------
# tape vs object graph, per plan route
# ----------------------------------------------------------------------
class TestTapeVsObjectGraph:
    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_exact_bit_identical(self, route):
        workload, plan, rng = route_plan(route)
        tape = plan.tape()
        assert plan.has_tape()
        for step, table in enumerate(random_tables(workload.instance, rng, 8)):
            got = tape.evaluate(table)
            want = object_graph(plan, table)
            assert got == want, f"route {route} diverged on table {step}"

    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_float_close(self, route):
        workload, plan, rng = route_plan(route)
        tape = plan.tape()
        for table in random_tables(workload.instance, rng, 8):
            got = tape.evaluate(table, precision="float")
            want = plan.evaluate(table, precision="float")
            assert abs(got - want) <= FLOAT_TOLERANCE

    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_tape_matches_fresh_solve(self, route):
        # Transitivity guard: the tape must agree with a from-scratch
        # compile's object graph, not merely with its own plan's.
        workload, plan, _rng = route_plan(route)
        tape = plan.tape()
        table = dict(workload.instance.probabilities_view())
        assert tape.evaluate(table) == fresh_exact(workload.query, workload.instance)

    def test_graded_collapse_route_exact(self):
        workload, plan, rng = graded_collapse_plan()
        tape = plan.tape()
        for table in random_tables(workload.instance, rng, 8):
            assert tape.evaluate(table) == object_graph(plan, table)

    def test_constant_plan_lowers_to_inputless_tape(self):
        rng = random.Random(SEED)
        workload = workload_for_cell(
            GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True,
            query_size=2, instance_size=6, rng=rng,
        )
        # A query over a label the instance lacks compiles to a constant 0.
        plan = PHomSolver().compile(one_way_path(["Z"], prefix="q"), workload.instance)
        assert isinstance(plan, ConstantPlan)
        tape = plan.tape()
        assert tape.num_inputs() == 0
        assert tape.num_ops() == 0
        assert tape.evaluate({}) == plan.evaluate() == 0

    def test_fallback_plan_cannot_lower(self):
        rng = random.Random(SEED)
        workload = intractable_workload(6, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntractableFallbackWarning)
            plan = PHomSolver().compile(workload.query, workload.instance)
        assert isinstance(plan, FallbackPlan)
        with pytest.raises(PlanError):
            plan.tape()
        with pytest.raises(PlanError):
            compile_plan_tape(plan)
        assert not plan.has_tape()


# ----------------------------------------------------------------------
# batched evaluation vs looped evaluate
# ----------------------------------------------------------------------
class TestEvaluateMany:
    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_exact_matches_looped_evaluate(self, route):
        workload, plan, rng = route_plan(route)
        edges = workload.instance.edges()
        batches = [None, {}]
        for _ in range(10):
            overrides = {
                rng.choice(edges): random_probability(rng)
                for _ in range(rng.randint(1, 3))
            }
            batches.append(overrides)
        batches.extend(random_tables(workload.instance, rng, 3))
        got = plan.evaluate_many(batches)
        want = [plan.evaluate(overrides) for overrides in batches]
        assert got == want

    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_float_matches_looped_evaluate(self, route):
        workload, plan, rng = route_plan(route)
        batches = [None] + random_tables(workload.instance, rng, 6)
        got = plan.evaluate_many(batches, precision="float")
        want = [plan.evaluate(overrides, precision="float") for overrides in batches]
        assert max(abs(a - b) for a, b in zip(got, want)) <= FLOAT_TOLERANCE

    def test_stdlib_and_numpy_backends_agree(self):
        if repro_numeric.numpy_module() is None:
            pytest.skip("numpy is not importable in this environment")
        workload, plan, rng = route_plan(4)
        batches = random_tables(workload.instance, rng, 6)
        via_numpy = plan.evaluate_many(batches, precision="float", backend="numpy")
        via_stdlib = plan.evaluate_many(batches, precision="float", backend="stdlib")
        assert max(abs(a - b) for a, b in zip(via_numpy, via_stdlib)) <= FLOAT_TOLERANCE

    def test_empty_batch(self):
        _workload, plan, _rng = route_plan(0)
        assert plan.evaluate_many([]) == []

    def test_numpy_backend_rejected_in_exact_mode(self):
        _workload, plan, _rng = route_plan(0)
        with pytest.raises(PlanError):
            plan.evaluate_many([None], precision="exact", backend="numpy")

    def test_unknown_backend_rejected(self):
        _workload, plan, _rng = route_plan(0)
        with pytest.raises(PlanError):
            plan.evaluate_many([None], precision="float", backend="fortran")

    def test_numpy_absence_falls_back_to_stdlib(self, monkeypatch):
        # Stub the numpy seam: "auto" must degrade silently, "numpy" must
        # fail loudly, and the stdlib results must stay correct.
        monkeypatch.setattr(repro_numeric, "_numpy_cache", None)
        workload, plan, rng = route_plan(1)
        batches = random_tables(workload.instance, rng, 4)
        want = [plan.evaluate(overrides, precision="float") for overrides in batches]
        got = plan.evaluate_many(batches, precision="float", backend="auto")
        assert max(abs(a - b) for a, b in zip(got, want)) <= FLOAT_TOLERANCE
        with pytest.raises(PlanError):
            plan.evaluate_many(batches, precision="float", backend="numpy")

    def test_solver_entry_point_matches_plan(self):
        workload, plan, rng = route_plan(0)
        solver = PHomSolver()
        batches = [None] + random_tables(workload.instance, rng, 3)
        got = solver.evaluate_many(workload.query, workload.instance, batches)
        want = plan.evaluate_many(batches)
        assert got == want

    def test_solver_entry_point_rejects_approx(self):
        workload, _plan, _rng = route_plan(0)
        solver = PHomSolver()
        with pytest.raises(ReproError):
            solver.evaluate_many(
                workload.query, workload.instance, [None], precision="approx"
            )

    def test_service_inline_dispatch_matches_solver(self):
        from repro.service import QueryService

        workload, plan, rng = route_plan(0)
        edges = workload.instance.edges()
        batches = [
            None,
            {(edges[0].source, edges[0].target): Fraction(1, 7)},
            {(edges[-1].source, edges[-1].target): Fraction(0)},
        ]
        service = QueryService(num_workers=0)
        try:
            instance_id = service.register_instance(workload.instance)
            got = service.evaluate_many(
                instance_id, workload.query, batches, precision="exact"
            )
        finally:
            service.close()
        assert got == plan.evaluate_many(batches)


# ----------------------------------------------------------------------
# incremental updates through the tape
# ----------------------------------------------------------------------
class TestTapeUpdateStream:
    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_update_stream_matches_fresh_solve(self, route):
        workload, plan, rng = route_plan(route)
        plan.tape()  # route update() through the tape serving path
        mirror = ProbabilisticGraph(
            workload.instance.graph, workload.instance.probabilities()
        )
        edges = workload.instance.edges()
        for step in range(12):
            edge = edges[rng.randrange(len(edges))]
            value = random_probability(rng)
            key = edge if step % 2 == 0 else (edge.source, edge.target)
            served = plan.update(key, value)
            mirror.set_probability(edge, value)
            assert served == fresh_exact(workload.query, mirror), (
                f"route {route} diverged at step {step} after setting "
                f"{edge!r} to {value}"
            )

    def test_tape_evaluator_updates_match_full_replay(self):
        workload, plan, rng = route_plan(4)
        tape = plan.tape()
        table = dict(workload.instance.probabilities_view())
        evaluator = TapeEvaluator(tape)
        evaluator.bind(table)
        edges = workload.instance.edges()
        for _ in range(15):
            edge = edges[rng.randrange(len(edges))]
            value = random_probability(rng)
            table[edge] = value
            got = evaluator.update(edge, value)
            assert got == tape.evaluate(table)
            assert evaluator.current_value() == got

    def test_update_of_unread_edge_keeps_value(self):
        # An edge the tape has no input slot for cannot affect the result:
        # the evaluator returns the current root unchanged (mirroring
        # CircuitEvaluator's contract), while the plan-level path rejects
        # edges that are not part of the instance at all.
        workload, plan, _rng = route_plan(0)
        tape = plan.tape()
        foreign = Edge("tape-test-x", "tape-test-y", "R")
        assert foreign not in dict(tape.inputs)
        evaluator = TapeEvaluator(tape)
        before = evaluator.bind(dict(workload.instance.probabilities_view()))
        assert evaluator.update(foreign, Fraction(1, 9)) == before
        with pytest.raises(GraphError):
            plan.update(foreign, Fraction(1, 9))

    def test_update_before_bind_raises(self):
        workload, plan, _rng = route_plan(0)
        evaluator = TapeEvaluator(plan.tape())
        with pytest.raises(PlanError):
            evaluator.update(workload.instance.edges()[0], Fraction(1, 2))
        with pytest.raises(PlanError):
            evaluator.current_value()

    def test_precision_switch_mid_serving_raises(self):
        workload, plan, _rng = route_plan(0)
        plan.tape()
        edge = workload.instance.edges()[0]
        plan.update(edge, Fraction(1, 3), precision="exact")
        with pytest.raises(PlanError):
            plan.update(edge, Fraction(1, 4), precision="float")
        plan.reset_serving()
        # After the reset, the float session starts cleanly.
        drifted = plan.update(edge, Fraction(1, 4), precision="float")
        assert isinstance(drifted, float)

    def test_legacy_serving_session_is_not_hijacked(self):
        # A serving session started before the tape existed has drifted
        # state in the evaluator table; compiling a tape mid-session must
        # not silently discard it.
        workload, plan, rng = route_plan(0)
        mirror = ProbabilisticGraph(
            workload.instance.graph, workload.instance.probabilities()
        )
        edges = workload.instance.edges()
        edge = edges[0]
        plan.update(edge, Fraction(1, 5))
        mirror.set_probability(edge, Fraction(1, 5))
        plan.tape()
        for step in range(5):
            drift_edge = edges[rng.randrange(len(edges))]
            value = random_probability(rng)
            served = plan.update(drift_edge, value)
            mirror.set_probability(drift_edge, value)
            assert served == fresh_exact(workload.query, mirror)

    def test_reset_serving_reseeds_tape_sessions(self):
        workload, plan, _rng = route_plan(0)
        plan.tape()
        edge = workload.instance.edges()[0]
        plan.update(edge, Fraction(1, 3))
        plan.reset_serving()
        assert plan.update(edge, workload.instance.probability(edge)) == fresh_exact(
            workload.query, workload.instance
        )


# ----------------------------------------------------------------------
# tape structure invariants
# ----------------------------------------------------------------------
class TestTapeStructure:
    @pytest.mark.parametrize("route", range(len(PLAN_ROUTES)))
    def test_slots_are_topologically_ordered(self, route):
        _workload, plan, _rng = route_plan(route)
        tape = plan.tape()
        for opcode, dst, a, b in zip(tape.opcodes, tape.dsts, tape.lhs, tape.rhs):
            assert dst > a
            if opcode != OP_COMPL:
                assert dst > b
        assert 0 <= tape.root < tape.num_slots

    def test_describe_is_consistent(self):
        _workload, plan, _rng = route_plan(4)
        tape = plan.tape()
        shape = tape.describe()
        assert shape["ops"] == tape.num_ops() == len(tape.opcodes)
        assert shape["inputs"] == tape.num_inputs() == len(tape.inputs)
        assert shape["slots"] == tape.num_slots
        assert sum(shape[name] for name in OPCODE_NAMES.values()) == shape["ops"]

    def test_packed_segments_cover_all_ops_in_level_order(self):
        _workload, plan, _rng = route_plan(4)
        tape = plan.tape()
        segments = tape._packed_segments()
        covered = 0
        computed = set()
        for _opcode, dsts, lhs, rhs in segments:
            for a in lhs + rhs:
                # Every operand is a constant, an input, or the output of
                # an earlier segment — never of the same or a later one.
                assert a in computed or a not in set(tape.dsts)
            computed.update(dsts)
            covered += len(dsts)
        assert covered == tape.num_ops()

    def test_tape_pickle_roundtrips(self):
        workload, plan, rng = route_plan(2)
        tape = plan.tape()
        clone = pickle.loads(pickle.dumps(tape))
        for table in random_tables(workload.instance, rng, 3):
            assert clone.evaluate(table) == tape.evaluate(table)

    def test_compile_is_memoised_on_the_plan(self):
        _workload, plan, _rng = route_plan(0)
        assert plan.tape() is plan.tape()


# ----------------------------------------------------------------------
# cache statistics hygiene
# ----------------------------------------------------------------------
class TestStatsHygiene:
    def test_tape_compiles_do_not_inflate_plan_compiles(self):
        workload, _plan, _rng = route_plan(0)
        solver = PHomSolver()
        solver.compile(workload.query, workload.instance)
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1
        assert stats["tape_compiles"] == 0
        solver.tape_for(workload.query, workload.instance)
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1, "tape compile double-counted as plan compile"
        assert stats["tape_compiles"] == 1

    def test_repeated_tape_requests_compile_once(self):
        workload, _plan, _rng = route_plan(0)
        solver = PHomSolver()
        first = solver.tape_for(workload.query, workload.instance)
        second = solver.tape_for(workload.query, workload.instance)
        assert first is second
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1
        assert stats["tape_compiles"] == 1

    def test_evaluate_many_accounts_like_tape_for(self):
        workload, _plan, _rng = route_plan(0)
        solver = PHomSolver()
        solver.evaluate_many(workload.query, workload.instance, [None, {}])
        solver.evaluate_many(workload.query, workload.instance, [None])
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1
        assert stats["tape_compiles"] == 1

    def test_stats_dict_exposes_tape_compiles(self):
        solver = PHomSolver()
        assert "tape_compiles" in solver.plan_cache.stats


# ----------------------------------------------------------------------
# exact answers on integer lanes
# ----------------------------------------------------------------------
#: (route, query class, instance class, labeled, solver kwargs, plan method):
#: one entry per dispatch route whose exact answers replay the tape.
INTEGER_LANE_ROUTES = [
    ("labeled-1wp-kmp", GraphClass.ONE_WAY_PATH, GraphClass.DOWNWARD_TREE, True, {},
     "labeled-dwt"),
    ("labeled-2wp-interval", GraphClass.TWO_WAY_PATH, GraphClass.UNION_TWO_WAY_PATH,
     True, {}, "connected-2wp"),
    ("labeled-dwt-kmp", GraphClass.ONE_WAY_PATH, GraphClass.UNION_DOWNWARD_TREE, True,
     {}, "labeled-dwt"),
    ("graded-collapse", GraphClass.DOWNWARD_TREE, GraphClass.UNION_DOWNWARD_TREE, False,
     {"minimize_queries": False}, "graded-collapse"),
    ("polytree-dp", GraphClass.ONE_WAY_PATH, GraphClass.POLYTREE, False, {},
     "polytree-dp"),
    ("automaton", GraphClass.DOWNWARD_TREE, GraphClass.POLYTREE, False,
     {"prefer": "automaton"}, "polytree-automaton"),
]
INTEGER_LANE_IDS = [route[0] for route in INTEGER_LANE_ROUTES]


def integer_lane_case(route: int, instance_size: int = 14):
    """(workload, plan, rng) on one INTEGER_LANE_ROUTES entry.

    Random labeled queries sometimes miss the instance's labels and compile
    to a constant; redraw (deterministically) until the route is the one
    under test.
    """
    _name, query_class, instance_class, labeled, kwargs, method = (
        INTEGER_LANE_ROUTES[route]
    )
    rng = random.Random(SEED + 100 + route)
    for _attempt in range(50):
        workload = workload_for_cell(
            query_class, instance_class, labeled,
            query_size=3, instance_size=instance_size, rng=rng,
        )
        plan = PHomSolver(**kwargs).compile(workload.query, workload.instance)
        # A root in the constant pool (e.g. a query longer than every
        # instance path) would not read the probabilities at all.
        if plan.method == method:
            tape = plan.tape()
            if tape.root not in dict(tape.consts):
                return workload, plan, rng
    raise AssertionError(f"no {method} plan drawn for route {route}")


def assert_exact_match(got, plan, probabilities=None):
    want = object_graph(plan, probabilities)
    assert type(got) is Fraction
    assert got == want


class TestIntegerLanes:
    @pytest.mark.parametrize("route", range(len(INTEGER_LANE_ROUTES)), ids=INTEGER_LANE_IDS)
    def test_route_matches_object_graph_on_full_tables(self, route):
        workload, plan, rng = integer_lane_case(route)
        tape = plan.tape()
        for table in random_tables(workload.instance, rng, 8):
            # k/16 tables (0 and 1 included) share a common denominator.
            assert tape.evaluate_integer(table) is not None
            assert_exact_match(plan.evaluate(table), plan, table)

    @pytest.mark.parametrize("route", range(len(INTEGER_LANE_ROUTES)), ids=INTEGER_LANE_IDS)
    def test_certain_and_impossible_edges(self, route):
        workload, plan, rng = integer_lane_case(route)
        edges = workload.instance.edges()
        for table in (
            {edge: Fraction(0) for edge in edges},
            {edge: Fraction(1) for edge in edges},
            {edge: Fraction(rng.randint(0, 1)) for edge in edges},
        ):
            assert_exact_match(plan.evaluate(table), plan, table)

    @pytest.mark.parametrize("route", range(len(INTEGER_LANE_ROUTES)), ids=INTEGER_LANE_IDS)
    def test_override_tables(self, route):
        workload, plan, rng = integer_lane_case(route)
        edges = workload.instance.edges()
        for _ in range(6):
            chosen = rng.sample(edges, min(3, len(edges)))
            overrides = {
                (edge.source, edge.target): random_probability(rng) for edge in chosen
            }
            overrides[chosen[0]] = "3/8"  # Edge keys and strings are accepted too
            assert_exact_match(plan.evaluate(overrides), plan, overrides)
        assert_exact_match(plan.evaluate(), plan)

    @pytest.mark.parametrize("route", range(len(INTEGER_LANE_ROUTES)), ids=INTEGER_LANE_IDS)
    def test_set_probability_between_solves(self, route):
        workload, plan, rng = integer_lane_case(route)
        _name, _qc, _ic, _labeled, kwargs, _method = INTEGER_LANE_ROUTES[route]
        instance = workload.instance
        solver = PHomSolver(**kwargs)
        for _ in range(6):
            edge = rng.choice(instance.edges())
            instance.set_probability(edge, random_probability(rng))
            result = solver.solve(workload.query, instance)
            assert result.method == plan.method
            assert_exact_match(result.probability, plan)
        stats = solver.plan_cache.stats
        assert stats["compiles"] == 1 and stats["tape_compiles"] == 1

    @pytest.mark.parametrize("route", range(len(INTEGER_LANE_ROUTES)), ids=INTEGER_LANE_IDS)
    def test_float_derived_fractions(self, route):
        workload, plan, rng = integer_lane_case(route)
        table = {edge: Fraction(rng.random()) for edge in workload.instance.edges()}
        # Denominators are powers of two, so the largest is a common one.
        assert plan.tape().evaluate_integer(table) is not None
        assert_exact_match(plan.evaluate(table), plan, table)

    @pytest.mark.parametrize("route", range(len(INTEGER_LANE_ROUTES)), ids=INTEGER_LANE_IDS)
    def test_coprime_denominators_take_the_fraction_lanes(self, route, monkeypatch):
        from repro.tape import PlanTape

        workload, plan, _rng = integer_lane_case(route)
        primes = [p for p in range(3, 400) if all(p % d for d in range(2, p))]
        table = {
            edge: Fraction(1, prime)
            for edge, prime in zip(workload.instance.edges(), primes)
        }
        tape = plan.tape()
        assert tape.evaluate_integer(table) is None
        runs = []
        original = PlanTape._run

        def counting_run(self, values):
            runs.append(self)
            return original(self, values)

        monkeypatch.setattr(PlanTape, "_run", counting_run)
        assert_exact_match(plan.evaluate(table), plan, table)
        assert runs == [tape]

    def test_mixed_degree_operands_and_constants(self):
        # Every route's DP is homogeneous (add/sub operands of equal degree),
        # so the rescaling branches and non-integer constants are pinned on
        # a hand-built tape: slot 2 holds 1/2, slot 3 the integer 2.
        from repro.tape import OP_ADD, OP_MUL, OP_SUB, PlanTape

        e, f, g = (Edge(name, name + "'", "R") for name in "efg")
        ops = [
            (OP_MUL, 7, 4, 5),    # e*f            degree 2
            (OP_ADD, 8, 7, 6),    # e*f + g        rhs rescaled
            (OP_ADD, 9, 6, 7),    # g + e*f        lhs rescaled
            (OP_SUB, 10, 7, 6),   # e*f - g        rhs rescaled
            (OP_SUB, 11, 6, 7),   # g - e*f        lhs rescaled
            (OP_COMPL, 12, 7, 7), # 1 - e*f        degree 2
            (OP_MUL, 13, 2, 12),  # (1/2)(1 - e*f) degree 3
            (OP_MUL, 14, 3, 9),   # 2(g + e*f)     degree 2
            (OP_ADD, 15, 13, 14),
            (OP_SUB, 16, 15, 8),
            (OP_ADD, 17, 16, 10),
            (OP_ADD, 18, 17, 11),
            (OP_ADD, 19, 18, 3),  # + 2            degree-0 operand
        ]
        opcodes, dsts, lhs, rhs = (list(column) for column in zip(*ops))
        consts = ((0, Fraction(0)), (1, Fraction(1)), (2, Fraction(1, 2)), (3, Fraction(2)))
        tape = PlanTape(20, consts, ((e, 4), (f, 5), (g, 6)), opcodes, dsts, lhs, rhs, 19)
        rng = random.Random(SEED)
        for denominator in (1, 2, 8, 10, 2**60):
            # e carries the full denominator, so it is the common one.
            table = {
                e: Fraction(1, denominator),
                f: Fraction(rng.randint(0, denominator), denominator),
                g: Fraction(rng.randint(0, denominator), denominator),
            }
            values = tape._load(table, EXACT)
            tape._run(values)
            got = tape.evaluate_integer(table)
            assert type(got) is Fraction and got == values[19]
        # A constant denominator that the inputs' largest one does not
        # divide: 1/2 against thirds.
        assert tape.evaluate_integer({e: Fraction(1, 3), f: Fraction(2, 3), g: 1}) is None
        assert tape.evaluate({e: Fraction(1, 3), f: Fraction(2, 3), g: 1}) == Fraction(65, 18)

    @pytest.mark.parametrize("route", [2, 4], ids=["labeled-dwt-kmp", "polytree-dp"])
    def test_thousand_edge_instance(self, route):
        workload, plan, rng = integer_lane_case(route, instance_size=1010)
        edges = workload.instance.edges()
        assert len(edges) >= 1000
        table = {edge: Fraction(rng.randint(1, 15), 16) for edge in edges}
        got = plan.evaluate(table)
        assert_exact_match(got, plan, table)
        assert 0 < got < 1  # no certain edge: a non-trivial rational

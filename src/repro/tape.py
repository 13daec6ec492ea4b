"""Flat postfix tapes: compiled plans lowered to array programs.

A :class:`~repro.plan.CompiledPlan` already separates the structural phase
from the arithmetic, but its arithmetic half still *interprets* Python
object graphs per evaluation — circuit arenas, skeleton tuples, dict-keyed
distributions — and the serving layer's dominant access pattern (one plan,
many drifted probability tables) pays that interpretation per valuation.
This module lowers a plan one level further, to a :class:`PlanTape`: a flat
register program over parallel arrays

* ``opcodes`` / ``dsts`` / ``lhs`` / ``rhs`` — compact ``array("i")`` op
  arrays, one entry per operation, in dependency (topological) order, over
  a semiring-with-complement opcode set (:data:`OP_COMPL`, :data:`OP_ADD`,
  :data:`OP_MUL`, :data:`OP_SUB`);
* a *constant pool* mapping register slots to exact
  :class:`~fractions.Fraction` constants;
* an *edge-slot indirection*: which input register each instance edge's
  probability is loaded into.

Evaluation is a single non-recursive loop — no gate dispatch, no dict
hashing, no recursion — and :meth:`PlanTape.evaluate_many` answers a whole
batch of probability valuations in one structural pass, vectorizing each
operation across the batch (with numpy when available on the float backend,
behind the :func:`repro.numeric.numpy_module` seam; a dependency-free
stdlib-list path otherwise and always in exact mode).

A single exact valuation replays the tape on *integer lanes*
(:meth:`PlanTape.evaluate_integer`): every slot holds a big-integer
numerator over a power of one common denominator, the power fixed per slot
by a static degree analysis, so no operation pays a gcd.  It falls back to
:class:`~fractions.Fraction` lanes when the valuation's denominators do
not all divide the largest one.

How tapes are compiled
----------------------

The compiler performs *symbolic execution* of the plan's own arithmetic
half: it calls ``plan._evaluate_with`` with a :class:`NumericContext` whose
numbers are :class:`SlotRef` handles that record every ``*``, ``+`` and
``1 - x`` into a tape builder, and with a lazy probability table that
allocates an input register the first time an edge's probability is read.
Every arithmetic route — the interval DP of Proposition 4.11, the KMP DP of
Proposition 4.10, the polytree distribution fold and the d-DNNF circuit of
Proposition 5.4, and the Lemma 3.7 survival product over components — is
thereby lowered *by running it*, with zero duplicated logic: the tape
performs the same operations in the same order as the object-graph
evaluator, so exact-mode results are bit-identical by construction.  (The
DP evaluators branch only on *structural* data — interval thresholds, KMP
states, distribution keys — never on probability values, which is what
makes symbolic execution sound.)

The only rewrites applied are identity peepholes (``0 + x → x``,
``1 * x → x``, ``0 * x → 0``, ``1 - x`` folded to one complement op, and
complement sharing), all of which are bitwise-exact on both backends for
the non-negative finite values probabilities produce.

Brute-force :class:`~repro.plan.FallbackPlan` objects have no arithmetic
half, so they cannot be lowered: :func:`compile_plan_tape` raises
:class:`~repro.exceptions.PlanError` for them.

>>> from repro import DiGraph, ProbabilisticGraph, one_way_path, PHomSolver
>>> H = DiGraph()
>>> _ = H.add_edge("a", "b", "R"); _ = H.add_edge("b", "c", "S")
>>> instance = ProbabilisticGraph(H, {("a", "b"): "1/2", ("b", "c"): "1/3"})
>>> plan = PHomSolver().compile(one_way_path(["R", "S"]), instance)
>>> tape = plan.tape()
>>> tape.evaluate(dict(instance.probabilities_view())) == plan.evaluate()
True
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import PlanError
from repro.graphs.digraph import Edge
from repro.numeric import (
    EXACT,
    Number,
    NumericContext,
    numpy_module,
    resolve_context,
)
from repro.obs.trace import current_tracer

#: Opcodes of the tape instruction set.  ``COMPL`` is the semiring
#: complement ``dst = 1 - lhs`` (``rhs`` unused); the rest are binary.
OP_COMPL = 0
OP_ADD = 1
OP_MUL = 2
OP_SUB = 3

#: Human-readable opcode names (docs, ``describe()``, error messages).
OPCODE_NAMES = {OP_COMPL: "compl", OP_ADD: "add", OP_MUL: "mul", OP_SUB: "sub"}

#: Accepted values of the ``backend=`` keyword on the batched entry points.
TAPE_BACKENDS = ("auto", "stdlib", "numpy")

#: ``array`` typecode of the op arrays: a C int (4 bytes) per entry, a
#: quarter of what a tuple of Python int references costs.
_OP_TYPECODE = "i"


def _op_array(values) -> array:
    """``values`` as a compact op array (tuples from older pickles too)."""
    if isinstance(values, array) and values.typecode == _OP_TYPECODE:
        return values
    return array(_OP_TYPECODE, values)


class _TapeBuilder:
    """Accumulates slots, constants, inputs and operations during lowering."""

    def __init__(self) -> None:
        self.num_slots = 0
        self._const_slots: Dict[Fraction, int] = {}
        self.consts: List[Tuple[int, Fraction]] = []
        self.edge_slots: Dict[Edge, int] = {}
        self.opcodes = array(_OP_TYPECODE)
        self.dsts = array(_OP_TYPECODE)
        self.lhs = array(_OP_TYPECODE)
        self.rhs = array(_OP_TYPECODE)
        #: Complement sharing: operand slot -> slot holding ``1 - operand``.
        self._compl_cache: Dict[int, int] = {}
        self.zero_slot = self.const_slot(Fraction(0))
        self.one_slot = self.const_slot(Fraction(1))
        self.zero_ref = SlotRef(self, self.zero_slot)
        self.one_ref = SlotRef(self, self.one_slot)

    # -- slot allocation ----------------------------------------------
    def _new_slot(self) -> int:
        slot = self.num_slots
        self.num_slots += 1
        return slot

    def const_slot(self, value: Fraction) -> int:
        """The (deduplicated) constant-pool slot holding ``value``."""
        value = Fraction(value)
        slot = self._const_slots.get(value)
        if slot is None:
            slot = self._new_slot()
            self._const_slots[value] = slot
            self.consts.append((slot, value))
        return slot

    def input_slot(self, edge: Edge) -> int:
        """The input slot an edge's probability is loaded into (one per edge)."""
        slot = self.edge_slots.get(edge)
        if slot is None:
            slot = self._new_slot()
            self.edge_slots[edge] = slot
        return slot

    # -- op emission (with identity peepholes) ------------------------
    def _emit(self, opcode: int, a: int, b: int) -> int:
        dst = self._new_slot()
        self.opcodes.append(opcode)
        self.dsts.append(dst)
        self.lhs.append(a)
        self.rhs.append(b)
        return dst

    def add(self, a: int, b: int) -> int:
        if a == self.zero_slot:
            return b
        if b == self.zero_slot:
            return a
        return self._emit(OP_ADD, a, b)

    def mul(self, a: int, b: int) -> int:
        if a == self.one_slot:
            return b
        if b == self.one_slot:
            return a
        if a == self.zero_slot or b == self.zero_slot:
            return self.zero_slot
        return self._emit(OP_MUL, a, b)

    def compl(self, a: int) -> int:
        if a == self.zero_slot:
            return self.one_slot
        if a == self.one_slot:
            return self.zero_slot
        cached = self._compl_cache.get(a)
        if cached is None:
            cached = self._emit(OP_COMPL, a, a)
            self._compl_cache[a] = cached
        return cached

    def sub(self, a: int, b: int) -> int:
        if a == self.one_slot:
            return self.compl(b)
        if b == self.zero_slot:
            return a
        return self._emit(OP_SUB, a, b)

    # -- SlotRef plumbing ---------------------------------------------
    def ref(self, slot: int) -> "SlotRef":
        return SlotRef(self, slot)

    def as_ref(self, value: Any) -> Optional["SlotRef"]:
        """Coerce a symbolic or literal operand to a :class:`SlotRef`."""
        if isinstance(value, SlotRef):
            return value
        if type(value) is int:
            # ``1 - x`` and friends: the identities are the literals the
            # evaluators use most, so skip the Fraction and the pool lookup.
            if value == 0:
                return self.zero_ref
            if value == 1:
                return self.one_ref
        if isinstance(value, (int, Fraction)):
            return self.ref(self.const_slot(Fraction(value)))
        return None


class SlotRef:
    """A symbolic number: arithmetic on it records tape operations.

    Instances stand in for probabilities during lowering; ``*``, ``+``,
    ``-`` and the ``1 - x`` complement emit ops into the owning
    :class:`_TapeBuilder` and return new references.  Plain ``int`` /
    :class:`~fractions.Fraction` operands are interned into the constant
    pool, so mixed expressions like ``1 - p`` lower transparently.
    """

    __slots__ = ("builder", "slot")

    def __init__(self, builder: _TapeBuilder, slot: int) -> None:
        self.builder = builder
        self.slot = slot

    def _binary(self, other: Any, emit) -> "SlotRef":
        coerced = self.builder.as_ref(other)
        if coerced is None:
            return NotImplemented
        return self.builder.ref(emit(self.slot, coerced.slot))

    def __mul__(self, other: Any) -> "SlotRef":
        return self._binary(other, self.builder.mul)

    __rmul__ = __mul__

    def __add__(self, other: Any) -> "SlotRef":
        return self._binary(other, self.builder.add)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "SlotRef":
        return self._binary(other, self.builder.sub)

    def __rsub__(self, other: Any) -> "SlotRef":
        coerced = self.builder.as_ref(other)
        if coerced is None:
            return NotImplemented
        return self.builder.ref(self.builder.sub(coerced.slot, self.slot))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlotRef({self.slot})"


class _SymbolicTable(dict):
    """A lazy probability table: reading an edge allocates its input slot."""

    def __init__(self, builder: _TapeBuilder) -> None:
        super().__init__()
        self.builder = builder

    def __missing__(self, edge: Edge) -> SlotRef:
        ref = self.builder.ref(self.builder.input_slot(edge))
        self[edge] = ref
        return ref


def _symbolic_context(builder: _TapeBuilder) -> NumericContext:
    """A :class:`NumericContext` whose numbers are tape slot references."""

    def convert(value: Any) -> SlotRef:
        ref = builder.as_ref(value)
        if ref is None:
            raise PlanError(
                f"cannot lower value {value!r} of type {type(value).__name__} "
                "to a tape slot"
            )
        return ref

    return NumericContext(
        name="symbolic", zero=builder.zero_ref, one=builder.one_ref, convert=convert
    )


def compile_plan_tape(plan) -> "PlanTape":
    """Lower a compiled plan's arithmetic half to a :class:`PlanTape`.

    Works on every tractable plan kind (:class:`~repro.plan.ConstantPlan`,
    :class:`~repro.plan.ComponentPlan` on all five dispatch routes); raises
    :class:`~repro.exceptions.PlanError` for brute-force
    :class:`~repro.plan.FallbackPlan` objects, which have no arithmetic
    half to lower.  Prefer :meth:`repro.plan.CompiledPlan.tape`, which
    memoises the result on the plan.
    """
    from repro.plan import FallbackPlan

    if isinstance(plan, FallbackPlan):
        raise PlanError(
            "brute-force fallback plans have no arithmetic half to lower to "
            "a tape; use plan.estimate(...) to sample them instead"
        )
    builder = _TapeBuilder()
    context = _symbolic_context(builder)
    table = _SymbolicTable(builder)
    result = plan._evaluate_with(table, context)
    root = builder.as_ref(result)
    if root is None:  # pragma: no cover - every evaluator returns numbers
        raise PlanError(f"plan evaluation produced a non-numeric {result!r}")
    return PlanTape(
        num_slots=builder.num_slots,
        consts=tuple(builder.consts),
        inputs=tuple(sorted(builder.edge_slots.items(), key=lambda item: item[1])),
        opcodes=builder.opcodes,
        dsts=builder.dsts,
        lhs=builder.lhs,
        rhs=builder.rhs,
        root=root.slot,
    )


def _resolve_backend(backend: str, context: NumericContext):
    """The (numpy-or-None, name) pair actually used for a batched pass."""
    if backend not in TAPE_BACKENDS:
        raise PlanError(
            f"unknown tape backend {backend!r}; expected one of {TAPE_BACKENDS}"
        )
    if backend == "stdlib":
        return None, "stdlib"
    if context.name != "float":
        if backend == "numpy":
            raise PlanError(
                "the numpy tape backend is float-only; exact mode always "
                "evaluates with stdlib Fractions (the bit-identity contract)"
            )
        return None, "stdlib"
    np = numpy_module()
    if np is None:
        if backend == "numpy":
            raise PlanError("backend='numpy' requested but numpy is not importable")
        return None, "stdlib"
    return np, "numpy"


class PlanTape:
    """A compiled plan's arithmetic, flattened to a register program.

    The tape is pure structure — picklable, instance-independent up to the
    edge identities in :attr:`inputs` — and therefore travels with its plan
    through the plan cache, the persistent plan store and the serving
    workers.  Registers (*slots*) are numbered so every operation writes a
    fresh slot greater than its operands: replaying the parallel op arrays
    front to back is a valid evaluation order, which is all
    :meth:`evaluate` does.
    """

    def __init__(
        self,
        num_slots: int,
        consts: Tuple[Tuple[int, Fraction], ...],
        inputs: Tuple[Tuple[Edge, int], ...],
        opcodes: Sequence[int],
        dsts: Sequence[int],
        lhs: Sequence[int],
        rhs: Sequence[int],
        root: int,
    ) -> None:
        self.num_slots = num_slots
        self.consts = consts
        self.inputs = inputs
        self.opcodes = _op_array(opcodes)
        self.dsts = _op_array(dsts)
        self.lhs = _op_array(lhs)
        self.rhs = _op_array(rhs)
        self.root = root
        self._reset_derived()

    def _reset_derived(self) -> None:
        #: Lazily packed level segments for the vectorized backend (see
        #: :meth:`_packed_segments`), the edge -> slot map, and the static
        #: degree analysis of the integer lanes (see :meth:`_degrees`):
        #: derived data, dropped from pickles and rebuilt on demand.
        self._segments = None
        self._edge_slot_map: Optional[Dict[Edge, int]] = None
        self._degree_memo = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_segments"] = None
        state["_edge_slot_map"] = None
        state["_degree_memo"] = None
        return state

    def __setstate__(self, state) -> None:
        # Tapes pickled before the op arrays were compact carry tuples and
        # no degree memo; both load, as the same program.
        self.__dict__.update(state)
        self._reset_derived()
        for name in ("opcodes", "dsts", "lhs", "rhs"):
            setattr(self, name, _op_array(getattr(self, name)))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def num_ops(self) -> int:
        """Number of operations on the tape."""
        return len(self.opcodes)

    def num_inputs(self) -> int:
        """Number of edge-probability input slots."""
        return len(self.inputs)

    def describe(self) -> Dict[str, int]:
        """Tape shape summary: slots, inputs, constants and per-opcode counts."""
        counts = {name: 0 for name in OPCODE_NAMES.values()}
        for opcode in self.opcodes:
            counts[OPCODE_NAMES[opcode]] += 1
        return {
            "slots": self.num_slots,
            "inputs": self.num_inputs(),
            "consts": len(self.consts),
            "ops": self.num_ops(),
            **counts,
        }

    def _packed_segments(self) -> Tuple[Tuple[int, List[int], List[int], List[int]], ...]:
        """The ops grouped into data-independent level segments (memoised).

        A slot's *level* is 0 for constants and inputs and
        ``1 + max(operand levels)`` for op destinations, so all operations
        of one level read only slots computed at strictly earlier levels —
        a segment ``(opcode, dsts, lhs, rhs)`` can therefore be executed as
        *one* gather/compute/scatter batch regardless of how many ops it
        packs.  This is what keeps the numpy backend's fixed cost
        proportional to the tape's *depth* (a few dozen segments) instead
        of its length (thousands of ops).
        """
        if self._segments is None:
            level = [0] * self.num_slots
            groups: Dict[Tuple[int, int], Tuple[int, List[int], List[int], List[int]]] = {}
            for opcode, dst, a, b in zip(self.opcodes, self.dsts, self.lhs, self.rhs):
                depth = 1 + (level[a] if opcode == OP_COMPL else max(level[a], level[b]))
                level[dst] = depth
                segment = groups.get((depth, opcode))
                if segment is None:
                    segment = (opcode, [], [], [])
                    groups[(depth, opcode)] = segment
                segment[1].append(dst)
                segment[2].append(a)
                segment[3].append(b)
            self._segments = tuple(
                segment for _key, segment in sorted(groups.items())
            )
        return self._segments

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _load(self, probabilities: Mapping[Edge, Number], context: NumericContext):
        """Initial register file: constants plus converted edge probabilities."""
        convert = context.convert
        values: List[Any] = [None] * self.num_slots
        for slot, value in self.consts:
            values[slot] = convert(value)
        for edge, slot in self.inputs:
            values[slot] = convert(probabilities[edge])
        return values

    def _run(self, values: List[Any]) -> None:
        """Replay the op arrays over a scalar register file, in place."""
        for opcode, dst, a, b in zip(self.opcodes, self.dsts, self.lhs, self.rhs):
            if opcode == OP_MUL:
                values[dst] = values[a] * values[b]
            elif opcode == OP_ADD:
                values[dst] = values[a] + values[b]
            elif opcode == OP_COMPL:
                values[dst] = 1 - values[a]
            else:
                values[dst] = values[a] - values[b]

    def evaluate(
        self,
        probabilities: Mapping[Edge, Number],
        precision: Any = None,
    ) -> Number:
        """One valuation: replay the tape over a full edge-probability table.

        ``probabilities`` must cover every edge in :attr:`inputs` (the
        plan-level :meth:`repro.plan.CompiledPlan.evaluate` builds such
        tables from the live instance plus overrides).  Exact mode runs on
        integer lanes when the table allows it (see
        :meth:`evaluate_integer`) and on :class:`~fractions.Fraction`
        lanes otherwise; either way the result is bit-identical to the
        object-graph evaluator.
        """
        context = resolve_context(precision)
        if context.name == "exact":
            value = self.evaluate_integer(probabilities)
            if value is not None:
                return value
        values = self._load(probabilities, context)
        self._run(values)
        return values[self.root]

    # -- integer lanes (exact mode) ------------------------------------
    def _degrees(self) -> Tuple[array, int, Tuple[int, ...], Tuple[int, ...]]:
        """The static degree analysis of the integer lanes (memoised).

        A slot of degree ``k`` holds ``n / D**k`` as the integer ``n``, for
        the valuation's common denominator ``D``: inputs and non-integer
        constants have degree 1, the integer constants 0 and 1 degree 0,
        ``mul`` adds its operands' degrees, ``add``/``sub`` take the larger
        one and ``compl`` keeps its operand's.  Returns the per-op
        exponents (``add``/``sub``: ``deg(rhs) - deg(lhs)``, the operand
        to rescale and by how much; ``compl``: ``deg(lhs)``; ``mul``: 0),
        the root's degree, the distinct exponents in use (each valuation
        computes ``D**k`` once for exactly these), and the denominators of
        the non-integer constants.
        """
        if self._degree_memo is None:
            degree = array(_OP_TYPECODE, bytes(4 * self.num_slots))
            const_denominators = set()
            for slot, value in self.consts:
                if value.denominator != 1:
                    degree[slot] = 1
                    const_denominators.add(value.denominator)
            for _edge, slot in self.inputs:
                degree[slot] = 1
            shifts = array(_OP_TYPECODE, bytes(4 * len(self.opcodes)))
            for index, (opcode, dst, a, b) in enumerate(
                zip(self.opcodes, self.dsts, self.lhs, self.rhs)
            ):
                da = degree[a]
                if opcode == OP_MUL:
                    degree[dst] = da + degree[b]
                elif opcode == OP_COMPL:
                    degree[dst] = da
                    shifts[index] = da
                else:
                    db = degree[b]
                    degree[dst] = da if da > db else db
                    shifts[index] = db - da
            self._degree_memo = (
                shifts,
                degree[self.root],
                tuple(sorted(set(map(abs, shifts)))),
                tuple(sorted(const_denominators)),
            )
        return self._degree_memo

    def evaluate_integer(self, probabilities: Mapping[Edge, Number]) -> Optional[Fraction]:
        """One exact valuation on integer lanes, or ``None`` if it does not fit.

        Every slot is held as an integer numerator over a power of one
        common denominator ``D`` (the largest denominator among the inputs
        and constants), so the replay does no gcd work at all; the root
        ``n / D**deg`` becomes a single :class:`~fractions.Fraction` at the
        end, equal to — hence bit-identical with — the ``Fraction`` replay.
        This only pays when the denominators share one ``D``, so it runs
        only when every input and constant denominator divides the largest
        one (``k/8`` tables, decimals, float-derived ``m/2**k``) and
        returns ``None`` otherwise — e.g. one distinct prime denominator
        per edge, where ``D**deg`` would grow with every edge.
        """
        shifts, root_degree, exponents, const_denominators = self._degrees()
        loaded = []
        denominators = set(const_denominators)
        for edge, slot in self.inputs:
            value = probabilities[edge]
            if type(value) is not Fraction:
                value = Fraction(value)
            loaded.append((slot, value))
            denominators.add(value.denominator)
        common = max(denominators, default=1)
        for denominator in denominators:
            if common % denominator:
                return None
        registers: List[int] = [0] * self.num_slots
        for slot, value in self.consts:
            if value.denominator == 1:
                registers[slot] = value.numerator
            else:
                registers[slot] = value.numerator * (common // value.denominator)
        for slot, value in loaded:
            registers[slot] = value.numerator * (common // value.denominator)
        powers = {exponent: common**exponent for exponent in exponents}
        for opcode, dst, a, b, shift in zip(
            self.opcodes, self.dsts, self.lhs, self.rhs, shifts
        ):
            if opcode == OP_MUL:
                registers[dst] = registers[a] * registers[b]
            elif opcode == OP_COMPL:
                registers[dst] = powers[shift] - registers[a]
            else:
                x = registers[a]
                y = registers[b]
                if shift > 0:
                    x *= powers[shift]
                elif shift < 0:
                    y *= powers[-shift]
                registers[dst] = x + y if opcode == OP_ADD else x - y
        return Fraction(registers[self.root], common ** root_degree)

    def evaluate_many(
        self,
        tables: Sequence[Mapping[Edge, Number]],
        precision: Any = None,
        backend: str = "auto",
    ) -> List[Number]:
        """A batch of valuations in one structural pass over the tape.

        Each entry of ``tables`` is a full edge-probability table (as in
        :meth:`evaluate`); the result list is index-aligned with it.  The
        pass vectorizes every tape operation across the whole batch: with
        ``backend="auto"`` the float backend uses numpy when importable
        (see :func:`repro.numeric.numpy_module`) and stdlib lists
        otherwise; exact mode always uses stdlib
        :class:`~fractions.Fraction` lanes, preserving bit-identity.
        ``backend="numpy"`` forces numpy (raising
        :class:`~repro.exceptions.PlanError` when unavailable or in exact
        mode); ``backend="stdlib"`` forces the dependency-free path.
        """
        context = resolve_context(precision)
        np, _name = _resolve_backend(backend, context)
        batch = len(tables)
        if batch == 0:
            return []
        convert = context.convert
        if np is not None:
            registers = self._seed_registers(np, batch)
            for edge, slot in self.inputs:
                registers[slot] = [float(table[edge]) for table in tables]
            return self._replay_segments(np, registers)
        values = self._seed_lanes(convert, batch)
        for edge, slot in self.inputs:
            values[slot] = [convert(table[edge]) for table in tables]
        return self._replay_lanes(values)

    def evaluate_overrides(
        self,
        base: Mapping[Edge, Number],
        overrides: Sequence[Optional[Mapping[Edge, Number]]],
        precision: Any = None,
        backend: str = "auto",
    ) -> List[Number]:
        """A batch of valuations given as deltas against one base table.

        The serving-shaped variant of :meth:`evaluate_many`: ``base`` is a
        full edge-probability table and each batch entry is an override
        mapping (``None``/``{}`` for "just the base") whose values are
        already in the backend's number type.  Each input row is seeded
        once from ``base`` and only the overridden cells are rewritten, so
        the per-valuation setup cost scales with the number of overridden
        edges instead of the instance size.  Results are identical to
        building the full per-valuation tables and calling
        :meth:`evaluate_many`; overridden edges the tape never reads are
        ignored (they provably cannot affect the result).
        """
        context = resolve_context(precision)
        np, _name = _resolve_backend(backend, context)
        batch = len(overrides)
        if batch == 0:
            return []
        with current_tracer().span("tape.run") as span:
            if span:
                span.attrs["backend"] = _name
                span.attrs["batch"] = batch
            return self._evaluate_overrides(np, context, base, overrides, batch)

    def _evaluate_overrides(
        self,
        np,
        context: NumericContext,
        base: Mapping[Edge, Number],
        overrides: Sequence[Optional[Mapping[Edge, Number]]],
        batch: int,
    ) -> List[Number]:
        edge_slots = self._edge_slots()
        convert = context.convert
        if np is not None:
            registers = self._seed_registers(np, batch)
            for edge, slot in self.inputs:
                registers[slot] = float(base[edge])
            for lane, delta in enumerate(overrides):
                if not delta:
                    continue
                for edge, value in delta.items():
                    slot = edge_slots.get(edge)
                    if slot is not None:
                        registers[slot, lane] = float(value)
            return self._replay_segments(np, registers)
        values = self._seed_lanes(convert, batch)
        for edge, slot in self.inputs:
            values[slot] = [convert(base[edge])] * batch
        for lane, delta in enumerate(overrides):
            if not delta:
                continue
            for edge, value in delta.items():
                slot = edge_slots.get(edge)
                if slot is not None:
                    values[slot][lane] = convert(value)
        return self._replay_lanes(values)

    # -- batched-backend internals -------------------------------------
    def _edge_slots(self) -> Dict[Edge, int]:
        if self._edge_slot_map is None:
            self._edge_slot_map = dict(self.inputs)
        return self._edge_slot_map

    def _seed_registers(self, np, batch: int):
        """A fresh (slots × batch) register matrix with constants filled in."""
        registers = np.empty((self.num_slots, batch), dtype=float)
        for slot, value in self.consts:
            registers[slot] = float(value)
        return registers

    def _seed_lanes(self, convert, batch: int) -> List[Any]:
        """Fresh per-slot value lanes (stdlib path) with constants filled in."""
        values: List[Any] = [None] * self.num_slots
        for slot, value in self.consts:
            values[slot] = [convert(value)] * batch
        return values

    def _replay_segments(self, np, registers) -> List[float]:
        """Replay the level segments over a register matrix; returns the roots.

        One gather/compute/scatter per segment: the numpy call count scales
        with tape depth, not op count.
        """
        for opcode, dsts, lhs, rhs in self._packed_segments():
            if opcode == OP_MUL:
                registers[dsts] = registers[lhs] * registers[rhs]
            elif opcode == OP_ADD:
                registers[dsts] = registers[lhs] + registers[rhs]
            elif opcode == OP_COMPL:
                registers[dsts] = 1.0 - registers[lhs]
            else:
                registers[dsts] = registers[lhs] - registers[rhs]
        return registers[self.root].tolist()

    def _replay_lanes(self, values: List[Any]) -> List[Number]:
        """Replay the op arrays over stdlib value lanes; returns the roots."""
        for opcode, dst, a, b in zip(self.opcodes, self.dsts, self.lhs, self.rhs):
            if opcode == OP_MUL:
                values[dst] = [x * y for x, y in zip(values[a], values[b])]
            elif opcode == OP_ADD:
                values[dst] = [x + y for x, y in zip(values[a], values[b])]
            elif opcode == OP_COMPL:
                values[dst] = [1 - x for x in values[a]]
            else:
                values[dst] = [x - y for x, y in zip(values[a], values[b])]
        return list(values[self.root])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanTape(ops={self.num_ops()}, slots={self.num_slots}, "
            f"inputs={self.num_inputs()})"
        )


class TapeEvaluator:
    """Stateful tape evaluation with incremental single-edge updates.

    The tape analogue of :class:`~repro.lineage.ddnnf.CircuitEvaluator`,
    but for *every* tractable plan kind: after :meth:`bind` performs one
    full pass and keeps the register file, :meth:`update` rewrites one
    input slot and replays only the operations transitively reading it.
    The affected-op lists are discovered with one linear scan per edge and
    memoised, and because replayed ops recompute from identical operand
    values, an update stream is bitwise-identical (both backends) to
    re-running the full tape after each change.
    """

    def __init__(self, tape: PlanTape) -> None:
        self.tape = tape
        self._edge_slots: Dict[Edge, int] = dict(tape.inputs)
        self._dependents: Dict[int, Tuple[int, ...]] = {}
        self._values: Optional[List[Any]] = None
        self.context: Optional[NumericContext] = None

    def bind(
        self,
        probabilities: Mapping[Edge, Number],
        precision: Any = None,
    ) -> Number:
        """Full pass over ``probabilities``; keeps the register file."""
        context = resolve_context(precision)
        values = self.tape._load(probabilities, context)
        self.tape._run(values)
        self._values = values
        self.context = context
        return values[self.tape.root]

    def _dependent_ops(self, slot: int) -> Tuple[int, ...]:
        """Op positions transitively reading ``slot`` (memoised linear scan)."""
        cached = self._dependents.get(slot)
        if cached is not None:
            return cached
        tape = self.tape
        affected = {slot}
        positions: List[int] = []
        for index, (opcode, dst, a, b) in enumerate(
            zip(tape.opcodes, tape.dsts, tape.lhs, tape.rhs)
        ):
            if a in affected or (opcode != OP_COMPL and b in affected):
                affected.add(dst)
                positions.append(index)
        result = tuple(positions)
        self._dependents[slot] = result
        return result

    def update(self, edge: Edge, probability: Number) -> Number:
        """Set one edge's probability and replay only the ops depending on it.

        ``probability`` must already be in the bound backend's number type
        (the plan-level :meth:`repro.plan.ComponentPlan.update` converts and
        validates).  An edge the tape never reads leaves the value unchanged
        — the probability provably does not affect the result.  Returns the
        new root value.
        """
        if self._values is None:
            raise PlanError("call bind() before update()")
        slot = self._edge_slots.get(edge)
        if slot is None:
            return self._values[self.tape.root]
        values = self._values
        values[slot] = probability
        tape = self.tape
        opcodes, dsts, lhs, rhs = tape.opcodes, tape.dsts, tape.lhs, tape.rhs
        for index in self._dependent_ops(slot):
            opcode = opcodes[index]
            dst, a, b = dsts[index], lhs[index], rhs[index]
            if opcode == OP_MUL:
                values[dst] = values[a] * values[b]
            elif opcode == OP_ADD:
                values[dst] = values[a] + values[b]
            elif opcode == OP_COMPL:
                values[dst] = 1 - values[a]
            else:
                values[dst] = values[a] - values[b]
        return values[tape.root]

    def current_value(self) -> Number:
        """The root value from the last bind/update."""
        if self._values is None:
            raise PlanError("call bind() before current_value()")
        return self._values[self.tape.root]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TapeEvaluator({self.tape!r})"

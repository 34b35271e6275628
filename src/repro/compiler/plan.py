"""Evaluation plans: the sorted-equation form every scalar backend runs.

The worklist scheduler (:mod:`repro.runtime.scheduler`) runs every
reaction as a ternary-propagation fixpoint: queue, per-net fanout lists,
unknown counters.  That generality is only needed where the circuit is
*cyclic*.  A statically acyclic region — no cycle through boolean fanins
or EXPR/ACTION data dependencies — has a fixed evaluation order valid for
every instant, so it can be run as straight-line code that computes each
net exactly once, with no queue, no ternary ⊥ state and no per-reaction
allocation (sorted-equation evaluation, as in Gaffé/Ressouche/Roy's
modular Esterel compilation).

:func:`build_plan` levelizes the augmented graph (see
:func:`repro.compiler.analysis.levelize`) into that evaluation *order*
— per-net ranks, kinds and CSR adjacency — and keeps every cyclic
component as a *block*: a small set of nets the runtime relaxes to its
local fixpoint.  The build is linear: one set of fanout lists
(:func:`~repro.compiler.analysis.combinational_edges`) feeds one Kahn
pass and the fanout arrays, and every CSR array is flattened from the
per-net lists in one go.

The straight-line Python function (one assignment per net, grouped by
level, blocks embedded as calls) is *not* built by :func:`build_plan`.
:attr:`EvalPlan.source` / :attr:`EvalPlan.fn` generate and
``compile()`` it on first use, which only the engines that run it
repeatedly pay for: the levelized backend, the sparse backend on impure
plans, and :func:`~repro.compiler.compile.plan_artifact`, which ships
the marshalled code so a hydrated worker never compiles.  A sparse
machine on a pure plan runs its rare full sweeps (boot, after
reset/restore) as an interpreted rank-order sweep instead, unless the
plan already holds code.

The plan also carries CSR-style flat adjacency arrays (fanin offsets /
sources / negations, and data-dependency offsets / ids) so the runtime's
relaxation and divergence paths never chase per-net Python lists.

A plan is immutable (apart from its lazily built code) and
machine-independent: per-machine state (net values, register state,
the host object) is passed into the straight-line function on every
call, so one plan is shared by every
:class:`~repro.runtime.machine.ReactiveMachine` built from the same
compiled module.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.compiler.analysis import Levelization, combinational_edges, levelize
from repro.compiler.netlist import ACTION, AND, EXPR, INPUT, OR, REG, Circuit, Net

#: `backend="auto"` picks the levelized plan only while straight-line
#: statements dominate: once more than a quarter of the nets live inside
#: relaxation blocks, the compiled plan degenerates toward a slow
#: re-implementation of the worklist and the machine falls back to it.
AUTO_MAX_CYCLIC_FRACTION = 0.25

#: small-int net-kind codes for the sparse evaluator's dispatch
KIND_OR, KIND_AND, KIND_EXPR, KIND_ACTION, KIND_REG, KIND_INPUT = range(6)

_KIND_CODE = {
    OR: KIND_OR,
    AND: KIND_AND,
    EXPR: KIND_EXPR,
    ACTION: KIND_ACTION,
    REG: KIND_REG,
    INPUT: KIND_INPUT,
}


class EvalPlan:
    """A per-circuit compiled evaluation plan (see module docstring)."""

    __slots__ = (
        "circuit",
        "levelization",
        "registers",
        "inputs",
        "payloads",
        "blocks",
        "block_riders",
        "fanin_index",
        "fanin_src",
        "fanin_neg",
        "dep_index",
        "dep_ids",
        "_source",
        "_fn",
        "kind_code",
        "rank",
        "rank_order",
        "fanout_index",
        "fanout_ids",
        "payload_ids",
        "reg_slot",
        "latch_of_wire",
    )

    def __init__(
        self,
        circuit: Circuit,
        levelization: Levelization,
        registers: List[Net],
        inputs: List[Net],
        payloads: Tuple[Optional[Callable[..., Any]], ...],
        blocks: Tuple[Tuple[int, ...], ...],
        block_riders: Tuple[Tuple[int, ...], ...],
        fanin_index: array,
        fanin_src: array,
        fanin_neg: array,
        dep_index: array,
        dep_ids: array,
        kind_code: array,
        rank: array,
        rank_order: array,
        fanout_index: array,
        fanout_ids: array,
        payload_ids: Tuple[int, ...],
        reg_slot: Dict[int, int],
        latch_of_wire: Dict[int, Tuple[Tuple[int, bool, int], ...]],
    ):
        self.circuit = circuit
        self.levelization = levelization
        self.registers = registers
        self.inputs = inputs
        self.payloads = payloads
        self.blocks = blocks
        self.block_riders = block_riders
        self.fanin_index = fanin_index
        self.fanin_src = fanin_src
        self.fanin_neg = fanin_neg
        self.dep_index = dep_index
        self.dep_ids = dep_ids
        #: the straight-line function and its source, built on first use
        #: (see :attr:`source` / :attr:`fn`)
        self._source: Optional[str] = None
        self._fn: Optional[Callable[..., bool]] = None
        #: per-net small-int kind (KIND_OR..KIND_INPUT), for sparse dispatch
        self.kind_code = kind_code
        #: per-net position in the straight-line evaluation order
        self.rank = rank
        #: net ids in straight-line order (the inverse permutation of
        #: ``rank``), for the sparse evaluator's tail-scan bailout
        self.rank_order = rank_order
        #: CSR forward adjacency (fanins + data deps), for dirty propagation
        self.fanout_index = fanout_index
        self.fanout_ids = fanout_ids
        #: ids of every EXPR/ACTION net (the payload-bearing nets)
        self.payload_ids = payload_ids
        #: REG net id -> register state slot
        self.reg_slot = reg_slot
        #: register input wire -> ((slot, negated, reg_net_id), ...)
        self.latch_of_wire = latch_of_wire

    # -- straight-line code ----------------------------------------------

    @property
    def source(self) -> str:
        """The generated straight-line reaction function (see
        :func:`_generate_source`), built on first use."""
        if self._source is None:
            self._source = _generate_source(self)
        return self._source

    @property
    def fn(self) -> Callable[..., bool]:
        """:attr:`source` compiled, built on first use.  Engines bind it
        once per machine; a sparse machine on a pure plan never asks."""
        if self._fn is None:
            namespace: Dict[str, Any] = {}
            exec(compile(self.source, f"<plan:{self.circuit.name}>", "exec"), namespace)
            self._fn = namespace["__plan_react__"]
        return self._fn

    @property
    def has_code(self) -> bool:
        """True once :attr:`fn` exists (built here, or shipped in an
        artifact); reading it builds nothing."""
        return self._fn is not None

    # -- serialization ------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Closure-free state for plan artifacts.

        ``payloads`` (closures over host scopes) cannot be pickled; they
        are restored by :meth:`rebind` once the carrying circuit's
        payload closures have been rebuilt from their relink specs.  The
        straight-line function ships as a marshalled code object (built
        here if no engine has asked for it yet): a hydrated worker then
        never ``compile()``s, which dominates cold start otherwise.  The
        source does not ship — if the reading interpreter cannot load the
        code, :attr:`fn` regenerates it from the plan on first use."""
        import marshal

        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("payloads", "_fn", "_source")
        }
        try:
            state["__code__"] = marshal.dumps(self.fn.__code__)
        except Exception:
            pass
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        code_bytes = state.pop("__code__", None)
        # payloads from older releases: the eager source, and the sparse
        # fanout cones the plan no longer keeps
        self._source = state.pop("source", None)
        state.pop("cones", None)
        state.pop("cone_sizes", None)
        for name, value in state.items():
            setattr(self, name, value)
        self.payloads = ()
        self._fn = None
        if code_bytes is not None:
            import marshal
            import types

            try:
                self._fn = types.FunctionType(
                    marshal.loads(code_bytes), {}, "__plan_react__"
                )
            except Exception:
                self._fn = None

    def rebind(self, circuit: Circuit) -> "EvalPlan":
        """Re-attach the plan to ``circuit`` (the same netlist, typically
        the unpickled copy whose payloads were just rebuilt) and refresh
        the payload table from it."""
        self.circuit = circuit
        self.payloads = tuple(net.payload for net in circuit.nets)
        return self

    # -- selection ----------------------------------------------------------

    @property
    def net_count(self) -> int:
        """Total nets one full sweep evaluates — the natural unit for
        reaction-deadline budgets (``ReactiveMachine``'s ``"auto"``
        budget is a multiple of this, so a budget always admits the
        plan's own full sweep and trips only on genuinely runaway
        instants: unbounded deferred-reaction chains or pathological
        relaxation)."""
        return len(self.circuit.nets)

    @property
    def is_pure(self) -> bool:
        """True when the whole reaction is straight-line (no blocks):
        the sparse dirty-cone mode can run it.  Relaxation blocks always
        take the full sweep, so impure plans gain nothing from change
        tracking."""
        return not self.blocks

    @property
    def cyclic_net_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    @property
    def auto_eligible(self) -> bool:
        """Should ``backend="auto"`` pick this plan over the worklist?"""
        return self.cyclic_net_count <= AUTO_MAX_CYCLIC_FRACTION * len(
            self.circuit.nets
        )

    # -- introspection ------------------------------------------------------

    def describe(self) -> Dict[str, int]:
        return {
            "nets": len(self.circuit.nets),
            "levels": self.levelization.depth,
            "straightline_nets": len(self.circuit.nets) - self.cyclic_net_count,
            "cyclic_nets": self.cyclic_net_count,
            "blocks": len(self.blocks),
        }

    def memory_estimate(self) -> int:
        """Rough size in bytes of the shared plan data (CSR arrays, rank
        and kind tables, the generated source once built).
        This is paid once per compiled module, however many machines
        share the plan.  Builds nothing: a stats scrape must not trigger
        the straight-line code build."""
        import sys

        total = 0
        for name in ("fanin_index", "fanin_src", "fanin_neg", "dep_index",
                     "dep_ids", "kind_code", "rank", "rank_order",
                     "fanout_index", "fanout_ids"):
            total += sys.getsizeof(getattr(self, name))
        if self._source is not None:
            total += sys.getsizeof(self._source)
        total += sys.getsizeof(self.payload_ids)
        total += sys.getsizeof(self.reg_slot)
        return total

    def __repr__(self) -> str:
        d = self.describe()
        return (
            f"EvalPlan({self.circuit.name}, {d['nets']} nets, "
            f"{d['levels']} levels, {d['blocks']} cyclic blocks)"
        )


def _csr(lists: List[List[Any]]) -> Tuple[array, List[Any]]:
    """CSR offsets of per-net ``lists`` (``offsets[i]:offsets[i + 1]``
    spans net *i*), and their concatenation."""
    return (
        array("l", accumulate(map(len, lists), initial=0)),
        list(chain.from_iterable(lists)),
    )


def _literal(src: int, neg: bool) -> str:
    return f"not V[{src}]" if neg else f"V[{src}]"


def _emit_statement(
    net: Net, reg_slot: Dict[int, int], out: List[str], guarded: bool = False
) -> None:
    """One straight-line statement computing ``net`` exactly once.

    ``guarded`` nets are *riders* of a relaxation block (see
    :func:`build_plan`): the block may already have fired them, so their
    statement re-runs only while the value is still unknown — payloads
    are stateful and must not fire twice.
    """
    i = net.id
    kind = net.kind
    body: List[str] = []
    if kind == REG:
        body.append(f"    V[{i}] = S[{reg_slot[i]}]")
    elif kind == INPUT:
        body.append(f"    V[{i}] = G({i}, False)")
    elif kind == OR:
        if net.inputs:
            body.append(f"    V[{i}] = " + " or ".join(_literal(s, n) for s, n in net.inputs))
        else:
            body.append(f"    V[{i}] = False")
    elif kind == AND:
        if net.inputs:
            body.append(f"    V[{i}] = " + " and ".join(_literal(s, n) for s, n in net.inputs))
        else:
            body.append(f"    V[{i}] = True")
    elif kind == EXPR:
        enable = _literal(*net.inputs[0])
        body.append(f"    V[{i}] = bool(P[{i}](host)) if {enable} else False")
    elif kind == ACTION:
        enable = _literal(*net.inputs[0])
        body.append(f"    if {enable}:")
        body.append(f"        P[{i}](host)")
        body.append(f"        V[{i}] = True")
        body.append("    else:")
        body.append(f"        V[{i}] = False")
    else:  # pragma: no cover - exhaustive over net kinds
        raise AssertionError(f"unknown net kind {kind!r}")
    if guarded:
        out.append(f"    if V[{i}] is None:")
        out.extend("    " + line for line in body)
    else:
        out.extend(body)


def _generate_source(plan: EvalPlan) -> str:
    """The straight-line reaction function, one assignment per net in
    ``plan.rank_order``.

    Signature: ``f(V, S, P, host, G, B) -> bool`` with ``V`` the values
    list, ``S`` the register state, ``P`` the payload table, ``G``
    ``input_values.get`` and ``B`` the per-machine block runners.
    Returns False when a block failed to converge (the runtime then
    finishes the least fixpoint and reports the causality error).
    """
    circuit = plan.circuit
    levels = plan.levelization.levels
    reg_slot = plan.reg_slot
    blocks = plan.blocks
    # a block's members hold consecutive ranks, its head first
    block_at: Dict[int, int] = {members[0]: k for k, members in enumerate(blocks)}
    block_members = {net_id for members in blocks for net_id in members}
    riders = {net_id for members in plan.block_riders for net_id in members}
    lines: List[str] = ["def __plan_react__(V, S, P, host, G, B):"]
    current_level = -1
    for net_id in plan.rank_order:
        if net_id in block_members:
            if net_id in block_at:
                k = block_at[net_id]
                lines.append(f"    # -- cyclic block {k} "
                             f"({len(blocks[k])} nets, level {levels[net_id]}) --")
                lines.append(f"    if not B[{k}]():")
                lines.append("        return False")
            continue
        level = levels[net_id]
        if level != current_level:
            lines.append(f"    # -- level {level} --")
            current_level = level
        _emit_statement(circuit.nets[net_id], reg_slot, lines, guarded=net_id in riders)
    lines.append("    # -- latch registers --")
    for net_id, slot in reg_slot.items():
        src, neg = circuit.nets[net_id].inputs[0]
        lines.append(f"    S[{slot}] = {_literal(src, neg)}")
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def build_plan(circuit: Circuit) -> EvalPlan:
    """Levelize ``circuit`` into its evaluation plan (the straight-line
    code is built lazily, see :attr:`EvalPlan.fn`).

    Always succeeds: cyclic components become relaxation blocks rather
    than failures.  Check :attr:`EvalPlan.is_pure` /
    :attr:`EvalPlan.auto_eligible` for backend policy.
    """
    nets = circuit.nets
    edges = combinational_edges(circuit)
    lev = levelize(circuit, edges)
    levels = lev.levels
    registers = [net for net in nets if net.kind == REG]
    inputs = [net for net in nets if net.kind == INPUT]
    reg_slot = {net.id: slot for slot, net in enumerate(registers)}
    payloads = tuple(net.payload for net in nets)
    blocks: Tuple[Tuple[int, ...], ...] = tuple(
        tuple(sorted(members)) for members in lev.cyclic
    )

    # -- the evaluation order ------------------------------------------------
    # Levels strictly increase along augmented edges, so components on the
    # same level are independent and any within-level order is valid.  Use
    # net-id (creation) order: the worklist fires simultaneously-enabled
    # actions in fanout (creation) order, and host-side effects that are
    # ordered only by that convention — e.g. the frame-var Assign an
    # inlined `run` prepends ahead of readers of the bound var — must
    # observe the same order in every engine that walks ``rank_order``
    # (the straight-line code, the sparse sweeps, the word plan).  A block
    # sorts by its head (its smallest id); the sort is stable, so its
    # members follow the head contiguously, in id order.
    n = len(nets)
    head = list(range(n))
    block_of: Dict[int, int] = {}
    for k, members in enumerate(blocks):
        for net_id in members:
            head[net_id] = members[0]
            block_of[net_id] = k
    key = [level * n + h for level, h in zip(levels, head)]
    order = sorted(range(n), key=key.__getitem__)
    rank_order = array("l", order)
    rank = array("l", sorted(range(n), key=order.__getitem__))
    payload_ids = tuple(
        net.id for net in nets if net.kind == EXPR or net.kind == ACTION
    )

    # Riders: acyclic EXPR/ACTION nets whose enable wire lives inside a
    # cyclic block.  The worklist fires payloads the moment their enable
    # settles, walking the wire's fanout in creation order — so a payload
    # enabled from *inside* a block can be interleaved with (and ordered
    # before, by net id) the block's own payloads.  Host-side effects
    # ordered only by that convention (frame-var assignment atoms vs.
    # their readers) need the same interleaving here: riders join the
    # block's relaxation sweep, and their straight-line statement becomes
    # a no-op when the block already fired them (``guarded`` emission).
    rider_lists: List[List[int]] = [[] for _ in blocks]
    for net_id in payload_ids:
        enable = nets[net_id].inputs[0][0]
        if enable in block_of and net_id not in block_of:
            rider_lists[block_of[enable]].append(net_id)
    block_riders: Tuple[Tuple[int, ...], ...] = tuple(
        tuple(ids) for ids in rider_lists
    )

    # -- CSR adjacency, flattened from the per-net lists ---------------------
    fanin_index, fanins = _csr([net.inputs for net in nets])
    fanin_src = array("l", map(itemgetter(0), fanins))
    fanin_neg = array("b", map(itemgetter(1), fanins))
    dep_index, deps = _csr([net.deps for net in nets])
    dep_ids = array("l", deps)
    fanout_index, fanouts = _csr(edges)
    fanout_ids = array("l", fanouts)
    kind_code = array("b", [_KIND_CODE[net.kind] for net in nets])
    latch_lists: Dict[int, List[Tuple[int, bool, int]]] = {}
    for slot, reg in enumerate(registers):
        src, neg = reg.inputs[0]
        latch_lists.setdefault(src, []).append((slot, neg, reg.id))
    latch_of_wire = {wire: tuple(items) for wire, items in latch_lists.items()}

    return EvalPlan(
        circuit,
        lev,
        registers,
        inputs,
        payloads,
        blocks,
        block_riders,
        fanin_index,
        fanin_src,
        fanin_neg,
        dep_index,
        dep_ids,
        kind_code,
        rank,
        rank_order,
        fanout_index,
        fanout_ids,
        payload_ids,
        reg_slot,
        latch_of_wire,
    )

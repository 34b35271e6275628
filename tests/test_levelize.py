"""The linear-time evaluation plan against a textbook reference.

:func:`~repro.compiler.plan.build_plan` orders the circuit with one
Kahn pass, runs Tarjan only when Kahn cannot order every net, and flattens
its CSR arrays from the per-net lists in one go.  This file rebuilds
every plan field the slow, obvious way — Tarjan over the whole circuit,
longest-path levels over its condensation, per-element appends — and
requires the same plan, byte for byte the same straight-line source and
the same cycle warnings on:

* the flat Skini score, and the linked and inlined modular scores;
* every ``tests/corpus/`` program;
* fuzz-generated programs, link on and off;
* random raw circuits, most of them cyclic, with self-loops.

Plan artifacts written by earlier releases, which still carry the
sparse fanout cones and the levelization's component order, must
hydrate and run.
"""

from __future__ import annotations

import os
import random
from array import array

import pytest

from benchmarks.workloads import modular_score_source
from repro import CompileOptions, ReactiveMachine, compile_module, parse_module, parse_program
from repro.apps.skini.score import generate_score_source, make_large_score
from repro.compiler import analysis
from repro.compiler.analysis import Levelization, cycle_warnings
from repro.compiler.compile import clear_hydrate_cache, hydrate_plan_artifact, plan_artifact
from repro.compiler.link import clear_link_cache
from repro.compiler.netlist import ACTION, AND, EXPR, INPUT, OR, REG, Circuit
from repro.compiler.plan import EvalPlan, build_plan
from repro.fuzz import corpus
from repro.fuzz.gen import generate_program
from tests.test_fuzz import CORPUS_PATHS

KIND_CODE = {OR: 0, AND: 1, EXPR: 2, ACTION: 3, REG: 4, INPUT: 5}


# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------


def ref_edges(circuit):
    edges = {net.id: [] for net in circuit.nets}
    for net in circuit.nets:
        if net.kind in (REG, INPUT):
            continue
        for src, _neg in net.inputs:
            edges[src].append(net.id)
        for dep in net.deps:
            edges[dep].append(net.id)
    return edges


def ref_tarjan(edges):
    """Tarjan over every net, roots in id order: components sinks first,
    members in stack-pop order."""
    index, low, on_stack, stack, out = {}, {}, set(), [], []
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(edges[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    out.append(component)
    return out


def reference(circuit):
    """Every plan field, the cycle warnings, and the plan's source."""
    nets = circuit.nets
    edges = ref_edges(circuit)
    sccs = ref_tarjan(edges)

    def is_cyclic(component):
        return len(component) > 1 or component[0] in edges[component[0]]

    components = [sorted(c) for c in reversed(sccs)]
    comp_of = {i: k for k, c in enumerate(components) for i in c}
    levels = [0] * len(nets)
    comp_level = [0] * len(components)
    for k, component in enumerate(components):
        for i in component:
            levels[i] = comp_level[k]
            for succ in edges[i]:
                if comp_of[succ] != k:
                    comp_level[comp_of[succ]] = max(comp_level[comp_of[succ]], comp_level[k] + 1)
    blocks = tuple(tuple(c) for c in components if is_cyclic(c))
    rank_order = [
        i for c in sorted(components, key=lambda c: (levels[c[0]], c[0])) for i in c
    ]
    rank = [0] * len(nets)
    for position, i in enumerate(rank_order):
        rank[i] = position
    block_of = {i: k for k, members in enumerate(blocks) for i in members}
    riders = [[] for _ in blocks]
    for net in nets:
        if net.kind in (EXPR, ACTION) and net.id not in block_of and net.inputs[0][0] in block_of:
            riders[block_of[net.inputs[0][0]]].append(net.id)
    fanin_index, fanin_src, fanin_neg = array("l", [0]), array("l"), array("b")
    dep_index, dep_ids = array("l", [0]), array("l")
    fanout_index, fanout_ids = array("l", [0]), array("l")
    for net in nets:
        for src, neg in net.inputs:
            fanin_src.append(src)
            fanin_neg.append(1 if neg else 0)
        fanin_index.append(len(fanin_src))
        for dep in net.deps:
            dep_ids.append(dep)
        dep_index.append(len(dep_ids))
        for succ in edges[net.id]:
            fanout_ids.append(succ)
        fanout_index.append(len(fanout_ids))
    registers = [net for net in nets if net.kind == REG]
    latch_of_wire = {}
    for slot, reg in enumerate(registers):
        src, neg = reg.inputs[0]
        latch_of_wire.setdefault(src, []).append((slot, neg, reg.id))
    fields = {
        "levels": levels,
        "blocks": blocks,
        "block_riders": tuple(tuple(r) for r in riders),
        "rank_order": array("l", rank_order),
        "rank": array("l", rank),
        "fanin_index": fanin_index,
        "fanin_src": fanin_src,
        "fanin_neg": fanin_neg,
        "dep_index": dep_index,
        "dep_ids": dep_ids,
        "fanout_index": fanout_index,
        "fanout_ids": fanout_ids,
        "kind_code": array("b", [KIND_CODE[net.kind] for net in nets]),
        "payload_ids": tuple(net.id for net in nets if net.kind in (EXPR, ACTION)),
        "reg_slot": {net.id: slot for slot, net in enumerate(registers)},
        "latch_of_wire": {w: tuple(items) for w, items in latch_of_wire.items()},
        "registers": [net.id for net in registers],
        "inputs": [net.id for net in nets if net.kind == INPUT],
    }
    warnings = []
    for cycle in (c for c in sccs if is_cyclic(c)):
        members = ", ".join(nets[i].describe() for i in cycle[:6])
        suffix = ", ..." if len(cycle) > 6 else ""
        warnings.append(f"possible causality cycle through {len(cycle)} nets: {members}{suffix}")
    plan = EvalPlan(
        circuit, Levelization(levels, [list(b) for b in blocks]),
        registers, [net for net in nets if net.kind == INPUT],
        tuple(net.payload for net in nets), fields["blocks"], fields["block_riders"],
        fanin_index, fanin_src, fanin_neg, dep_index, dep_ids, fields["kind_code"],
        fields["rank"], fields["rank_order"], fanout_index, fanout_ids,
        fields["payload_ids"], fields["reg_slot"], fields["latch_of_wire"],
    )
    return fields, warnings, plan.source


def observed(plan):
    fields = {}
    for name in ("blocks", "block_riders", "rank_order", "rank", "fanin_index",
                 "fanin_src", "fanin_neg", "dep_index", "dep_ids", "fanout_index",
                 "fanout_ids", "kind_code", "payload_ids", "reg_slot", "latch_of_wire"):
        fields[name] = getattr(plan, name)
    fields["levels"] = plan.levelization.levels
    fields["registers"] = [net.id for net in plan.registers]
    fields["inputs"] = [net.id for net in plan.inputs]
    return fields


def assert_matches_reference(circuit):
    """Returns the plan's cyclic net count."""
    plan = build_plan(circuit)
    want, warnings, source = reference(circuit)
    got = observed(plan)
    for name, value in want.items():
        if isinstance(value, array):
            assert got[name].typecode == value.typecode, name
        elif isinstance(value, dict):
            assert list(got[name].items()) == list(value.items()), name
        assert got[name] == value, name
    assert cycle_warnings(circuit) == warnings
    assert plan.source == source
    assert plan.levelization.depth == (1 + max(want["levels"]) if want["levels"] else 0)
    return plan.cyclic_net_count


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------


def _compile(source, entry, **options):
    clear_link_cache()
    table = parse_program(source)
    return compile_module(table.get(entry), table, CompileOptions(**options))


def skini_score():
    score = make_large_score(60, 5, 6)
    table = parse_program(generate_score_source(score))
    return compile_module(list(table)[-1], table, CompileOptions())


SCORES = {
    "skini": skini_score,
    "modular-linked": lambda: _compile(modular_score_source(64, 2), "Score", link=True),
    "modular-inlined": lambda: _compile(modular_score_source(64, 2), "Score"),
}


@pytest.mark.parametrize("name", sorted(SCORES))
def test_scores_match_reference(name):
    compiled = SCORES[name]()
    assert len(compiled.circuit.nets) > 5000
    assert assert_matches_reference(compiled.circuit) == 0


@pytest.mark.parametrize("path", CORPUS_PATHS, ids=[os.path.basename(p) for p in CORPUS_PATHS])
@pytest.mark.parametrize("link", [False, True])
def test_corpus_programs_match_reference(path, link):
    program, _ = corpus.load_corpus_case(path)
    clear_link_cache()
    compiled = compile_module(program.main, program.table(), CompileOptions(link=link))
    assert_matches_reference(compiled.circuit)


@pytest.mark.parametrize("chunk", range(4))
def test_fuzz_programs_match_reference(chunk):
    cyclic = 0
    for seed in range(chunk * 20, chunk * 20 + 20):
        program = generate_program(seed)
        for link in (False, True):
            for optimize in (True, False):
                clear_link_cache()
                compiled = compile_module(
                    program.main, program.table(), CompileOptions(link=link, optimize=optimize)
                )
                cyclic += assert_matches_reference(compiled.circuit) > 0
    assert cyclic, "the chunk must include cyclic plans"


CYCLIC_SOURCES = [
    "module Paradox(out X) { if (!X.now) { emit X } }",
    """module Cyc(in I, out X, out Y) {
         loop { fork { if (Y.now) { emit X } } par { if (X.now || I.now) { emit Y } } yield }
       }""",
    """module Ring(in I, out X, out Y, out Z) {
         loop {
           fork { if (Y.now) { emit X } } par { if (X.now) { emit Z } }
           par { if (Z.now || I.now) { emit Y } } par { if (!Z.now) { emit Y } }
           yield
         }
       }""",
]


@pytest.mark.parametrize("source", CYCLIC_SOURCES, ids=["paradox", "cyc", "ring"])
@pytest.mark.parametrize("optimize", [True, False])
def test_cyclic_programs_match_reference(source, optimize):
    compiled = compile_module(parse_module(source), None, CompileOptions(optimize=optimize))
    cyclic = assert_matches_reference(compiled.circuit)
    assert compiled.warnings == cycle_warnings(compiled.circuit)
    assert bool(cyclic) == bool(compiled.warnings)
    if not optimize:
        assert cyclic


def raw_circuit(seed):
    """A random netlist: gates, registers, inputs, EXPR/ACTION nets with
    data deps, wired at random — forward edges, cycles and self-loops
    (registers latching their own output too)."""
    rng = random.Random(seed)
    circuit = Circuit(f"raw{seed}")
    size = rng.randint(1, 80)
    for _ in range(size):
        kind = rng.choice((INPUT, REG, OR, OR, AND, AND, EXPR, ACTION))
        if kind == INPUT:
            circuit.input_net("i")
        elif kind == REG:
            circuit.register("r", init=rng.random() < 0.5)
        else:
            circuit.gate_or((), kind).kind = kind

    def literal():
        return (rng.randrange(size), rng.random() < 0.3)

    for net in circuit.nets:
        if net.kind == REG:
            net.inputs = [literal()]
        elif net.kind in (OR, AND):
            net.inputs = [literal() for _ in range(rng.randint(0, 3))]
        elif net.kind in (EXPR, ACTION):
            net.inputs = [literal()]
            net.deps = [rng.randrange(size) for _ in range(rng.randint(0, 2))]
    return circuit


def test_raw_circuits_match_reference():
    seen = {"acyclic": 0, "cyclic": 0, "self_loop": 0, "register_self_loop": 0}
    for seed in range(400):
        circuit = raw_circuit(seed)
        cyclic = assert_matches_reference(circuit)
        seen["cyclic" if cyclic else "acyclic"] += 1
        for net in circuit.nets:
            sources = [src for src, _ in net.inputs] + net.deps
            if net.id in sources:
                seen["register_self_loop" if net.kind == REG else "self_loop"] += 1
    assert all(seen.values()), seen


def test_register_latching_itself_is_no_cycle():
    """A register's own input is latched, not a combinational edge."""
    circuit = Circuit("hold")
    reg = circuit.register("r", init=True)
    reg.inputs = [(reg.id, False)]
    circuit.gate_or([(reg.id, False)], "o")
    plan = build_plan(circuit)
    assert plan.is_pure and plan.levelization.levels == [0, 1]
    assert plan.latch_of_wire == {reg.id: ((0, False, reg.id),)}
    assert cycle_warnings(circuit) == []
    assert assert_matches_reference(circuit) == 0


def test_acyclic_circuits_run_no_tarjan(monkeypatch):
    """Kahn orders an acyclic circuit on its own: neither the plan nor the
    cycle check reaches Tarjan."""
    compiled = SCORES["modular-inlined"]()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("Tarjan ran on an acyclic circuit")

    monkeypatch.setattr(analysis, "strongly_connected_components", forbidden)
    assert build_plan(compiled.circuit).is_pure
    assert cycle_warnings(compiled.circuit) == []


# ---------------------------------------------------------------------------
# artifacts written before the cones were dropped
# ---------------------------------------------------------------------------


WORKER = """
module Worker(in T, in R, out O) {
  loop { await count(2, T.now); emit O; await R.now }
}
module Score(in T, in R, out O) {
  fork { run Worker(...); } par { run Worker(...); } par { run Worker(...); }
}
"""


def _trace(compiled):
    machine = ReactiveMachine(compiled, backend="sparse")
    trace = [sorted(machine.react({"T": i % 3 != 0, "R": i % 4 == 0} if i else {}))
             for i in range(24)]
    return trace, machine.state_digest()


def test_artifact_with_cones_hydrates(monkeypatch):
    """Payloads from earlier releases carry ``cones`` / ``cone_sizes`` on
    the plan and an ``order`` slot on its levelization; hydration drops
    them and the machine runs as a fresh compile does."""
    table = parse_program(WORKER)
    options = CompileOptions(link=True)
    current = EvalPlan.__getstate__

    def old_plan_state(plan):
        state = current(plan)
        state["cones"] = {net.id: 1 << net.id for net in plan.registers + plan.inputs}
        state["cone_sizes"] = {net.id: 1 for net in plan.registers + plan.inputs}
        return state

    def old_levelization_state(lev):
        order = [[i] for i in range(len(lev.levels))]
        return (None, {"order": order, "levels": lev.levels, "cyclic": lev.cyclic})

    clear_link_cache()
    clear_hydrate_cache()
    with monkeypatch.context() as patch:
        patch.setattr(EvalPlan, "__getstate__", old_plan_state)
        patch.setattr(Levelization, "__getstate__", old_levelization_state, raising=False)
        blob = plan_artifact(table.get("Score"), table, options)
    assert b"cone_sizes" in blob and b"order" in blob

    clear_hydrate_cache()
    hydrated = hydrate_plan_artifact(blob)
    plan = hydrated.evaluation_plan()
    assert not hasattr(plan, "cones") and not hasattr(plan.levelization, "order")
    assert plan.has_code
    clear_link_cache()
    fresh = compile_module(table.get("Score"), table, options)
    assert _trace(hydrated) == _trace(fresh)
    clear_hydrate_cache()

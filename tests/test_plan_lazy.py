"""Lazy plan code: who builds the straight-line function, and the
interpreted full sweep that replaces it on sparse machines.

``build_plan`` produces only the evaluation order; ``EvalPlan.source`` /
``EvalPlan.fn`` are generated and ``compile()``d on first use.  A sparse
machine on a pure plan runs its full sweeps (boot, after ``reset()`` /
``restore()``) interpreted in rank order unless the plan already holds
code.  These tests pin both halves:

* equivalence — a sparse machine with no plan code and one bound to the
  compiled sweep agree exactly (outputs, net values, register state,
  ``_hot``, ``_dirty_regs`` and the order of host effects) on the flat
  Skini score, a linked modular score, the corpus programs and generated
  programs, across the boot, reset, restore, over-budget and
  raising-payload sweeps;
* laziness — sparse machines compiled from source never build code,
  levelized machines build it exactly once per plan, artifacts ship it,
  and stats never force it.
"""

import builtins

import pytest

from repro import CompileOptions, ReactiveMachine, compile_module, parse_program
from repro.apps.pillbox import PillboxApp
from repro.apps.skini.score import generate_score_source, make_large_score
from repro.compiler import plan as plan_mod
from repro.compiler.compile import (
    clear_hydrate_cache,
    hydrate_plan_artifact,
    plan_artifact,
)
from repro.compiler.link import clear_link_cache
from repro.errors import ReactionBudgetExceeded, ShardError
from repro.fuzz import corpus
from repro.fuzz.gen import HOST_GLOBALS, generate_program
from repro.runtime.fleet import MachineFleet
from repro.runtime.journal import MemoryJournal
from tests.test_fuzz import CORPUS_PATHS


class Bomb(Exception):
    """Raised by an armed payload to abort a sweep mid-way."""


def _modular_source(instances: int) -> str:
    """A score of ``instances`` parallel ``run Worker(...)`` sites over a
    worker with locals, a counted await and a trap over a fork."""
    worker = """
module Worker(in T, in R, out O, out P) {
  loop {
    signal L1, L2;
    W: {
      fork {
        await count(3, T.now);
        emit L1;
      } par {
        loop {
          if (R.now) { emit L2; }
          await T.now;
        }
      } par {
        await L1.now;
        break W;
      }
    }
    emit O;
    if (L2.pre) { emit P; }
    await R.now;
  }
}
"""
    runs = "\n  } par {\n".join("    run Worker(...);" for _ in range(instances))
    return worker + f"module Score(in T, in R, out O, out P) {{\n  fork {{\n{runs}\n  }}\n}}\n"


def _modular_inputs(i):
    inputs = {}
    if i % 7:
        inputs["T"] = True
    if i % 3 == 0:
        inputs["R"] = True
    return inputs


def modular_case(link=True):
    table = parse_program(_modular_source(8))
    clear_link_cache()
    compiled = compile_module(table.get("Score"), table, CompileOptions(link=link))
    return compiled, {}, _modular_inputs


def skini_case():
    score = make_large_score(4, 5, 6)
    groups = [group.input_signal for group in score.groups]
    table = parse_program(generate_score_source(score))
    entry = list(table)[-1]
    compiled = compile_module(entry, table, CompileOptions())
    host_globals = {"andBool": lambda a, b: bool(a and b)}

    def inputs(i):
        base = 5 * ((max(i, 1) - 1) // 30) % len(groups)
        return {
            "seconds": i,
            "second": True,
            groups[base + i % 5]: f"pat{i}",
            groups[base + (i + 2) % 5]: f"pat{i}",
        }

    return compiled, host_globals, inputs


def _program_case(program):
    table = program.table()
    compiled = compile_module(program.main, table, CompileOptions())
    names = program.input_names()

    def inputs(i):
        return {name: i for k, name in enumerate(names) if (i + k) % 3 == 0}

    return compiled, dict(HOST_GLOBALS), inputs


def corpus_cases():
    cases = [_program_case(corpus.load_corpus_case(path)[0]) for path in CORPUS_PATHS]
    return [case for case in cases if case[0].evaluation_plan().is_pure]


def generated_cases(seeds=range(12)):
    cases = [_program_case(generate_program(seed)) for seed in seeds]
    return [case for case in cases if case[0].evaluation_plan().is_pure]


# ---------------------------------------------------------------------------
# the interpreted / compiled pair
# ---------------------------------------------------------------------------


class Pair:
    """Two sparse machines over one compiled module: ``interp`` built
    while the plan held no code, ``comp`` after the code was built.
    Every payload call is logged per machine, and can be armed to raise."""

    def __init__(self, compiled, host_globals):
        self.plan = plan = compiled.evaluation_plan()
        assert plan.is_pure
        self.log = {}
        self.armed = {}  # machine id -> payload calls left before Bomb
        payloads = plan.payloads

        def recorded(net_id, payload):
            def run(host):
                key = id(host)
                left = self.armed.get(key)
                if left is not None:
                    if left == 0:
                        del self.armed[key]
                        raise Bomb(net_id)
                    self.armed[key] = left - 1
                self.log.setdefault(key, []).append(net_id)
                return payload(host)

            return run

        plan.payloads = tuple(
            None if p is None else recorded(i, p) for i, p in enumerate(payloads)
        )
        self.interp = ReactiveMachine(compiled, backend="sparse", host_globals=host_globals)
        assert self.interp._scheduler._fn is None
        assert not plan.has_code
        plan.fn  # noqa: B018 - build the code
        self.comp = ReactiveMachine(compiled, backend="sparse", host_globals=host_globals)
        assert self.comp._scheduler._fn is plan.fn
        self.machines = (self.interp, self.comp)

    def effects(self, machine):
        return self.log.pop(id(machine), [])

    def observe(self, machine, outcome):
        s = machine._scheduler
        return {
            "outcome": outcome,
            "values": list(s.values),
            "state": list(s.state),
            "hot": sorted(s._hot),
            "dirty_regs": list(s._dirty_regs),
            "effects": self.effects(machine),
            "need_full": s._need_full,
            "queued_clear": not any(s._queued),
        }

    def step(self, inputs, **kwargs):
        """React both machines; assert identical observations."""
        seen = []
        for machine in self.machines:
            try:
                result = machine.react(dict(inputs), **kwargs)
                outcome = (dict(result), result.paused, result.terminated)
            except Exception as err:  # compared, not swallowed
                outcome = (type(err).__name__, str(err))
            seen.append(self.observe(machine, outcome))
        assert seen[0] == seen[1]
        return seen[0]

    def full_reactions(self):
        return [m._scheduler.full_reactions for m in self.machines]


def all_cases():
    return [
        ("skini", skini_case),
        ("modular-linked", lambda: modular_case(True)),
        ("modular-inlined", lambda: modular_case(False)),
    ]


@pytest.mark.parametrize("name,make", all_cases(), ids=[n for n, _ in all_cases()])
def test_interpreted_sweep_matches_compiled_on_scores(name, make):
    _drive_all_sweeps(*make())


def test_interpreted_sweep_matches_compiled_on_corpus():
    cases = corpus_cases()
    assert cases, "no corpus program has a pure plan"
    for case in cases:
        _drive_all_sweeps(*case)


def test_interpreted_sweep_matches_compiled_on_generated_programs():
    cases = generated_cases()
    assert len(cases) >= 4
    for case in cases:
        _drive_all_sweeps(*case)


def _drive_all_sweeps(compiled, host_globals, inputs):
    pair = Pair(compiled, host_globals)
    interp, comp = pair.machines

    # boot, then a run of (mostly sparse) reactions
    pair.step(inputs(0))
    assert pair.full_reactions() == [1, 1]
    for i in range(1, 16):
        pair.step(inputs(i))
    snap = interp.snapshot()
    assert snap == comp.snapshot()
    for i in range(16, 48):
        pair.step(inputs(i))

    # reset: the next reaction is a full sweep from the boot registers
    before = pair.full_reactions()
    for machine in pair.machines:
        machine.reset()
    pair.step(inputs(0))
    assert pair.full_reactions() == [n + 1 for n in before]
    for i in range(1, 6):
        pair.step(inputs(i))

    # restore: a full sweep from the snapshot's registers
    before = pair.full_reactions()
    for machine in pair.machines:
        machine.restore(snap)
    pair.step(inputs(16))
    assert pair.full_reactions() == [n + 1 for n in before]
    for i in range(17, 20):
        pair.step(inputs(i))

    # an over-budget full sweep aborts before any payload fires or any
    # register latches
    for machine in pair.machines:
        machine.reset()
    states = [list(m._scheduler.state) for m in pair.machines]
    outcome = pair.step(inputs(0), budget=len(compiled.circuit.nets) - 1)
    assert outcome["outcome"][0] == ReactionBudgetExceeded.__name__
    assert outcome["effects"] == []
    assert [list(m._scheduler.state) for m in pair.machines] == states
    assert outcome["need_full"]
    pair.step(inputs(0))
    for i in range(1, 4):
        pair.step(inputs(i))

    # a payload raising halfway through the boot sweep: same effects up
    # to the raise, no register latched, the next reaction full, no
    # queued marker stale
    for machine in pair.machines:
        machine.reset()
    calls = len(pair.step(inputs(0))["effects"])
    for machine in pair.machines:
        machine.reset()
    states = [list(m._scheduler.state) for m in pair.machines]
    if calls:
        for machine in pair.machines:
            pair.armed[id(machine)] = calls // 2
        outcome = pair.step(inputs(0))
        assert outcome["outcome"][0] == Bomb.__name__
        assert len(outcome["effects"]) == calls // 2
        assert [list(m._scheduler.state) for m in pair.machines] == states
        assert outcome["need_full"] and outcome["queued_clear"]
        before = pair.full_reactions()
        pair.step(inputs(0))
        assert pair.full_reactions() == [n + 1 for n in before]
    for i in range(1, 8):
        pair.step(inputs(i))


def test_raising_payload_mid_sweep_on_skini():
    """The raise case must actually fire on a real score (the generic
    driver tolerates programs whose boot sweep fires too few payloads)."""
    compiled, host_globals, inputs = skini_case()
    pair = Pair(compiled, host_globals)
    for machine in pair.machines:
        pair.armed[id(machine)] = 1
    outcome = pair.step(inputs(0))
    assert outcome["outcome"][0] == Bomb.__name__
    assert outcome["need_full"] and outcome["queued_clear"]
    pair.step(inputs(0))
    assert pair.full_reactions() == [1, 1]


# ---------------------------------------------------------------------------
# laziness
# ---------------------------------------------------------------------------


def _assert_no_code(plan):
    assert plan._fn is None and plan._source is None


def test_sparse_machine_from_source_never_builds_code():
    compiled, _, inputs = modular_case(True)
    plan = compiled.evaluation_plan()
    _assert_no_code(plan)
    machine = ReactiveMachine(compiled, backend="sparse")
    journal = machine.attach_journal(MemoryJournal())
    for i in range(100):
        machine.react(inputs(i))
    machine.attach_journal(None)
    digest = machine.state_digest()
    snap = machine.snapshot()
    machine.react(inputs(100))
    machine.restore(snap)
    machine.react(inputs(100))
    fresh = ReactiveMachine(compiled, backend="sparse")
    fresh.replay(journal.entries())
    assert fresh.state_digest() == digest
    # boot and restore are full sweeps; most of the others are sparse
    assert machine._scheduler.full_reactions >= 2
    assert machine._scheduler.sparse_reactions > 80
    _assert_no_code(plan)
    # stats and introspection build nothing either
    plan.describe(), repr(plan), plan.memory_estimate()
    fleet = MachineFleet(compiled, size=3, backend="sparse")
    fleet.react_all(inputs(1))
    fleet.memory_report(), fleet.stats()
    _assert_no_code(plan)


def test_auto_backend_on_large_pure_plan_is_sparse_and_lazy():
    compiled, host_globals, inputs = skini_case()
    machine = ReactiveMachine(compiled, host_globals=host_globals)
    assert machine.backend == "sparse"
    for i in range(30):
        machine.react(inputs(i))
    _assert_no_code(compiled.evaluation_plan())


def test_memory_estimate_counts_source_only_once_built():
    compiled, _, _ = modular_case(True)
    plan = compiled.evaluation_plan()
    lean = plan.memory_estimate()
    _assert_no_code(plan)
    plan.fn  # noqa: B018
    assert plan.memory_estimate() > lean


def test_levelized_machines_build_code_exactly_once(monkeypatch):
    compiled, _, inputs = modular_case(True)
    plan = compiled.evaluation_plan()
    calls = []

    def counting_compile(*args, **kwargs):
        calls.append(args[1])
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(plan_mod, "compile", counting_compile, raising=False)
    sparse = ReactiveMachine(compiled, backend="sparse")
    sparse.react(inputs(0))
    assert calls == []
    levelized = [ReactiveMachine(compiled, backend="levelized") for _ in range(3)]
    for machine in levelized:
        machine.react(inputs(0))
        machine.react(inputs(1))
    assert len(calls) == 1
    assert all(m._scheduler._fn is plan.fn for m in levelized)
    sparse.react(inputs(1))
    assert sparse._scheduler._fn is None  # bound at construction


def test_impure_plan_on_sparse_backend_binds_code():
    """Plans with relaxation blocks always take the compiled sweep."""
    app = PillboxApp(backend="sparse")
    plan = app.machine.compiled.evaluation_plan()
    assert not plan.is_pure
    assert app.machine._scheduler._fn is plan.fn


def _artifact_modules():
    table = parse_program(_modular_source(4))
    yield table.get("Score"), table, CompileOptions(link=True)
    yield table.get("Score"), table, CompileOptions()
    for seed in range(3):
        program = generate_program(seed)
        yield program.main, program.table(), CompileOptions()


def test_artifacts_ship_code_and_never_compile(monkeypatch):
    calls = []
    real_compile = builtins.compile

    def counting_compile(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("filename"))
        return real_compile(*args, **kwargs)

    hydrated = 0
    for module, table, options in _artifact_modules():
        clear_link_cache()
        clear_hydrate_cache()
        try:
            blob = plan_artifact(module, table, options)
        except ShardError:
            continue  # non-portable program: artifacts are refused
        clear_hydrate_cache()
        compiled = hydrate_plan_artifact(blob)
        hydrated += 1
        plan = compiled.evaluation_plan()
        # code without source: it came from the shipped __code__
        assert plan.has_code and plan._source is None
        monkeypatch.setattr(builtins, "compile", counting_compile)
        try:
            machine = ReactiveMachine(compiled, host_globals=dict(HOST_GLOBALS))
            machine.react({})
        finally:
            monkeypatch.setattr(builtins, "compile", real_compile)
        assert calls == [], f"hydrated first reaction compiled {calls}"
        if machine.backend == "sparse":
            assert machine._scheduler._fn is plan.fn
    assert hydrated >= 3

"""Backend equivalence: the levelized straight-line plan and the sparse
dirty-cone evaluator against the worklist scheduler.

Both fast backends (``docs/performance.md``) must be observationally
indistinguishable from the worklist: identical signal traces, statuses
and ``pre``/``now`` values on random constructive programs, identical
termination/pause status, and identical
:class:`~repro.errors.CausalityError` reporting (message *and* offending
net list) on non-constructive ones.  Every random trace is replayed with
each step doubled, so the sparse mode is exercised on reactions with
*zero* changed inputs (the pure change-propagation path).  The paper
apps double as end-to-end parity fixtures, and the ``auto`` policy is
pinned: sparse for large acyclic circuits (>= ``SPARSE_MIN_NETS``),
levelized for small acyclic ones and the (cyclic-but-constructive)
pillbox, worklist fallback for heavily cyclic circuits.
"""

import pytest
from hypothesis import given, settings, HealthCheck

from repro import CausalityError, MachineError, ReactiveMachine, parse_module
from repro.apps.login import build_login_machine
from repro.apps.pillbox import PillboxApp
from repro.apps.skini import Audience, Performance, make_paper_score
from repro.host import AuthService, SimulatedLoop
from tests.strategies import input_traces, pure_modules

BACKENDS = ("worklist", "levelized", "sparse")

_SETTINGS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _run(module, trace, backend):
    machine = ReactiveMachine(module, backend=backend)
    iface = sorted(machine.compiled.circuit.interface)
    outputs = []
    for step in trace:
        result = machine.react({name: True for name in step})
        signals = tuple(
            (name, view.now, view.pre, view.nowval, view.preval)
            for name in iface
            for view in (machine.signal(name),)
        )
        outputs.append(
            (
                dict(result),
                dict(result.statuses),
                signals,
                result.paused,
                result.terminated,
            )
        )
        if machine.terminated:
            break
    return outputs


def _observe(module, trace, backend):
    """Run and capture either the full observation list or the causality
    error, so error reporting is compared exactly like traces."""
    try:
        return _run(module, trace, backend), None
    except CausalityError as e:
        return None, (str(e), tuple(e.nets))


@settings(**_SETTINGS)
@given(pure_modules(), input_traces())
def test_backends_agree_on_random_programs(module, trace):
    """Signal traces, statuses, pre/now values, pause/termination flags,
    and causality errors must be identical across all three backends —
    including on doubled traces, where every other reaction repeats the
    previous instant's inputs (zero changed inputs for the sparse mode).
    """
    doubled = [step for step in trace for _ in (0, 1)]
    for inputs in (trace, doubled):
        reference, reference_error = _observe(module, inputs, "worklist")
        for backend in ("levelized", "sparse"):
            observed, observed_error = _observe(module, inputs, backend)
            assert reference_error == observed_error, (
                f"causality reporting diverged ({backend})\n{module.body!r}\n"
                f"{inputs}\nworklist={reference_error}\n{backend}={observed_error}"
            )
            assert reference == observed, (
                f"trace divergence ({backend})\n{module.body!r}\ninputs={inputs}\n"
                f"worklist={reference}\n{backend}={observed}"
            )


class TestAutoPolicy:
    def test_cyclic_program_falls_back_to_worklist(self):
        module = parse_module(
            """
            module M(out X) {
              if (!X.now) { emit X }
            }
            """
        )
        machine = ReactiveMachine(module)  # backend="auto"
        assert machine.backend == "worklist"

    def test_small_acyclic_program_stays_levelized(self):
        """Sparse-eligible but tiny: the full sweep is cheaper than the
        sparse bookkeeping, so ``auto`` applies the SPARSE_MIN_NETS floor
        (the sparse backend itself still works when asked for)."""
        module = parse_module("module M(in I, out X) { if (I.now) { emit X } }")
        machine = ReactiveMachine(module)  # backend="auto"
        assert machine.compiled.evaluation_plan().is_pure
        assert machine.backend == "levelized"
        explicit = ReactiveMachine(module, backend="sparse")
        assert explicit.backend == "sparse"
        assert dict(explicit.react({"I": True})) == dict(
            ReactiveMachine(module, backend="worklist").react({"I": True})
        )

    def test_large_acyclic_program_picks_sparse(self):
        from repro.apps.skini import make_large_score

        score = make_large_score(sections=4, groups_per_section=5, patterns_per_group=6)
        perf = Performance(score, Audience(size=0))  # backend="auto"
        assert perf.machine.backend == "sparse"
        assert perf.machine.compiled.evaluation_plan().is_pure

    def test_cyclic_program_same_error_all_backends(self):
        module = parse_module(
            """
            module M(out X) {
              if (!X.now) { emit X }
            }
            """
        )
        errors = {}
        for backend in BACKENDS:
            machine = ReactiveMachine(module, backend=backend)
            with pytest.raises(CausalityError) as info:
                machine.react({})
            errors[backend] = (str(info.value), tuple(info.value.nets))
        assert errors["worklist"] == errors["levelized"] == errors["sparse"]

    def test_unknown_backend_rejected(self):
        module = parse_module("module M(out X) { emit X }")
        with pytest.raises(MachineError):
            ReactiveMachine(module, backend="turbo")


ACCOUNTS = {"alice": "secret"}


def _login_trace(backend):
    loop = SimulatedLoop()
    svc = AuthService(loop, ACCOUNTS, latency_ms=100)
    machine = build_login_machine(loop, svc, backend=backend)
    machine.react({})
    trace = [machine.backend]
    machine.react({"name": "alice", "passwd": "secret"})
    trace.append(dict(machine.react({"login": True})))
    loop.advance(150)
    loop.advance_seconds(3)
    trace.append((machine.connState.nowval, machine.time.nowval))
    machine.react({"logout": True})
    trace.append(machine.connState.nowval)
    return trace


def _pillbox_trace(backend):
    app = PillboxApp(backend=backend)
    trace = [app.machine.backend]
    app.press_try()
    app.tick_hours(1)
    app.press_conf()
    app.tick_hours(30)  # ride through the Try alarm window
    app.press_try()
    app.tick_hours(4.5)  # ...and into the missed-dose error
    trace.append(app.log)
    return trace


def _skini_trace(backend):
    perf = Performance(
        make_paper_score(), Audience(size=12, seed=7), backend=backend
    )
    perf.run(40)
    return [
        perf.machine.backend,
        [(p.time_s, p.pattern.pid, p.group) for p in perf.synth.timeline],
        [g.name for g in perf.open_groups()],
    ]


class TestPaperAppParity:
    """The three paper apps, replayed on every backend, must agree
    event-for-event; under ``auto`` these small circuits all stay on a
    full-sweep backend (levelized), and the explicit sparse replays must
    still match event-for-event."""

    def test_login(self):
        worklist = _login_trace("worklist")
        auto = _login_trace("auto")
        sparse = _login_trace("sparse")
        assert auto[0] == "levelized"
        assert worklist[1:] == auto[1:] == sparse[1:]

    def test_pillbox(self):
        worklist = _pillbox_trace("worklist")
        auto = _pillbox_trace("auto")
        sparse = _pillbox_trace("sparse")
        assert auto[0] == "levelized"
        assert worklist[1:] == auto[1:] == sparse[1:]

    def test_skini(self):
        worklist = _skini_trace("worklist")
        auto = _skini_trace("auto")
        sparse = _skini_trace("sparse")
        assert auto[0] == "levelized"  # the paper score is only ~80 nets
        assert worklist[1:] == auto[1:] == sparse[1:]


def _wide_module(branches=8):
    """An abort over ``branches`` two-phase loops: every instant flips
    every branch's registers, and each ``I`` restarts the whole body."""
    loops = "\n    } par {\n".join(
        f"      loop {{ emit O{k}; yield; emit P{k}; yield }}" for k in range(branches)
    )
    outs = ", ".join(f"out O{k}, out P{k}" for k in range(branches))
    return parse_module(
        f"module Wide(in I, {outs}) {{\n  loop {{\n    abort (I.now) {{\n"
        f"      fork {{\n{loops}\n      }}\n    }}\n    yield\n  }}\n}}"
    )


def _reach(plan, sources):
    """Nets reachable from ``sources`` over the plan's fanout arrays."""
    seen = set(sources)
    stack = list(sources)
    while stack:
        i = stack.pop()
        for j in range(plan.fanout_index[i], plan.fanout_index[i + 1]):
            succ = plan.fanout_ids[j]
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def test_sparse_wide_reaction_takes_the_bailout():
    """Reactions whose changed sources reach more than 90 % of the nets
    run sparse and finish as a straight-line tail scan past the dirty-net
    bound — with the worklist's trace and state digest."""
    module = _wide_module()
    sparse = ReactiveMachine(module, backend="sparse")
    worklist = ReactiveMachine(module, backend="worklist")
    scheduler = sparse._scheduler
    plan = scheduler.plan
    n = len(plan.circuit.nets)
    i_net = plan.circuit.interface["I"].input_net.id
    tail_starts = []
    tail_scan = scheduler._tail_scan

    def spy(start_rank, *args):
        tail_starts.append(start_rank)
        return tail_scan(start_rank, *args)

    scheduler._tail_scan = spy
    wide = 0
    for i in range(16):
        inputs = {"I": True} if i % 4 == 3 else {}
        changed = set(scheduler._dirty_regs)
        if ("I" in inputs) != (i_net in scheduler._prev_present):
            changed.add(i_net)
        booted = i > 0
        del tail_starts[:]
        got = sparse.react(dict(inputs))
        want = worklist.react(dict(inputs))
        assert (dict(got), dict(got.statuses)) == (dict(want), dict(want.statuses))
        if booted and len(_reach(plan, changed)) > 0.9 * n:
            wide += 1
            assert scheduler.last_dirty is not None  # stayed sparse
            assert tail_starts and tail_starts[0] > 0  # bailed out mid-reaction
    assert wide >= 8
    assert scheduler.full_reactions == 1  # the boot sweep only
    assert sparse.state_digest() == worklist.state_digest()

"""The ``compile`` workload: source text → first reaction.

Why: it exercises every compiler module and touches the runtime for
only one reaction, so it is the bypass for every runtime change.  The
linked path skips ``optimize`` and the cycle check while the flat path
runs them, so one phase's gain cannot hide in a total.

One cycle times three programs, each with the compile, link and
hydrate caches cleared first:

* ``modular`` — the 64-instance modular score, ``CompileOptions(link=True)``;
* ``flat`` — the 60×5×6 Skini score (5,352 nets), default options, its
  ``run`` sites inlined;
* ``artifact`` — a worker cold start of the modular score from an
  :class:`~repro.compiler.compile.ArtifactStore` (load → machine → first
  reaction).

Each program's outputs over a fixed input sequence must equal the
expected-output file ``expected/compile.json``.  Once per run the linked
and inlined compiles of the modular score must agree on their trace, and
the linked compile and its artifact on trace and state digest.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from typing import Any, Dict, List, Optional, Tuple

import programs as P
from common import BenchError, Speed, median, out_path, peak_rss_mib, quantile, read_json
from layers import Probe

from repro import CompileOptions, ReactiveMachine, clear_compile_cache, compile_module
from repro.compiler import compile as compile_mod
from repro.compiler.link import clear_link_cache, link_cache_stats
from repro.syntax import parser as parser_mod

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected", "compile.json")

#: wall time of one cycle (the three programs and the speed readings
#: between them) on a 2-core runner; the cycle count of a run is
#: ``--seconds`` divided by it
CYCLE_S = 2.4
MIN_CYCLES = 3
#: set-ups per run (setup_s is their median)
SETUP_REPEATS = 5


def clear_caches() -> None:
    clear_compile_cache()
    clear_link_cache()
    compile_mod.clear_hydrate_cache()


class _Setup:
    """Everything built before timing: the sources and the artifact
    store holding the linked modular score."""

    def __init__(self, store_dir: str):
        clear_caches()
        self.modular_src = P.modular_source()
        self.skini_src = P.skini_source()
        self.groups = P.skini_group_inputs()
        shutil.rmtree(store_dir, ignore_errors=True)
        self.store = compile_mod.ArtifactStore(store_dir)
        table = parser_mod.parse_program(self.modular_src)
        self.fingerprint = self.store.put(
            table.get(P.MODULAR_ENTRY), table, CompileOptions(link=True)
        )
        self.artifact_bytes = len(self.store.get(self.fingerprint))


def _timed(work: Any) -> Any:
    """Run ``work()`` from cold caches after a full collection; returns
    ``(milliseconds, result)``."""
    clear_caches()
    gc.collect()
    start = time.perf_counter()
    result = work()
    return (time.perf_counter() - start) * 1000.0, result


def run(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    probe = Probe() if traced else None
    if probe is not None:
        probe.install()
    try:
        return _run(seed, seconds, probe)
    finally:
        if probe is not None:
            probe.restore()


def _run(seed: int, seconds: float, probe: Optional[Probe]) -> Dict[str, Any]:
    expected = read_json(EXPECTED)
    setups: List[float] = []
    # every time is scaled by the speed read right around it (common.Speed)
    speed = Speed()
    store_dir = out_path(f"artifacts-{os.getpid()}")
    before = first = speed.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup = _Setup(store_dir)
        elapsed = time.perf_counter() - start
        after = speed.sample()
        setups.append(elapsed * speed.scale(before, after))
        before = after

    def modular() -> Tuple[ReactiveMachine, Any]:
        table = parser_mod.parse_program(setup.modular_src)
        compiled = compile_module(table.get(P.MODULAR_ENTRY), table, CompileOptions(link=True))
        machine = ReactiveMachine(compiled)
        return machine, machine.react(P.MODULAR_FIRST)

    def flat() -> Tuple[ReactiveMachine, Any]:
        table = parser_mod.parse_program(setup.skini_src)
        compiled = compile_module(table.get(P.SKINI_ENTRY), table, CompileOptions())
        machine = ReactiveMachine(compiled, host_globals=P.SKINI_HOST_GLOBALS)
        return machine, machine.react(P.SKINI_FIRST)

    def artifact() -> Tuple[ReactiveMachine, Any]:
        machine = ReactiveMachine(setup.store.load(setup.fingerprint))
        return machine, machine.react(P.MODULAR_FIRST)

    skini_inputs = lambda i: P.skini_inputs(i, setup.groups)  # noqa: E731
    cases = (
        ("modular", modular, P.modular_inputs),
        ("flat", flat, skini_inputs),
        ("artifact", artifact, P.modular_inputs),
    )
    cycles = max(MIN_CYCLES, round(seconds / CYCLE_S))
    # cycle order rotates with the seed so no program always runs first
    offset = seed % len(cases)
    times: Dict[str, List[float]] = {name: [] for name, _, _ in cases}
    counts: Dict[str, int] = {"reactions": 0, "link_hits": 0, "link_misses": 0}
    build_share: List[float] = []
    if probe is not None:
        probe.mark_window()
    for cycle in range(cycles):
        for k in range(len(cases)):
            name, work, inputs = cases[(k + offset) % len(cases)]
            if probe is not None:
                probe.tracer.event = f"{name}:{cycle}"
                first_span = len(probe.tracer.spans)
            ms, (machine, result) = _timed(work)
            after = speed.sample()
            times[name].append(ms * speed.scale(before, after))
            before = after
            if name == "modular":
                stats = link_cache_stats()
                counts["link_hits"] += stats["hits"]
                counts["link_misses"] += stats["misses"]
                if probe is not None:
                    plan_s = sum(end - start for _, span, start, end, _, _ in
                                 probe.tracer.spans[first_span:] if span == "build_plan")
                    build_share.append(plan_s * 1000.0 / ms)
            trace = [P.outputs(result)] + P.follow(machine, inputs)
            counts["reactions"] += len(trace)
            if trace != expected[name]:
                raise BenchError(f"compile: {name} outputs differ from expected/compile.json")
            counts[f"nets.{name}"] = len(machine.compiled.circuit.nets)
            # every sample starts from the same heap, whatever ran before
            # it: a live machine would make the collector's work depend
            # on the cycle order
            del machine, result
    if probe is not None:
        probe.restore()
    _check_link_parity(setup)
    shutil.rmtree(store_dir, ignore_errors=True)

    def p90(name: str) -> float:
        return quantile(times[name], 0.9)

    cycle_ms = [sum(t) for t in zip(*times.values())]
    layers: Dict[str, float] = {}
    if probe is not None:
        layers = probe.metrics({
            "link.template_hits": counts["link_hits"] / cycles,
            "link.template_misses": counts["link_misses"] / cycles,
            "plan.build_share": median(build_share),
            "artifact.kib": setup.artifact_bytes / 1024.0,
            "speed.ref_ms": speed.ref_ms(),
        })
        probe.tracer.dump(out_path("spans-compile.jsonl"))
    return {
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mib": peak_rss_mib(),
            "main_p50_ms": median(times["modular"]),
            "second_p50_ms": median(times["flat"]),
            "third_p50_ms": median(times["artifact"]),
            "throughput_per_s": len(cases) * 1000.0 / median(cycle_ms),
        },
        # for the import time, which ran just before the first reading
        "speed_scale": speed.scale(first, first),
        "tails": {"main": p90("modular"), "second": p90("flat")},
        "attempted": cycles * len(cases),
        "failed": 0,
        "counts": counts,
        "layers": layers,
    }


def _check_link_parity(setup: _Setup) -> None:
    """The linked and inlined compiles of the modular score agree on
    their trace, and the linked compile and its artifact-store hydration
    agree on trace and state digest.  (Linked and inlined circuits lay
    out their state differently, so their digests are not comparable.)"""
    clear_caches()
    table = parser_mod.parse_program(setup.modular_src)
    entry = table.get(P.MODULAR_ENTRY)
    linked, inlined, hydrated = (
        ReactiveMachine(compile_module(entry, table, CompileOptions(link=True))),
        ReactiveMachine(compile_module(entry, table, CompileOptions())),
        ReactiveMachine(setup.store.load(setup.fingerprint)),
    )
    trace = P.drive(linked, P.MODULAR_FIRST, P.modular_inputs)
    for name, machine in (("inlined", inlined), ("hydrated", hydrated)):
        if P.drive(machine, P.MODULAR_FIRST, P.modular_inputs) != trace:
            raise BenchError(f"compile: linked and {name} modular traces differ")
    if linked.state_digest() != hydrated.state_digest():
        raise BenchError("compile: linked and hydrated modular state digests differ")
    clear_caches()

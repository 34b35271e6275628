"""The ``concert`` workload: a Skini conductor and its audience, in
process.

Why: it is the fleet data path that ROADMAP items 1 and 3 change.  The
same fleet layer is used in a scalar shape (taps) and a word shape
(beats), so an optimisation that speeds beats but slows taps shows.  It
also runs both scalar engines: the conductor is sparse, the members are
levelized.

One conductor machine runs the 5,352-net Skini score; :data:`MEMBERS`
Participant members sit behind a :class:`~repro.runtime.fleet.FleetIngress`
with the ``coalesce`` policy.  The open-loop schedule, generated from
the seed before the run, has two event kinds:

* a *tap* offers one member's ``select`` (a distinct input per member)
  and pumps; its latency runs from its due time to that member's
  :class:`~repro.runtime.machine.ReactionResult`;
* a *beat* reacts the conductor, then offers one shared input to every
  member and pumps; its latency runs to the last member's result.

Events are served one at a time in due order, as a single-threaded host
would; an event that comes due while another is served waits, and that
wait is part of its latency.  A closed saturation phase, in slices that
alternate with the open loop, keeps a fixed backlog of
:data:`SAT_BACKLOG` taps per member, refilled after every pump, and
measures member reactions per second (the median over pump rounds of
reactions / round time, offers included).

Correctness: replaying the recorded post-coalescing instants
(``on_instant``) into a fresh fleet on the worklist reference engine
must reproduce every member's state digest, replaying the beats into a
worklist conductor must reproduce its trace, and the ingress accounting
must hold.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Dict, List, Optional, Tuple

import programs as P
from common import (
    BenchError,
    Speed,
    check_generator,
    median,
    out_path,
    pace_until,
    peak_rss_mib,
    quantile,
)
from layers import Probe, ingress_counts, lockstep_counts

from repro import CompileOptions, ReactiveMachine, clear_compile_cache, compile_module
from repro.apps.skini.participant import make_audience_fleet
from repro.compiler.link import clear_link_cache
from repro.syntax.parser import parse_program

#: Participant members (above LOCKSTEP_MIN_MEMBERS, so the fleet starts
#: word-resident)
MEMBERS = 256
#: offered rates, calibrated once on a 2-core runner: a tap costs about
#: 0.1 ms and a beat about 7 ms, so the mix keeps the host about 30% busy.
#: At half its capacity about half the taps would queue behind another
#: event (an M/G/1 queue waits with probability equal to its load), and
#: the tap median would flip between service time and queueing delay as
#: the shared VM's speed drifts; at 30% it is the service time
TAP_HZ = 1500.0
BEAT_HZ = 20.0
#: the open-loop phase needs at least this many beats
MIN_BEATS = 200
#: share of ``--seconds`` spent in each phase
OPEN_SHARE = 0.7
SAT_SHARE = 0.15
#: the open loop and the saturation phase alternate in this many slices,
#: so both sample the whole run rather than one stretch of it
SEGMENTS = 20
#: saturation: pending taps per member, and the wall time of one pump
#: round of the whole backlog (sets the round count of a run)
SAT_BACKLOG = 2
SAT_ROUND_S = 0.008
#: set-ups per run (setup_s is their median)
SETUP_REPEATS = 5

TAP, BEAT = 0, 1


class _Concert:
    """The conductor, the audience fleet and its ingress, booted."""

    def __init__(self, source: str):
        clear_compile_cache()
        clear_link_cache()
        table = parse_program(source)
        self.compiled = compile_module(table.get(P.SKINI_ENTRY), table, CompileOptions())
        self.conductor = ReactiveMachine(self.compiled, host_globals=P.SKINI_HOST_GLOBALS)
        self.conductor.react({})
        self.fleet = make_audience_fleet(MEMBERS)
        self.instants: List[Tuple[int, Dict[str, Any]]] = []
        self.ingress = self.fleet.ingress(
            policy="coalesce",
            on_instant=lambda member, inputs: self.instants.append((member, inputs)),
        )
        self.fleet.react_all({})


def make_schedule(seed: int, seconds: float,
                  groups: List[str]) -> Tuple[float, List[Tuple[float, int, Any]]]:
    """The open-loop length and its events ``(due offset s, kind,
    payload)``: Poisson taps on random members, periodic beats.  A beat's
    payload is ``(conductor inputs, member inputs)``."""
    rng = random.Random(seed)
    length = max(OPEN_SHARE * seconds, MIN_BEATS / BEAT_HZ)
    events: List[Tuple[float, int, Any]] = []
    t = rng.expovariate(TAP_HZ)
    tap = 0
    while t < length:
        member = rng.randrange(MEMBERS)
        tap += 1
        events.append((t, TAP, (member, {"select": f"m{member}p{tap}"})))
        t += rng.expovariate(TAP_HZ)
    phase = rng.random() / BEAT_HZ
    beats = int((length - phase) * BEAT_HZ)
    for k in range(1, beats + 1):
        section = 5 * (((k - 1) // 30) % P.SKINI_SHAPE[0])
        conductor = {"seconds": k, "second": True,
                     groups[section + rng.randrange(5)]: f"b{k}"}
        members = {"grant": k} if k % 2 else {"stop": True}
        events.append((phase + (k - 1) / BEAT_HZ, BEAT, (conductor, members)))
    events.sort(key=lambda e: (e[0], e[1]))
    return length, events


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
    source = P.skini_source()
    groups = P.skini_group_inputs()
    setups: List[float] = []
    # each set-up is scaled by the speed read right around it, the event
    # and saturation times by the median speed of the run (common.Speed)
    speed = Speed()
    before = first = speed.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        concert = _Concert(source)
        elapsed = time.perf_counter() - start
        after = speed.sample()
        setups.append(elapsed * speed.scale(before, after))
        before = after
    length, schedule = make_schedule(seed, seconds, groups)
    ingress, conductor = concert.ingress, concert.conductor
    # the booted program is long-lived: keep the cyclic collector from
    # re-walking it in the middle of the measured events
    gc.collect()
    gc.freeze()
    if probe is not None:
        probe.roles[id(conductor)] = "conductor"
        probe.mark_window()

    taps_ms: List[float] = []
    beats_ms: List[float] = []
    conductor_ms: List[float] = []
    late_ms: List[float] = []
    beat_inputs: List[Dict[str, Any]] = []
    beat_outputs: List[Any] = []
    round_rates: List[float] = []
    pumps = 0
    rounds = max(SEGMENTS, round(SAT_SHARE * seconds / SAT_ROUND_S))
    segment_s = length / SEGMENTS
    events = iter(enumerate(schedule))
    pending = next(events, None)
    readings: List[float] = []
    for segment in range(SEGMENTS):
        readings.append(speed.sample())
        # the open loop, paused while the previous saturation slice ran
        t0 = time.perf_counter() + 0.01 - segment * segment_s
        while pending is not None and pending[1][0] < (segment + 1) * segment_s:
            index, (offset, kind, payload) = pending
            pending = next(events, None)
            if probe is not None:
                probe.tracer.event = index
            due = t0 + offset
            if time.perf_counter() < due:
                late_ms.append((pace_until(due) - due) * 1000.0)
            if kind == TAP:
                member, inputs = payload
                ingress.offer(member, inputs)
                results = ingress.pump()
                pumps += 1
                taps_ms.append((time.perf_counter() - due) * 1000.0)
                if member not in results:
                    raise BenchError(f"concert: tap on member {member} got no reaction")
            else:
                conductor_inputs, shared = payload
                beat_inputs.append(conductor_inputs)
                beat_outputs.append(P.outputs(conductor.react(conductor_inputs)))
                conductor_ms.append((time.perf_counter() - due) * 1000.0)
                ingress.offer_all(shared)
                results = ingress.pump()
                pumps += 1
                beats_ms.append((time.perf_counter() - due) * 1000.0)
                if len(results) != MEMBERS:
                    raise BenchError(f"concert: beat reached {len(results)} of {MEMBERS} members")
        # a slice of the closed saturation phase: a fixed backlog,
        # refilled after each pump
        for r in range(segment * rounds // SEGMENTS, (segment + 1) * rounds // SEGMENTS):
            if probe is not None:
                probe.tracer.event = f"sat:{r}"
            start = time.perf_counter()
            for member in range(MEMBERS):
                for k in range(SAT_BACKLOG):
                    ingress.offer(member, {"select": f"s{r}.{k}"})
            reacted = len(ingress.pump())
            round_rates.append(reacted / (time.perf_counter() - start))
            pumps += 1
    readings.append(speed.sample())
    if probe is not None:
        probe.restore()

    gen_late_p99 = check_generator(late_ms, "concert")
    ingress.check_accounting()
    _check_oracle(concert, beat_inputs, beat_outputs)
    offered = ingress.stats()["offered"]
    refused = ingress.stats()["shed"] + ingress.stats()["rate_limited"]
    counts = {
        "member_reactions": concert.fleet.stats()["reactions"],
        "conductor_reactions": conductor.reaction_count,
        "pump_calls": pumps,
        "lockstep": concert.fleet.stats()["lockstep"],
        "mailbox": ingress_counts(ingress),
    }
    middle = median(readings)
    scale = speed.scale(middle, middle)
    layers: Dict[str, float] = {}
    if probe is not None:
        layers = probe.metrics({**ingress_counts(ingress), **lockstep_counts(concert.fleet),
                                "concert.gen_late_p99_ms": gen_late_p99,
                                "speed.ref_ms": speed.ref_ms()})
        probe.tracer.dump(out_path("spans-concert.jsonl"))
    return {
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mib": peak_rss_mib(),
            "main_p50_ms": median(taps_ms) * scale,
            "second_p50_ms": median(beats_ms) * scale,
            "third_p50_ms": median(conductor_ms) * scale,
            "throughput_per_s": median(round_rates) / scale,
        },
        # for the import time, which ran just before the first reading
        "speed_scale": speed.scale(first, first),
        "tails": {"main": quantile(taps_ms, 0.99) * scale,
                  "second": quantile(beats_ms, 0.95) * scale},
        "attempted": offered,
        "failed": refused,
        "counts": counts,
        "layers": layers,
    }


def _check_oracle(concert: _Concert, beat_inputs: List[Dict[str, Any]],
                  beat_outputs: List[Any]) -> None:
    """Replay into the worklist reference engine: every member's digest
    and the conductor's trace must be reproduced."""
    oracle = make_audience_fleet(MEMBERS, backend="worklist")
    oracle.react_all({})
    for member, inputs in concert.instants:
        oracle[member].react(inputs)
    for member in range(MEMBERS):
        if oracle[member].state_digest() != concert.fleet[member].state_digest():
            raise BenchError(f"concert: member {member} digest differs from the worklist replay")
    reference = ReactiveMachine(concert.compiled, host_globals=P.SKINI_HOST_GLOBALS,
                                backend="worklist")
    reference.react({})
    for inputs, expected in zip(beat_inputs, beat_outputs):
        if P.outputs(reference.react(inputs)) != expected:
            raise BenchError("concert: conductor trace differs from the worklist replay")

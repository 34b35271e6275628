"""The traced run's per-layer split.

:class:`Probe` wraps each layer's public entry points (where their
callers look them up) with :class:`~common.Tracer` spans and turns the
spans, plus the counters the layers already keep, into the per-layer
metrics named in ``BENCHMARK.json``.  Every workload reports every
per-layer metric: a layer the workload bypasses reports 0, which is the
evidence that it was bypassed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from common import Tracer, layer_sum, mean_self, quantile

from repro.compiler import compile as compile_mod
from repro.compiler import optimize as optimize_mod
from repro.compiler import plan as plan_mod
from repro.runtime import gateway as gateway_mod
from repro.runtime import wsproto as wsproto_mod
from repro.runtime.fleet import FleetIngress, MachineFleet
from repro.runtime.ingress import Mailbox
from repro.runtime.lockstep import LockstepFleet
from repro.runtime.machine import ReactiveMachine
from repro.syntax import parser as parser_mod

#: the per-layer metrics a probe computes (``BENCHMARK.json`` gives their
#: units); ``tail.*`` and ``overhead.*`` are added by run.py
PER_LAYER = (
    "parser.parse_ms",
    "expand.expand_ms",
    "validate.validate_ms",
    "translate.translate_ms",
    "translate.nets_out",
    "link.template_hits",
    "link.template_misses",
    "optimize.optimize_ms",
    "optimize.nets_removed",
    "analysis.cycle_check_ms",
    "plan.build_ms",
    "plan.nets",
    "plan.cyclic_nets",
    "plan.build_share",
    "artifact.load_ms",
    "artifact.kib",
    "machine.boot_ms",
    "machine.member_react_us",
    "machine.conductor_react_us",
    "machine.scalar_reactions",
    "ingress.offered",
    "ingress.admitted",
    "ingress.coalesced",
    "ingress.shed",
    "ingress.wait_p99_ms",
    "fleet.pump_calls",
    "fleet.pump_ms",
    "fleet.reactions_per_pump",
    "lockstep.resident_share",
    "lockstep.word_instants",
    "lockstep.demotions_external",
    "lockstep.react_ms",
    "wsproto.decode_us",
    "wsproto.encode_us",
    "wsproto.frames_in",
    "wsproto.frames_out",
    "gateway.pump_ms",
    "gateway.reactions_per_pump",
    "gateway.push_diff_us",
    "gateway.events_refused",
    "gateway.diffs_coalesced",
    "gateway.loop_lag_p99_ms",
    "concert.gen_late_p99_ms",
    "edge.gen_late_p99_ms",
    "speed.ref_ms",
)


class Probe:
    """One traced run's instrumentation: install, mark the start of the
    measured window, run, then :meth:`metrics`."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: machine id -> role ("conductor"); members are recognised by
        #: their module name
        self.roles: Dict[int, str] = {}
        self._reset()

    def _reset(self) -> None:
        self.nets_out: List[int] = []
        self.nets_removed: List[int] = []
        self.plan_nets: List[int] = []
        self.plan_cyclic: List[int] = []
        self.waits_ms: List[float] = []
        self._offer_times: Dict[int, List[float]] = {}
        self.fleet_reactions = 0
        self.gateway_reactions = 0
        self.frames_in = 0

    def mark_window(self) -> None:
        self._reset()
        self.tracer.mark_window()

    # -- hooks reading counters where the work happens -------------------

    def _translated(self, circuit: Any, *_: Any) -> None:
        self.nets_out.append(len(circuit.nets))

    def _optimizing(self, circuit: Any, *_: Any) -> None:
        # the optimizer rewrites linked templates in place, so the size
        # before must be read before the call
        self._opt_in.append(len(circuit.nets))

    def _optimized(self, circuit: Any, *_: Any) -> None:
        self.nets_removed.append(self._opt_in.pop() - len(circuit.nets))

    def _planned(self, plan: Any, *_: Any) -> None:
        self.plan_nets.append(len(plan.circuit.nets))
        self.plan_cyclic.append(plan.cyclic_net_count)

    def _offered(self, _: Any, mailbox: Any, *__: Any) -> None:
        self._offer_times.setdefault(id(mailbox), []).append(time.perf_counter())

    def _taken(self, _: Any, mailbox: Any) -> None:
        now = time.perf_counter()
        for t in self._offer_times.pop(id(mailbox), ()):
            self.waits_ms.append((now - t) * 1000.0)

    def _pumped(self, results: Any, *_: Any) -> None:
        self.fleet_reactions += len(results)

    def _gateway_pumped(self, driven: int, *_: Any) -> None:
        self.gateway_reactions += driven

    def _fed(self, frames: Any, *_: Any) -> None:
        self.frames_in += len(frames)

    def _react_tag(self, machine: ReactiveMachine, *_: Any) -> str:
        role = self.roles.get(id(machine))
        if role is None:
            role = "member" if machine.name == "Participant" else "other"
        return f"{machine.backend}:{role}"

    def install(self) -> None:
        t = self.tracer
        self._opt_in: List[int] = []
        t.wrap(parser_mod, "parse_program", "parse_program")
        t.wrap(compile_mod, "expand_module", "expand_module")
        t.wrap(compile_mod, "validate_module", "validate_module")
        t.wrap(compile_mod, "translate_module", "translate_module", after=self._translated)
        t.wrap(optimize_mod, "optimize_circuit", "optimize_circuit",
               before=self._optimizing, after=self._optimized)
        t.wrap(compile_mod, "cycle_warnings", "cycle_warnings")
        t.wrap(plan_mod, "build_plan", "build_plan", after=self._planned)
        t.wrap(compile_mod, "hydrate_plan_artifact", "hydrate_plan_artifact")
        t.wrap(compile_mod.ArtifactStore, "load", "ArtifactStore.load")
        t.wrap(ReactiveMachine, "__init__", "ReactiveMachine.__init__")
        t.wrap(ReactiveMachine, "react", "ReactiveMachine.react", tag=self._react_tag)
        t.wrap(Mailbox, "offer", "Mailbox.offer", after=self._offered)
        t.wrap(Mailbox, "take", "Mailbox.take", after=self._taken)
        t.wrap(FleetIngress, "offer", "FleetIngress.offer")
        t.wrap(FleetIngress, "pump", "FleetIngress.pump", after=self._pumped)
        t.wrap(MachineFleet, "react_all", "MachineFleet.react_all")
        t.wrap(LockstepFleet, "react", "LockstepFleet.react")
        t.wrap(gateway_mod.Gateway, "pump_now", "Gateway.pump_now", after=self._gateway_pumped)
        t.wrap(gateway_mod.Session, "push_diff", "Session.push_diff")
        # encode_text (gateway's data frames) reaches encode_frame through
        # wsproto's globals; pings and pongs call gateway's own import
        t.wrap(wsproto_mod, "encode_frame", "encode_frame")
        t.wrap(gateway_mod, "encode_frame", "encode_frame")
        t.wrap(wsproto_mod.FrameAssembler, "feed", "FrameAssembler.feed", after=self._fed)

    def restore(self) -> None:
        self.tracer.restore()

    # -- the metrics -----------------------------------------------------

    def metrics(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Every per-layer metric; ``extra`` supplies the values read
        from layer counters by the workload (missing ones are 0: that
        layer was bypassed)."""
        layers = self.tracer.layers()
        react_member = [(c, s) for n, (c, s) in layers.items()
                        if n.startswith("ReactiveMachine.react[") and n.endswith(":member]")]
        react_conductor = [(c, s) for n, (c, s) in layers.items()
                           if n.startswith("ReactiveMachine.react[") and n.endswith(":conductor]")]

        def mean_us(pairs: List[Any]) -> float:
            calls = sum(c for c, _ in pairs)
            return sum(s for _, s in pairs) / calls * 1e6 if calls else 0.0

        def mean(values: List[int]) -> float:
            return sum(values) / len(values) if values else 0.0

        pump_calls, _ = layer_sum(layers, "FleetIngress.pump")
        gw_calls, _ = layer_sum(layers, "Gateway.pump_now")
        encode_calls, encode_s = layer_sum(layers, "encode_frame")
        _, feed_s = layer_sum(layers, "FrameAssembler.feed")
        load_calls, load_s = layer_sum(layers, "ArtifactStore.load")
        _, hydrate_s = layer_sum(layers, "hydrate_plan_artifact")
        react_calls, _ = layer_sum(layers, "ReactiveMachine.react")
        values: Dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
        values.update({
            "parser.parse_ms": mean_self(layers, "parse_program", 1e3),
            "expand.expand_ms": mean_self(layers, "expand_module", 1e3),
            "validate.validate_ms": mean_self(layers, "validate_module", 1e3),
            "translate.translate_ms": mean_self(layers, "translate_module", 1e3),
            "translate.nets_out": mean(self.nets_out),
            "optimize.optimize_ms": mean_self(layers, "optimize_circuit", 1e3),
            "optimize.nets_removed": mean(self.nets_removed),
            "analysis.cycle_check_ms": mean_self(layers, "cycle_warnings", 1e3),
            "plan.build_ms": mean_self(layers, "build_plan", 1e3),
            "plan.nets": mean(self.plan_nets),
            "plan.cyclic_nets": mean(self.plan_cyclic),
            "artifact.load_ms": (load_s + hydrate_s) / load_calls * 1e3 if load_calls else 0.0,
            "machine.boot_ms": mean_self(layers, "ReactiveMachine.__init__", 1e3),
            "machine.member_react_us": mean_us(react_member),
            "machine.conductor_react_us": mean_us(react_conductor),
            "machine.scalar_reactions": react_calls,
            "ingress.wait_p99_ms": quantile(self.waits_ms, 0.99) if self.waits_ms else 0.0,
            "fleet.pump_calls": pump_calls,
            "fleet.pump_ms": mean_self(layers, "FleetIngress.pump", 1e3),
            "fleet.reactions_per_pump": self.fleet_reactions / pump_calls if pump_calls else 0.0,
            "lockstep.react_ms": mean_self(layers, "LockstepFleet.react", 1e3),
            "wsproto.decode_us": feed_s / self.frames_in * 1e6 if self.frames_in else 0.0,
            "wsproto.encode_us": encode_s / encode_calls * 1e6 if encode_calls else 0.0,
            "wsproto.frames_in": self.frames_in,
            "wsproto.frames_out": encode_calls,
            "gateway.pump_ms": mean_self(layers, "Gateway.pump_now", 1e3),
            "gateway.reactions_per_pump": self.gateway_reactions / gw_calls if gw_calls else 0.0,
            "gateway.push_diff_us": mean_self(layers, "Session.push_diff", 1e6),
        })
        for name, value in extra.items():
            if name not in values:
                raise KeyError(f"unknown per-layer metric {name!r}")
            values[name] = value
        return values


def ingress_counts(ingress: Any) -> Dict[str, int]:
    """The ingress's mailbox decisions, as the per-layer counters name
    them."""
    s = ingress.stats()
    return {
        "ingress.offered": s["offered"],
        "ingress.admitted": s["admitted"],
        "ingress.coalesced": s["coalesced"],
        "ingress.shed": s["shed"] + s["rate_limited"],
    }


def lockstep_counts(fleet: MachineFleet) -> Dict[str, float]:
    """The word engine's cumulative counters (set-up included: attaching
    the ingress is what demotes members)."""
    lockstep = fleet.stats().get("lockstep")
    if lockstep is None:
        return {}
    return {
        "lockstep.resident_share": lockstep["resident"] / max(1, len(fleet)),
        "lockstep.word_instants": lockstep["word_instants"],
        "lockstep.demotions_external": lockstep["demotions"]["external"],
    }


def delta(after: Dict[str, float], before: Optional[Dict[str, float]]) -> Dict[str, float]:
    before = before or {}
    return {k: v - before.get(k, 0) for k, v in after.items()}

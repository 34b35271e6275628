"""The programs the benchmark compiles and runs, and the fixed input
sequences their outputs are checked over."""

from __future__ import annotations

from typing import Any, Dict, List

from workloads import modular_score_source

from repro.apps.skini.score import generate_score_source, make_large_score

#: the modular score: 64 ``run Worker(...)`` instances of a 2-stage module
MODULAR_INSTANCES = 64
MODULAR_STAGES = 2
MODULAR_ENTRY = "Score"

#: the Skini score: 60 sections x 5 groups x 6 patterns (5,352 nets)
SKINI_SHAPE = (60, 5, 6)
SKINI_ENTRY = "Score_Large"

#: instants each program is driven for after its first reaction
CHECK_INSTANTS = 40


def and_bool(a: Any, b: Any) -> bool:
    return bool(a and b)


SKINI_HOST_GLOBALS = {"andBool": and_bool}


def modular_source() -> str:
    return modular_score_source(MODULAR_INSTANCES, MODULAR_STAGES)


def skini_source() -> str:
    return generate_score_source(make_large_score(*SKINI_SHAPE))


def skini_group_inputs() -> List[str]:
    return [group.input_signal for group in make_large_score(*SKINI_SHAPE).groups]


MODULAR_FIRST: Dict[str, Any] = {"T": True}
SKINI_FIRST: Dict[str, Any] = {}


def modular_inputs(i: int) -> Dict[str, Any]:
    """Instant ``i`` (from 1) of the modular score's check sequence."""
    inputs: Dict[str, Any] = {}
    if i % 7:
        inputs["T"] = True
    if i % 3 == 0:
        inputs["R"] = True
    return inputs


def skini_inputs(i: int, groups: List[str]) -> Dict[str, Any]:
    """Instant ``i`` (from 1) of the Skini score's check sequence: the
    clock, plus selections on two groups of the current section (a
    section lasts 30 seconds)."""
    base = 5 * ((i - 1) // 30)
    return {
        "seconds": i,
        "second": True,
        groups[base + i % 5]: f"pat{i}",
        groups[base + (i + 2) % 5]: f"pat{i}",
    }


def outputs(result: Any) -> List[List[Any]]:
    """A reaction's emitted outputs in a JSON-comparable form."""
    return sorted([name, value] for name, value in result.items())


def follow(machine: Any, inputs: Any) -> List[List[List[Any]]]:
    """Outputs of the check sequence, driven after the first reaction."""
    return [outputs(machine.react(inputs(i))) for i in range(1, CHECK_INSTANTS + 1)]


def drive(machine: Any, first: Dict[str, Any], inputs: Any) -> List[List[List[Any]]]:
    """The first reaction's outputs plus those of the check sequence."""
    return [outputs(machine.react(first))] + follow(machine, inputs)

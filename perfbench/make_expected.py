"""Write ``expected/compile.json``: the outputs each ``compile``
program must produce over its check sequence.

The reference is the worklist engine (the reference circuit simulator)
on the inlined compile, not the linked, sparse or hydrated paths the
workload times.  Run from the repository root::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

import programs as P  # noqa: E402
from common import write_json  # noqa: E402

from repro import CompileOptions, ReactiveMachine, compile_module  # noqa: E402
from repro.syntax.parser import parse_program  # noqa: E402


def main() -> None:
    modular = parse_program(P.modular_source())
    skini = parse_program(P.skini_source())
    groups = P.skini_group_inputs()
    modular_trace = P.drive(
        ReactiveMachine(
            compile_module(modular.get(P.MODULAR_ENTRY), modular, CompileOptions()),
            backend="worklist",
        ),
        P.MODULAR_FIRST,
        P.modular_inputs,
    )
    skini_trace = P.drive(
        ReactiveMachine(
            compile_module(skini.get(P.SKINI_ENTRY), skini, CompileOptions()),
            host_globals=P.SKINI_HOST_GLOBALS,
            backend="worklist",
        ),
        P.SKINI_FIRST,
        lambda i: P.skini_inputs(i, groups),
    )
    write_json(
        os.path.join(HERE, "expected", "compile.json"),
        {"modular": modular_trace, "flat": skini_trace, "artifact": modular_trace},
    )


if __name__ == "__main__":
    main()

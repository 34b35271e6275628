"""The gateway process of the ``edge`` workload.

Serves a :class:`~repro.runtime.gateway.Gateway` over a Participant fleet
on loopback TCP and takes commands on stdin, one per line:

* ``go`` — the clients are connected: start the measured window (and,
  when traced with ``--spans``, the loop-lag probe);
* ``stop`` — quiesce, check the oracle, print the report as one JSON
  line on stdout and exit.

The first stdout line is ``{"port": N}`` once the gateway listens.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from common import peak_rss_mib, quantile  # noqa: E402
from layers import Probe, delta, ingress_counts, lockstep_counts  # noqa: E402

from repro import Gateway  # noqa: E402
from repro.apps.skini.participant import make_audience_fleet  # noqa: E402

#: loop-lag probe period
LAG_PERIOD_S = 0.005


async def _lag_probe(lags_ms: list) -> None:
    loop = asyncio.get_running_loop()
    while True:
        start = loop.time()
        await asyncio.sleep(LAG_PERIOD_S)
        lags_ms.append((loop.time() - start - LAG_PERIOD_S) * 1000.0)


def _oracle_mismatches(gw: Gateway, members: int) -> list:
    """Replay the recorded post-coalescing instants into a fresh fleet on
    the worklist reference engine; return the members whose state digest
    differs from the served fleet's."""
    oracle = make_audience_fleet(members, backend="worklist")
    served = gw.ingress.fleet
    bad = []
    for index in range(members):
        machine = oracle[index]
        machine.react({})  # the gateway's boot instant
        for inputs in gw.instant_log.get(index, ()):
            machine.react(inputs)
        if machine.state_digest() != served[index].state_digest():
            bad.append(index)
    return bad


async def serve(members: int, spans_path: Optional[str]) -> None:
    probe = None
    if spans_path:
        probe = Probe()
        probe.install()
    fleet = make_audience_fleet(members)
    gw = Gateway(fleet.ingress(policy="coalesce"), record_instants=True, grow=False)
    if probe is not None:
        probe.tracer.event = lambda: gw.counters["events"]
    server = await gw.serve("127.0.0.1", 0)
    # the booted fleet is long-lived: keep the cyclic collector from
    # re-walking it while events are served
    gc.collect()
    gc.freeze()
    print(json.dumps({"port": server.sockets[0].getsockname()[1]}), flush=True)

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    if (await commands.readline()).strip() != b"go":
        await gw.aclose()
        return
    ingress_before = ingress_counts(gw.ingress)
    counters_before = dict(gw.counters)
    lags_ms: list = []
    lag_task = None
    if probe is not None:
        probe.mark_window()
        lag_task = asyncio.ensure_future(_lag_probe(lags_ms))

    await commands.readline()  # "stop" (or EOF: the benchmark process went away)
    drained = await gw.drain(timeout_s=20.0)
    if lag_task is not None:
        lag_task.cancel()
        try:
            await lag_task
        except asyncio.CancelledError:
            pass
    if probe is not None:
        probe.restore()
    gw.ingress.check_accounting()

    counters = delta(gw.counters, counters_before)
    report = {
        "drained": drained,
        "peak_rss_mib": peak_rss_mib(),
        "sessions": {
            sid: {"seq": s.seq, "view": s.view}
            for sid, s in gw.sessions.items()
        },
        "counters": counters,
        "ingress": delta(ingress_counts(gw.ingress), ingress_before),
        "lockstep": lockstep_counts(fleet),
        "oracle_mismatches": _oracle_mismatches(gw, members),
    }
    if probe is not None:
        extra = {
            **report["ingress"],
            **report["lockstep"],
            "gateway.events_refused": counters["events_rate_limited"] + counters["events_rejected"],
            "gateway.diffs_coalesced": counters["diffs_coalesced"],
            "gateway.loop_lag_p99_ms": quantile(lags_ms, 0.99) if lags_ms else 0.0,
        }
        report["layers"] = probe.metrics(extra)
        probe.tracer.dump(spans_path)
    await gw.aclose()
    print(json.dumps(report), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--members", type=int, required=True)
    parser.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args()
    asyncio.run(serve(args.members, args.spans))


if __name__ == "__main__":
    main()

"""G1 — network-edge resilience: the WebSocket gateway under a seeded
chaos reconnect storm at 1000-client scale.

The gateway's claim (docs/resilience.md, "The network edge"), gated
here and recorded in BENCH_gateway.json:

* ``unloaded``: one well-behaved client on an otherwise idle gateway —
  the admit->diff latency of the pump path with nothing competing for
  the loop (recorded for the report; not a gate base, see below);
* ``clean``: the full client cohort (1000 simulated WebSocket sessions
  over in-memory pipes) driving closed-loop traffic with think time,
  **no** network faults — the like-for-like baseline;
* ``storm`` (gated): the same cohort behind seeded
  :class:`~repro.host.netchaos.ChaosTransport` wrappers (drops, torn
  writes, duplicated/reordered delivery, stalls) while the driver kills
  ~10% of connections mid-run (reconnect waves -> resume floods).
  Three gates:

  - **zero double-applied inputs** — every client's acked-unique event
    count equals its session's applied count, and replaying the
    gateway's recorded post-coalescing instants into a fresh *oracle*
    fleet reproduces every member's state digest bit-for-bit (a
    double-applied or lost input could not digest-match);
  - **zero lost committed diffs** — after quiescing, every client's
    folded view equals its session's server-side view and its diff
    sequence has caught all the way up;
  - **p99 admitted event->diff latency <= 5x the clean-cohort p99**.
    In a single-process simulation the absolute tail is dominated by
    cooperatively scheduling N client tasks — the chaos-free cohort
    carries the identical scheduling load, so the ratio isolates what
    the resilience machinery itself (reconnect storms, resume replay,
    retransmission, fencing) adds to the tail, which is the thing
    that must stay bounded.

Run directly (``python benchmarks/bench_gateway.py [--quick]``) or via
pytest; ``--quick`` shrinks the cohort for CI smoke runs.
"""

import argparse
import asyncio
import json
import random
import time
from pathlib import Path

from repro import Gateway, GatewayClient
from repro.apps.skini.participant import make_audience_fleet
from repro.host.netchaos import ChaosTransport

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_gateway.json"

#: full-size vs --quick sweep parameters (tests run the full profile)
FULL = dict(
    n_clients=1000, events=4, think_ms=(200.0, 500.0), ramp_s=2.0,
    baseline_events=300, capacity=64,
)
QUICK = dict(
    n_clients=120, events=4, think_ms=(25.0, 75.0), ramp_s=0.5,
    baseline_events=150, capacity=64,
)
PROFILE = dict(FULL)

P99_GATE = 5.0
STORM_P = 0.10  # per-event probability the driver kills the connection

CHAOS = dict(
    drop_rate=0.02,
    partial_rate=0.02,
    duplicate_rate=0.03,
    reorder_rate=0.02,
    stall_rate=0.03,
    stall_ms=(0.1, 1.0),
)


def _update_bench_json(section, payload):
    """Merge one section into BENCH_gateway.json (tests may run alone)."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except ValueError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")


def _pct(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


async def _unloaded_baseline(seed=1):
    """One client, no chaos, idle gateway: the pump path's admit->diff
    latency with nothing competing for the event loop."""
    fleet = make_audience_fleet(4)
    gw = Gateway(fleet.ingress(capacity=PROFILE["capacity"]),
                 pump_interval_ms=1.0, grow=False)
    await gw.start()
    client = GatewayClient(gw.local_connector(), seed=seed, name="base")
    await client.connect()
    for j in range(1, PROFILE["baseline_events"] + 1):
        await client.send_event({"select": f"p{j % 3}"})
    assert await gw.drain()
    await client.sync()
    samples = list(gw.latency_samples)
    await client.close()
    await gw.aclose()
    return samples


def _lockstep_summary(fleet):
    """How much of the audience the lockstep word engine still holds."""
    lockstep = fleet.stats()["lockstep"]
    return {
        "resident_share": round(lockstep["resident"] / max(1, len(fleet)), 3),
        "word_instants": lockstep["word_instants"],
        "demotions_external": lockstep["demotions"]["external"],
    }


async def _cohort(seed, chaos, storm_p):
    """One full cohort run: ramped connects, closed-loop driving with
    think time, optional chaos + reconnect storms, quiesce, and the
    correctness gates.  Returns (gateway-ish summary dict, samples)."""
    n = PROFILE["n_clients"]
    events = PROFILE["events"]
    think_lo, think_hi = PROFILE["think_ms"]
    fleet = make_audience_fleet(n)
    gw = Gateway(
        fleet.ingress(capacity=PROFILE["capacity"]),
        pump_interval_ms=1.0,
        grow=False,
        record_instants=chaos,  # the storm run feeds the oracle replay
    )
    await gw.start()
    clients = []
    for i in range(n):
        wrap = None
        if chaos:
            rng = random.Random(seed * 1000 + i)
            wrap = (lambda r: (lambda ep: ChaosTransport(ep, rng=r, **CHAOS)))(rng)
        clients.append(GatewayClient(
            gw.local_connector(wrap), seed=seed * 1000 + i, name=f"c{i}",
            base_backoff_ms=1.0, max_backoff_ms=50.0, max_attempts=300,
            ack_timeout_s=5.0, connect_timeout_s=2.0,
        ))

    async def ramp(i, client):
        await asyncio.sleep((i / max(1, n)) * PROFILE["ramp_s"])
        await client.connect()

    await asyncio.gather(*(ramp(i, c) for i, c in enumerate(clients)))
    gw.latency_samples.clear()  # measure the driven window only

    gave_up = []

    async def drive(i, client):
        storm_rng = random.Random(seed * 7777 + i)
        try:
            for j in range(1, events + 1):
                await client.send_event({"select": f"p{j % 3}"})
                if storm_rng.random() < storm_p:
                    client.drop_connection()  # reconnect wave
                await asyncio.sleep(storm_rng.uniform(think_lo, think_hi) / 1000.0)
        except Exception:  # noqa: BLE001 - a give-up is itself the failure
            gave_up.append(i)

    start = time.perf_counter()
    await asyncio.gather(*(drive(i, c) for i, c in enumerate(clients)))
    drive_s = time.perf_counter() - start
    assert not gave_up, f"clients gave up reconnecting: {gave_up}"
    assert await gw.drain(timeout_s=60.0), "gateway failed to quiesce"
    await asyncio.gather(*(c.sync() for c in clients))

    # -- gates: exactly-once and zero lost committed diffs ---------------
    for client in clients:
        session = gw.sessions[client.sid]
        assert session.applied_count == client.stats["events_admitted"]
        assert session.applied_count == client.stats["events_sent"]
        assert client.last_seq == session.seq
        assert client.view == session.view
    stats = gw.ingress.stats()
    assert stats["offered"] == (
        stats["admitted"] + stats["coalesced"]
        + stats["rejected"] + stats["rate_limited"]
    )
    assert stats["dropped"] == 0
    gw.ingress.check_accounting()

    chaos_fired = sum(
        c.stats["drops"] + c.stats["retransmits"] + c.stats["reconnects"]
        for c in clients
    )
    samples = list(gw.latency_samples)
    summary = {
        "clients": n,
        "events": n * events,
        "drive_s": round(drive_s, 2),
        "events_per_s": round(len(samples) / max(drive_s, 1e-9)),
        "chaos_fired": chaos_fired,
        "reconnects": sum(c.stats["reconnects"] for c in clients),
        "retransmits": sum(c.stats["retransmits"] for c in clients),
        "resumed_replay": gw.counters["resumed_replay"],
        "snapshots": (
            gw.counters["snapshot_aged_out"]
            + gw.counters["snapshot_fingerprint"]
            + gw.counters["snapshot_unknown"]
        ),
        "fenced": gw.counters["fenced"],
        "sessions_reaped": gw.counters["sessions_reaped"],
        "duplicate_hellos": gw.counters["duplicate_hellos"],
        "diffs_coalesced": gw.counters["diffs_coalesced"],
        "p50_ms": round(_pct(samples, 0.50), 3),
        "p99_ms": round(_pct(samples, 0.99), 3),
        # recorded, not gated; read before the oracle parity check below,
        # whose state_digest() calls demote every member
        "lockstep": _lockstep_summary(fleet),
    }

    if chaos:
        # -- gate: digest parity against an in-process oracle fleet ------
        oracle = make_audience_fleet(n)
        oracle.react_all({})  # same boot instant as Gateway(boot=True)
        for index, instants in sorted(gw.instant_log.items()):
            for inputs in instants:
                oracle.react_one(index, inputs)
        mismatches = [
            i for i in range(n)
            if oracle[i].state_digest() != fleet[i].state_digest()
        ]
        assert not mismatches, (
            f"oracle digest mismatch on members {mismatches}: an admitted "
            f"input was double-applied or lost"
        )
        summary["digest_parity"] = True

    for client in clients:
        await client.close()
    await gw.aclose()
    return summary, samples


def test_gateway_storm_gates():
    """The headline run: unloaded baseline, clean cohort, chaos cohort —
    exactly-once, zero lost diffs, digest parity, and the latency-tail
    gate, all asserted in one pass."""

    async def scenario():
        unloaded = await _unloaded_baseline()
        _update_bench_json(
            "unloaded",
            {
                "events": len(unloaded),
                "p50_ms": round(_pct(unloaded, 0.50), 4),
                "p99_ms": round(_pct(unloaded, 0.99), 4),
            },
        )

        clean, clean_samples = await _cohort(seed=21, chaos=False, storm_p=0.0)
        _update_bench_json("clean", clean)

        storm, storm_samples = await _cohort(seed=31, chaos=True, storm_p=STORM_P)
        assert storm["chaos_fired"] > 0, "storm produced no faults"
        clean_p99 = _pct(clean_samples, 0.99)
        storm_p99 = _pct(storm_samples, 0.99)
        ratio = storm_p99 / clean_p99
        storm.update({
            "clean_p99_ms": round(clean_p99, 3),
            "ratio": round(ratio, 2),
            "ratio_vs_unloaded": round(storm_p99 / _pct(unloaded, 0.99), 1),
            "gate": P99_GATE,
            "lost_diffs": 0,
            "double_applied": 0,
        })
        _update_bench_json("storm", storm)
        assert ratio <= P99_GATE, (
            f"storm p99 admit->diff latency {storm_p99:.2f} ms is "
            f"{ratio:.1f}x the clean-cohort p99 {clean_p99:.2f} ms (gate "
            f"{P99_GATE:.0f}x): the resilience machinery is inflating the "
            f"tail"
        )

    asyncio.run(asyncio.wait_for(scenario(), 600.0))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced-size cohort for CI smoke runs",
    )
    if parser.parse_args().quick:
        PROFILE.update(QUICK)
    test_gateway_storm_gates()
    data = json.loads(BENCH_JSON.read_text())
    unloaded, clean, storm = data["unloaded"], data["clean"], data["storm"]
    print(f"G1 - gateway chaos storm ({storm['clients']} clients)")
    print(f"  unloaded: p50 {unloaded['p50_ms']:.3f} ms, "
          f"p99 {unloaded['p99_ms']:.3f} ms ({unloaded['events']} events)")
    print(f"  clean:    {clean['events']} events at {clean['events_per_s']}/s, "
          f"p50 {clean['p50_ms']:.2f} ms, p99 {clean['p99_ms']:.2f} ms")
    print(f"  storm:    {storm['events']} events, {storm['reconnects']} "
          f"reconnects, {storm['retransmits']} retransmits, "
          f"{storm['resumed_replay']} replays, {storm['snapshots']} "
          f"snapshots, {storm['sessions_reaped']} reaped")
    print(f"  p99 {storm['p99_ms']:.2f} ms = {storm['ratio']:.2f}x clean "
          f"p99 (gate {storm['gate']:.0f}x); lost diffs "
          f"{storm['lost_diffs']}, double-applied {storm['double_applied']}; "
          f"digest parity {storm['digest_parity']}")
    for label, section in (("clean", clean), ("storm", storm)):
        word = section["lockstep"]
        print(f"  lockstep ({label}): resident share {word['resident_share']:.3f}, "
              f"{word['word_instants']} word instants, "
              f"{word['demotions_external']} external demotions")
    print(f"  wrote {BENCH_JSON.name}")

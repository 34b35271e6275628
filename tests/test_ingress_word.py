"""The batched ingress pump: audiences behind a ``FleetIngress`` stay in
the lockstep word.

``FleetIngress`` keeps its mailboxes on the fleet side and pumps the
members it picks from its ready set as *one* fleet batch, so a
word-resident Participant audience reacts through the word engine —
taps as one-member word instants, beats as one shared broadcast
instant.  These tests pin that residency, parity with the worklist
reference engine, the round-robin choice of the old full mailbox scan,
and the supervised / budgeted pumps that still react scalar.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.skini.participant import make_audience_fleet, make_supervised_audience
from repro.errors import ReactionBudgetExceeded
from repro.host import SimulatedLoop
from repro.host.resilience import CircuitBreaker

MEMBERS = 256


def _audience(**kwargs):
    fleet = make_audience_fleet(MEMBERS)
    fleet.react_all({})
    log = []
    ingress = fleet.ingress(
        policy="coalesce",
        on_instant=lambda member, inputs: log.append((member, inputs)),
        **kwargs,
    )
    return fleet, ingress, log


def _lockstep(fleet):
    return fleet.stats()["lockstep"]


def _assert_replay_parity(fleet, log):
    """Replaying the applied instants into a worklist fleet reproduces
    every member's state digest (``state_digest`` demotes: call last)."""
    oracle = make_audience_fleet(MEMBERS, backend="worklist")
    oracle.react_all({})
    for member, inputs in log:
        oracle[member].react(inputs)
    for member in range(MEMBERS):
        assert oracle[member].state_digest() == fleet[member].state_digest(), member


def _open_breaker(machine):
    loop = SimulatedLoop()
    breaker = CircuitBreaker(loop, failure_threshold=1, cooldown_ms=100.0, name="svc")
    machine.register_breaker(breaker)

    def failing_operation():
        raise RuntimeError("down")

    breaker.call(failing_operation)  # a synchronous failure opens it
    return loop, breaker


def _old_scan(ingress, cursor):
    """The pre-ready-set choice: scan every mailbox from the cursor."""
    size = len(ingress.mailboxes)
    chosen = []
    for step in range(size):
        index = (cursor + step) % size
        if ingress.mailboxes[index].pending and ingress.is_healthy(index):
            chosen.append(index)
            if len(chosen) >= ingress.batch_size:
                break
    return chosen


class TestResidency:
    def test_mixed_traffic_stays_in_the_word(self):
        fleet, ingress, log = _audience()
        assert _lockstep(fleet)["resident"] == MEMBERS  # no demotion on build
        before = _lockstep(fleet)["word_instants"]
        rng = random.Random(13)
        pumps = 0
        for k in range(1000):
            if k % 10 == 9:
                ingress.offer_all({"grant": k} if k % 2 else {"stop": True})
                assert len(ingress.pump()) == MEMBERS
            else:
                member = rng.randrange(MEMBERS)
                ingress.offer(member, {"select": f"m{member}t{k}"})
                assert member in ingress.pump()
            pumps += 1
        stats = _lockstep(fleet)
        assert stats["demotions"]["external"] == 0
        assert stats["resident"] == MEMBERS
        assert stats["word_instants"] - before == pumps
        assert fleet.stats()["reactions"] == MEMBERS + len(log)
        ingress.check_accounting()
        _assert_replay_parity(fleet, log)

    def test_beat_uses_the_shared_result_path(self):
        fleet, ingress, _ = _audience()
        shared_before = _lockstep(fleet)["shared_results"]
        ingress.offer_all({"grant": 1})
        results = ingress.pump()
        assert _lockstep(fleet)["shared_results"] - shared_before == MEMBERS
        assert len({id(r) for r in results.values()}) == 1

    def test_equal_but_distinct_values_are_not_shared(self):
        fleet, ingress, _ = _audience()
        ingress.offer_all({"select": "a"})
        ingress.pump()
        ingress.offer(0, {"grant": 1})
        ingress.offer(1, {"grant": True})  # == 1, but another value
        results = ingress.pump()
        assert results[0]["playing"] == 1 and results[1]["playing"] is True

    def test_quiescent_full_batch_returns_a_dict(self):
        fleet, ingress, _ = _audience()
        ingress.offer_all({})
        results = ingress.pump()
        assert isinstance(results, dict)
        assert sorted(results) == list(range(MEMBERS))
        direct = fleet._drive_batch(
            range(MEMBERS), lambda index, machine: {}, shared={}, as_dict=True
        )
        assert isinstance(direct, dict) and sorted(direct) == list(range(MEMBERS))
        as_list = fleet._drive_batch(range(MEMBERS), lambda index, machine: {}, shared={})
        assert isinstance(as_list, list) and len(as_list) == MEMBERS


class TestChoice:
    def test_round_robin_matches_the_full_scan(self):
        fleet, ingress, log = _audience()
        ingress.retire(5)
        _open_breaker(fleet[9])
        ingress.batch_size = 7
        rng = random.Random(7)
        for round_index in range(120):
            for _ in range(rng.randrange(1, 20)):
                member = rng.choice((5, 9, rng.randrange(MEMBERS)))
                ingress.offer(member, {"select": f"r{round_index}"})
            expected = _old_scan(ingress, ingress._cursor)
            cursor = (expected[-1] + 1) % MEMBERS if expected else ingress._cursor
            start = len(log)
            results = ingress.pump()
            assert [member for member, _ in log[start:]] == expected
            assert sorted(results) == sorted(expected)
            assert ingress._cursor == cursor
        # the retired and the breaker-open member keep their mail
        assert 5 not in dict(log) and 9 not in dict(log)
        assert ingress.mailboxes[5].pending and ingress.mailboxes[9].pending
        ingress.pump_all()
        assert ingress.stats()["pending"] == (
            ingress.mailboxes[5].pending + ingress.mailboxes[9].pending
        )

    def test_leftover_mail_is_repumped_without_coalescing(self):
        fleet, ingress, log = _audience(coalesce_on_pump=False)
        for k in range(3):
            ingress.offer(3, {"select": f"a{k}"})
        ingress.offer(4, {"select": "b"})
        assert sorted(ingress.pump()) == [3, 4]
        assert list(ingress.pump()) == [3]
        assert list(ingress.pump()) == [3]
        assert ingress.pump() == {}
        assert [member for member, _ in log] == [3, 4, 3, 3]
        assert ingress.stats()["pending"] == 0
        assert _lockstep(fleet)["demotions"]["external"] == 0
        _assert_replay_parity(fleet, log)


class TestHealth:
    def test_open_breaker_leaves_offer_all_route_and_pump(self):
        fleet, ingress, log = _audience()
        loop, breaker = _open_breaker(fleet[0])
        assert 0 not in ingress.offer_all({"select": "x"})
        assert ingress.route({"select": "y"})[0] != 0
        ingress.offer(0, {"select": "z"})  # direct offers still queue
        results = ingress.pump()
        assert 0 not in results and 0 not in dict(log)
        assert ingress.mailboxes[0].pending == 1
        assert fleet[0].health["breakers"]["svc"]["state"] == "open"
        # past its cooldown the breaker lapses to half-open: routable again
        loop.advance(200.0)
        assert ingress.is_healthy(0)
        assert 0 in ingress.pump()
        assert breaker.state == "half-open"


class TestDemotedMembers:
    def test_raising_payload_fails_only_its_member(self):
        fleet, ingress, log = _audience()
        fleet[7].frame["played"] = "x"  # `played + 1` raises for member 7
        for inputs in ({"select": "a"}, {"grant": 1}):
            ingress.offer_all(inputs)
            assert len(ingress.pump()) == MEMBERS
        ingress.offer_all({"stop": True})
        results = ingress.pump()
        assert set(ingress.last_failures) == {7}
        assert len(results) == MEMBERS - 1 and 7 not in results
        assert ingress.stats()["pump_failures"] == 1
        stats = _lockstep(fleet)
        assert stats["demotions"]["error"] == 1
        assert stats["resident"] == MEMBERS - 1
        fleet[7].frame["played"] = 0
        ingress.offer_all({"select": "b"})
        assert len(ingress.pump()) == MEMBERS
        assert fleet[7]._lockstep is not None  # re-promoted after a clean instant

    def test_snapshot_demoted_member_reacts_scalar_and_repromotes(self):
        fleet, ingress, log = _audience()
        fleet[3].snapshot()
        assert fleet[3]._lockstep is None
        words = _lockstep(fleet)["word_instants"]
        ingress.offer_all({"select": "a"})
        results = ingress.pump()
        assert len(results) == MEMBERS
        assert results[3]["request"] == "a"
        assert fleet[3]._lockstep is not None
        stats = _lockstep(fleet)
        assert stats["word_instants"] == words + 1
        assert stats["demotions"]["external"] == 1
        _assert_replay_parity(fleet, log)


class TestScalarPumps:
    def test_budgeted_pump_reacts_scalar(self):
        fleet, ingress, log = _audience(budget="auto")
        words = _lockstep(fleet)["word_instants"]
        ingress.offer_all({"select": "a"})
        ingress.offer(2, {"select": "b"})
        results = ingress.pump()
        assert len(results) == MEMBERS and results[2]["request"] == "b"
        assert _lockstep(fleet)["word_instants"] == words
        assert _lockstep(fleet)["resident"] == 0
        _assert_replay_parity(fleet, log)
        ingress.budget = 1  # every pumped react trips its deadline
        ingress.offer(2, {"grant": 1})
        ingress.offer(6, {"grant": 1})
        assert ingress.pump() == {}
        assert set(ingress.last_failures) == {2, 6}
        assert all(
            isinstance(e, ReactionBudgetExceeded) for e in ingress.last_failures.values()
        )

    def test_supervised_pump_reacts_member_by_member(self):
        supervisor = make_supervised_audience(MEMBERS, checkpoint_every=None)
        fleet = supervisor.fleet
        fleet.react_all({})
        log = []
        ingress = fleet.ingress(
            supervisor=supervisor,
            on_instant=lambda member, inputs: log.append((member, inputs)),
        )
        words = _lockstep(fleet)["word_instants"]
        ticks = iter(range(10_000))
        ingress.offer_all({"select": "a"})
        results = ingress.pump(clock=lambda: next(ticks) / 1000.0)
        assert len(results) == MEMBERS
        # two clock reads per member: the EWMA saw one sample each
        assert ingress.latency.samples == MEMBERS
        assert all(s.stats["reactions"] == 1 for s in supervisor.members)
        assert [member for member, _ in log] == list(range(MEMBERS))
        assert _lockstep(fleet)["word_instants"] == words


def test_batched_pump_observes_one_latency_sample():
    fleet, ingress, _ = _audience()
    ingress.offer_all({"select": "a"})
    ingress.pump()
    assert ingress.latency.samples == 1


@pytest.mark.parametrize("batch_size", [1, 64])
def test_pump_all_drains_the_ready_set(batch_size):
    fleet, ingress, log = _audience()
    ingress.batch_size = batch_size
    for member in range(0, MEMBERS, 3):
        ingress.offer(member, {"select": "a"})
        ingress.offer(member, {"select": "b"})
    ingress.pump_all()
    assert ingress.stats()["pending"] == 0
    assert not ingress._ready
    assert sorted(member for member, _ in log) == list(range(0, MEMBERS, 3))
    _assert_replay_parity(fleet, log)

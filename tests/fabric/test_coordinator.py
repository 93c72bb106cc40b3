"""The lease state machine, driven by a fake clock (no sleeping).

Every expiry/reclaim/budget scenario is a pure function of the injected
clock, so the suite covers races (dropped claim responses, stale
completes, zombie workers finishing after reclaim) deterministically.
"""

from __future__ import annotations

import pytest

from repro.fabric.coordinator import Coordinator, DONE, FAILED, RUNNING
from repro.service.requests import ValidationError

PAYLOAD = {"protocol": "angluin-modk", "sizes": [5, 7, 9], "trials": 2,
           "max_steps": 100_000, "seed": 3}


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> Clock:
    return Clock()


@pytest.fixture
def coord(clock) -> Coordinator:
    return Coordinator(lease_ttl=10.0, max_attempts=3, clock=clock)


def submit(coord, payload=None) -> str:
    receipt = coord.submit(payload or PAYLOAD)
    return receipt["sweep"]


def drain(coord, worker, clock=None):
    """Claim-and-complete until idle; returns the completed point indices."""
    done = []
    while True:
        claim = coord.claim(worker)
        if claim["status"] != "work":
            return done, claim
        coord.complete(worker, claim["sweep"], claim["point"])
        done.append(claim["point"])


# ---------------------------------------------------------------------- #
# Lifecycle
# ---------------------------------------------------------------------- #
def test_register_names_workers_sequentially(coord):
    assert coord.register() == "worker-0001"
    assert coord.register({"host": "h"}) == "worker-0002"


def test_submit_explodes_sizes_into_points(coord):
    receipt = coord.submit(PAYLOAD)
    assert receipt["points"] == 3
    status = coord.sweep_status(receipt["sweep"])
    assert status["state"] == RUNNING
    assert [p["population_size"] for p in status["point_detail"]] == [5, 7, 9]


def test_point_payloads_are_single_size_submissions(coord):
    sweep_id = submit(coord)
    worker = coord.register()
    claim = coord.claim(worker)
    payload = claim["payload"]
    assert payload["sizes"] == [5]
    assert payload["protocol"] == "angluin-modk"
    # The point payload round-trips through submit: a worker could re-post
    # it verbatim, which is what makes points self-contained.
    receipt = Coordinator().submit(payload)
    assert receipt["points"] == 1
    assert sweep_id  # silence unused warning-by-reading


def test_submit_rejects_invalid_payloads(coord):
    with pytest.raises(ValidationError):
        coord.submit({"protocol": "no-such-protocol", "sizes": [8]})
    with pytest.raises(ValidationError):
        coord.submit({"protocol": "ppl", "sizes": []})
    with pytest.raises(ValidationError):
        coord.submit("not a dict")


def test_submit_rejects_an_engine_that_does_not_exist(coord):
    with pytest.raises(ValidationError, match="'auto', 'step', 'batched'"):
        coord.submit(dict(PAYLOAD, engine="numpy"))
    assert coord.sweeps() == []
    assert coord.submit(dict(PAYLOAD, engine="batched"))["points"] == 3


def test_full_sweep_lifecycle(coord):
    sweep_id = submit(coord)
    worker = coord.register()
    done, last = drain(coord, worker)
    assert done == [0, 1, 2]
    assert last == {"status": "idle"}
    status = coord.sweep_status(sweep_id)
    assert status["state"] == DONE
    assert status["done"] == 3 and status["pending"] == 0
    assert status["attempts"] == 3 and status["reclaims"] == 0
    assert all(p["completed_by"] == worker for p in status["point_detail"])


def test_unknown_worker_and_unknown_sweep(coord):
    assert coord.claim("worker-9999") == {"status": "unknown-worker"}
    assert coord.sweep_status("sweep-9999") is None
    assert coord.complete("w", "sweep-9999", 0) == {"status": "unknown"}
    assert coord.fail("w", "sweep-9999", 0, "e") == {"status": "unknown"}


def test_constructor_validation():
    with pytest.raises(ValueError):
        Coordinator(lease_ttl=0.0)
    with pytest.raises(ValueError):
        Coordinator(max_attempts=0)


# ---------------------------------------------------------------------- #
# Leases
# ---------------------------------------------------------------------- #
def test_claim_is_idempotent_under_an_unexpired_lease(coord):
    submit(coord)
    worker = coord.register()
    first = coord.claim(worker)
    again = coord.claim(worker)  # retry of a dropped response
    assert again == first
    status = coord.sweep_status(first["sweep"])
    assert status["attempts"] == 1  # no second lease was granted


def test_all_leased_answers_wait_with_retry_after(coord, clock):
    submit(coord, dict(PAYLOAD, sizes=[5]))
    holder, seeker = coord.register(), coord.register()
    coord.claim(holder)
    clock.advance(4.0)
    response = coord.claim(seeker)
    assert response["status"] == "wait"
    assert response["retry_after"] == pytest.approx(6.0)


def test_expired_lease_is_reclaimed_and_rehanded(coord, clock):
    sweep_id = submit(coord, dict(PAYLOAD, sizes=[5]))
    dead, live = coord.register(), coord.register()
    claim = coord.claim(dead)
    assert claim["attempt"] == 1
    clock.advance(10.001)  # past the TTL: `dead` never heartbeats
    reclaim = coord.claim(live)
    assert reclaim["status"] == "work"
    assert reclaim["point"] == claim["point"]
    assert reclaim["attempt"] == 2
    coord.complete(live, sweep_id, reclaim["point"])
    status = coord.sweep_status(sweep_id)
    assert status["state"] == DONE
    assert status["reclaims"] == 1
    # The invariant the chaos suite leans on:
    point = status["point_detail"][0]
    assert point["attempts"] == 1 + point["reclaims"] + point["failures"]


def test_heartbeat_extends_the_lease(coord, clock):
    submit(coord, dict(PAYLOAD, sizes=[5]))
    worker = coord.register()
    claim = coord.claim(worker)
    clock.advance(8.0)
    beat = coord.heartbeat(worker, claim["sweep"], claim["point"])
    assert beat == {"status": "ok", "lease_ttl": 10.0}
    clock.advance(8.0)  # 16s after claim, but only 8s after the heartbeat
    assert coord.claim(coord.register())["status"] == "wait"


def test_heartbeat_after_reclaim_is_lost(coord, clock):
    submit(coord, dict(PAYLOAD, sizes=[5]))
    worker = coord.register()
    claim = coord.claim(worker)
    clock.advance(10.001)
    other = coord.register()
    coord.claim(other)  # triggers the lazy reclaim and re-lease
    assert coord.heartbeat(worker, claim["sweep"],
                           claim["point"]) == {"status": "lost"}


def test_zombie_complete_after_reclaim_is_accepted(coord, clock):
    """A worker that lost its lease but finished executing reports complete;
    the store already merged its trials, so the coordinator agrees."""
    sweep_id = submit(coord, dict(PAYLOAD, sizes=[5]))
    zombie = coord.register()
    claim = coord.claim(zombie)
    clock.advance(10.001)
    successor = coord.register()
    coord.claim(successor)  # point now leased to the successor
    response = coord.complete(zombie, sweep_id, claim["point"])
    assert response == {"status": "ok", "sweep_state": DONE}
    # The successor's own complete is now stale — acknowledged, not an error.
    assert coord.complete(successor, sweep_id,
                          claim["point"]) == {"status": "stale"}
    point = coord.sweep_status(sweep_id)["point_detail"][0]
    assert point["completed_by"] == zombie


# ---------------------------------------------------------------------- #
# Failure budgets
# ---------------------------------------------------------------------- #
def test_fail_requeues_until_the_budget_is_spent(coord):
    sweep_id = submit(coord, dict(PAYLOAD, sizes=[5]))
    worker = coord.register()
    for attempt in range(1, 3):
        claim = coord.claim(worker)
        assert claim["attempt"] == attempt
        response = coord.fail(worker, sweep_id, claim["point"], f"boom {attempt}")
        assert response == {"status": "requeued"}
    claim = coord.claim(worker)
    assert claim["attempt"] == 3  # max_attempts
    response = coord.fail(worker, sweep_id, claim["point"], "boom final")
    assert response == {"status": "gave-up", "sweep_state": FAILED}
    status = coord.sweep_status(sweep_id)
    assert status["state"] == FAILED
    assert "boom final" in status["error"]
    point = status["point_detail"][0]
    # Every attempt ended in an explicit failure; none were reclaimed.
    assert (point["attempts"], point["reclaims"], point["failures"]) == (3, 0, 3)


def test_repeated_lease_expiry_fails_the_sweep(coord, clock):
    """A point that keeps killing its workers exhausts the budget through
    reclaims alone — the sweep stops with a diagnostic instead of spinning."""
    sweep_id = submit(coord, dict(PAYLOAD, sizes=[5]))
    for _ in range(3):  # max_attempts leases, all left to rot
        worker = coord.register()
        assert coord.claim(worker)["status"] == "work"
        clock.advance(10.001)
    coord.sweeps()  # any entry point runs the lazy reclaim
    status = coord.sweep_status(sweep_id)
    assert status["state"] == FAILED
    assert "lease expired" in status["error"]
    assert "budget" in status["error"]


def test_failed_sweep_hands_out_no_more_work(coord, clock):
    submit(coord, dict(PAYLOAD, sizes=[5]))
    worker = coord.register()
    for _ in range(3):
        claim = coord.claim(worker)
        if claim["status"] != "work":
            break
        coord.fail(worker, claim["sweep"], claim["point"], "always broken")
    assert coord.claim(worker) == {"status": "idle"}


def test_independent_sweeps_progress_despite_one_failing(coord):
    bad = submit(coord, dict(PAYLOAD, sizes=[5]))
    good = submit(coord, dict(PAYLOAD, sizes=[7]))
    worker = coord.register()
    for _ in range(3):
        claim = coord.claim(worker)
        assert claim["sweep"] == bad  # lowest pending point first
        coord.fail(worker, bad, claim["point"], "broken point")
    claim = coord.claim(worker)
    assert claim["status"] == "work" and claim["sweep"] == good
    coord.complete(worker, good, claim["point"])
    assert coord.sweep_status(bad)["state"] == FAILED
    assert coord.sweep_status(good)["state"] == DONE

"""The one fork site, :class:`repro.forksafe.Child`: a child's messages,
its typed errors, its death and its deadline reach the parent through
:meth:`Child.recv`, which also watches every sibling's exit."""

import os
import time

import pytest

from repro import telemetry
from repro.forksafe import Child
from repro.resilience.errors import InjectedFault, RankCrash


def _exit_after(conn, code, delay_s):
    time.sleep(delay_s)
    os._exit(code)


def _reply_after(conn, delay_s):
    time.sleep(delay_s)
    conn.send({"type": "reply"})


def _await_command(conn):
    conn.recv()


def _raise(conn):
    raise InjectedFault("injected failure at child.body")


def _publish(conn, job_id):
    telemetry.PROGRESS.publish(job_id, "progress", i=1)
    conn.send({"type": "reply"})


@pytest.fixture
def children():
    made = []

    def fork(body, *args, **kw):
        kw.setdefault("crash", RankCrash)
        made.append(Child(body, *args, **kw))
        return made[-1]

    yield fork
    for child in made:
        child.stop()


def _soon():
    return time.monotonic() + 30.0


class TestSiblingWatch:
    def test_a_sibling_clean_exit_does_not_end_the_wait(self, children):
        quiet = children(_exit_after, 0, 0.0, name="rank 1")
        slow = children(_reply_after, 0.5, name="rank 0")
        quiet.proc.join(10.0)
        assert quiet.proc.exitcode == 0
        assert slow.recv(_soon(), watch=[slow, quiet]) == {"type": "reply"}

    def test_a_sibling_nonzero_exit_ends_the_wait_naming_it(self, children):
        waiting = children(_await_command, name="rank 0")
        dead = children(_exit_after, 3, 0.2, name="rank 1")
        t0 = time.monotonic()
        with pytest.raises(RankCrash, match=r"^rank 1 died mid-job \(exit code 3"):
            waiting.recv(_soon(), watch=[waiting, dead])
        assert time.monotonic() - t0 < 10.0
        assert waiting.proc.is_alive()  # the caller stops the survivors

    def test_a_sibling_typed_error_is_preferred_to_its_death(self, children):
        waiting = children(_await_command, name="rank 0")
        failed = children(_raise, name="rank 1")
        with pytest.raises(InjectedFault, match="^rank 1: injected failure"):
            waiting.recv(_soon(), watch=[waiting, failed])


class TestOwnEnd:
    def test_a_missed_deadline_stops_the_child(self, children):
        child = children(_await_command, name="worker")
        with pytest.raises(RankCrash, match="worker timed out"):
            child.recv(time.monotonic() + 0.2)
        assert child.proc.exitcode is not None

    def test_events_are_republished_before_the_reply(self, children):
        job_id = "child-events"
        telemetry.PROGRESS.forget(job_id)
        try:
            child = children(_publish, job_id, name="worker")
            assert child.recv(_soon()) == {"type": "reply"}
            events, _, _ = telemetry.PROGRESS.events_since(job_id)
        finally:
            telemetry.PROGRESS.forget(job_id)
        assert [(e["kind"], e["i"]) for e in events] == [("progress", 1)]

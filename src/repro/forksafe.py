"""One after-fork rule for the process-wide state of :mod:`repro`, and
its one fork site.

Scheduler workers and cluster ranks are forked from threaded parents, and
only the forking thread survives a fork: a lock another thread held at
that instant would stay held in the child for good.  So every lock of
the package is made by :func:`lock`, and the one handler below gives a
forked child all of them released, with ``_at_fork_reinit`` (what
CPython's :mod:`threading` does for its own locks).  No code forks inside
one of these critical sections.  DESIGN.md section 5, item 15 is the
table: per object, whether a child resets, keeps or drops it.

Both kinds of child are forked, heard and watched through :class:`Child`:
one duplex pipe home, one message protocol, one parent wait.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from typing import Callable, Iterable, Optional

__all__ = ["Child", "forked", "lock"]

#: True in a child forked from a process that had imported :mod:`repro`:
#: it never starts the kernel's helper group (processes or threads, never
#: both).
forked = False

#: Every live lock -> (its row of the table, its ``if_held`` and
#: ``in_child`` rules).
_LOCKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def lock(row: str, if_held=None, in_child=None) -> threading.Lock:
    """A new lock that every forked child gets back released.  Once every
    lock is fresh, ``if_held()`` runs in a child forked while another
    thread held it, for state the lock guards that may have been left
    torn, and ``in_child()`` runs in every child, for state that must not
    cross a fork at all (the parent's open sockets)."""
    new = threading.Lock()
    _LOCKS[new] = (row, if_held, in_child)
    return new


def _in_child() -> None:
    global forked
    forked = True
    rules = list(_LOCKS.items())
    run = [in_child for _, (_, _, in_child) in rules if in_child]
    run += [if_held for held, (_, if_held, _) in rules if if_held and held.locked()]
    for held, _ in rules:
        held._at_fork_reinit()
    for rule in run:
        rule()


os.register_at_fork(after_in_child=_in_child)


class Child:
    """A forked child that reports home over one duplex pipe.

    The child runs ``body(conn, *args)`` after
    :func:`~repro.telemetry.fork_child`, whose forward sends every
    progress event it publishes home as ``{"type": "event"}``.  It ends
    in ``os._exit(0)``; a body that raises sends ``{"type": "error"}``
    (the error's kind and message and
    :func:`~repro.telemetry.child_report`) and ends in ``os._exit(1)``.
    ``name`` labels the process, its trace lane and its errors; ``crash``
    is what :meth:`recv` raises when the child dies.  Children are not
    daemonic: a worker forks ranks.
    """

    def __init__(self, body: Callable, *args, name: str, crash: type):
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        self.name, self.crash = name, crash
        self.conn, far = ctx.Pipe()
        self.proc = ctx.Process(target=_child_main, args=(body, far, args),
                                name=name)
        try:
            self.proc.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            far.close()  # else a later fork would inherit this child's end

    def recv(self, deadline: Optional[float] = None,
             watch: Iterable["Child"] = ()) -> dict:
        """The child's next message other than an event: the one parent
        wait.

        Waits on this child's pipe and sentinel and on the sentinel of
        every sibling in ``watch`` (a dead sibling stalls the others'
        halo waits), republishing each event into
        :data:`~repro.telemetry.PROGRESS` as it arrives.  An error
        message raises its typed error, the child's spans merged under
        :attr:`name`.  :attr:`crash` is raised on a nonzero exit of this
        child or a sibling (a sibling's own error preferred), on EOF or a
        torn message, and once the monotonic ``deadline`` passes (the
        child is stopped first).  A sibling's clean exit never ends the
        wait.  Messages left in the pipe are read before a death is
        reported: ranks inherit a worker's end, so EOF never comes.
        """
        from multiprocessing.connection import wait

        waits = {self.conn: self, self.proc.sentinel: self}
        waits.update((c.proc.sentinel, c) for c in watch if c is not self)
        while True:
            timeout = (None if deadline is None
                       else max(deadline - time.monotonic(), 0.0))
            ready = wait(list(waits), timeout)
            if not ready:
                self.stop()
                raise self.crash(f"{self.name} timed out")
            if self.conn in ready:
                msg = self._read()
                if msg is not None:
                    return msg
                continue
            child = waits.pop(ready[0])
            child.proc.join()
            if child is self:
                return self._drain()
            if child.proc.exitcode != 0:
                child._drain()
                raise child._death()

    def stop(self) -> None:
        """Kill the child if it still runs, reap it and close the pipe.
        SIGKILL, not SIGTERM: a worker of ``repro serve`` inherits the
        server's drain handler."""
        if self.proc.exitcode is None:
            self.proc.kill()
        self.proc.join()
        self.conn.close()

    def _read(self) -> Optional[dict]:
        """One message; ``None`` for an event, which is republished."""
        from . import telemetry
        from .resilience.errors import error_from_kind

        try:
            msg = self.conn.recv()
        except (EOFError, OSError):
            raise self._death() from None
        if msg["type"] == "event":
            event = msg["event"]
            event.pop("seq", None)  # the parent's ring re-stamps
            telemetry.PROGRESS.publish(msg["job"], event.pop("kind"), **event)
            return None
        if msg["type"] == "error":
            telemetry.merge_child(msg["telemetry"], label=self.name)
            raise error_from_kind(msg["kind"],
                                  f"{self.name}: {msg['message']}")
        return msg

    def _drain(self) -> dict:
        """After the child exited: the first message it left, else
        :attr:`crash`."""
        while self.conn.poll(0):
            msg = self._read()
            if msg is not None:
                return msg
        raise self._death()

    def _death(self) -> Exception:
        self.stop()
        return self.crash(f"{self.name} died mid-job "
                          f"(exit code {self.proc.exitcode}, no result)")


def _child_main(body: Callable, conn, args: tuple) -> None:
    from . import telemetry

    telemetry.fork_child(lambda job_id, event: conn.send(
        {"type": "event", "job": job_id, "event": event}))
    try:
        body(conn, *args)
    except BaseException as exc:  # the typed error goes home
        try:
            conn.send({"type": "error", "kind": type(exc).__name__,
                       "message": str(exc),
                       "telemetry": telemetry.child_report()})
        except OSError:
            pass
        os._exit(1)
    os._exit(0)

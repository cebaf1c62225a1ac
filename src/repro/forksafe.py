"""One after-fork rule for the process-wide state of :mod:`repro`.

Scheduler workers and cluster ranks are forked from threaded parents, and
only the forking thread survives a fork: a lock another thread held at
that instant would stay held in the child for good.  So every lock of
the package is made by :func:`lock`, and the one handler below gives a
forked child all of them released, with ``_at_fork_reinit`` (what
CPython's :mod:`threading` does for its own locks).  No code forks inside
one of these critical sections.  DESIGN.md section 5, item 15 is the
table: per object, whether a child resets, keeps or drops it.
"""

from __future__ import annotations

import os
import threading
import weakref

__all__ = ["forked", "lock"]

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

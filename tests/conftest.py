"""Fixtures shared by the test modules."""

import pickle
from contextlib import nullcontext
from types import SimpleNamespace

import pytest

from greedymis import fanout


@pytest.fixture
def shutdowns():
    return []


@pytest.fixture
def pools(monkeypatch, shutdowns):
    """Record the worker count (jobs - 1) of each kept set started; drain
    each worker's job in-process at send, start no process."""
    made = []

    class InProcessWorkers:
        def __init__(self, count):
            made.append(count)
            self.procs = [None] * count
            self.counter = SimpleNamespace(value=0, get_lock=nullcontext)

        def send(self, payload):
            worker, argslist = pickle.loads(payload)
            self.done = []
            for _ in self.procs:
                try:
                    self.done.append(fanout._drain(self.counter, worker, argslist))
                except Exception as exc:  # sent back, as from a worker
                    self.done.append(exc)

        def replies(self):
            return self.done

        def stop(self):
            shutdowns.append(len(self.procs))

    monkeypatch.setattr(fanout, "_Workers", InProcessWorkers)
    # the kept workers would bypass the fake; the real ones are restored afterwards
    monkeypatch.setattr(fanout, "_pool", None)
    return made

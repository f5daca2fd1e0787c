"""Fixtures shared by the test modules."""

from concurrent.futures import Future

import pytest

from greedymis import experiments


@pytest.fixture
def shutdowns():
    return []


@pytest.fixture
def pools(monkeypatch, shutdowns):
    """Record each pool's max_workers; run its initializer and each task
    in-process, start no worker."""
    made = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            made.append(max_workers)
            self.max_workers = max_workers
            initializer(*initargs)

        def shutdown(self, wait=True):
            shutdowns.append((self.max_workers, wait))

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:  # read back through the future, as from a worker
                future.set_exception(exc)
            return future

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    # the kept pool would bypass the fake; the real one is restored afterwards
    monkeypatch.setattr(experiments, "_pool", None)
    monkeypatch.setattr(experiments, "_claim", None)  # the initializer sets it here
    return made

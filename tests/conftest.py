"""Fixtures shared by the test modules."""

import pytest

from greedymis import experiments


@pytest.fixture
def shutdowns():
    return []


@pytest.fixture
def pools(monkeypatch, shutdowns):
    """Record each pool's max_workers; map in-process, start no worker."""
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            made.append(max_workers)
            self.max_workers = max_workers

        def shutdown(self, wait=True):
            shutdowns.append((self.max_workers, wait))

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    # the kept pool would bypass the fake; the real one is restored afterwards
    monkeypatch.setattr(experiments, "_pool", None)
    return made

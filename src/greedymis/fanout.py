"""The pooled fan-out of the experiment runners.

``experiments._map_runs`` imports this module at its first call with more
than one process, so ``import greedymis`` and serial runs load neither it
nor ``multiprocessing``.
"""

from __future__ import annotations

import os
import threading
from multiprocessing import get_context, process
from multiprocessing.reduction import ForkingPickler

_pool: _Workers | None = None  # the kept worker processes
_pool_lock = threading.Lock()  # held across get-or-replace and the whole call


def _forget_pool() -> None:
    """In a forked child: the kept workers are the parent's, the lock may be held."""
    global _pool, _pool_lock
    if _pool is not None:  # else the child's exit would terminate the parent's daemons
        process._children.difference_update(_pool.procs)
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _drain(counter, worker, argslist):
    """Claim run indices from ``counter`` until it passes the end; return
    ``[(index, result), ...]``.  A raising run first moves the counter past
    the end, so every other drain stops after its current run."""
    end = len(argslist)
    lock = counter.get_lock()
    done = []
    try:
        while True:
            with lock:
                i = counter.value
                counter.value = i + 1
            if i >= end:
                return done
            done.append((i, worker(argslist[i])))
    except BaseException:
        counter.value = end
        raise


def _serve(conn, caller_end, counter) -> None:
    """A kept worker: drain each job that arrives on ``conn``, send back the
    drain's results or the exception that ended it; exit when the caller
    is gone."""
    import signal  # workers only: it would cost the caller 0.1 MiB

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    caller_end.close()  # a forked worker holds a copy, which would hide the caller's death
    while True:
        try:
            worker, argslist = conn.recv()
        except EOFError:  # the caller is gone
            return
        try:
            reply = _drain(counter, worker, argslist)
        except BaseException as exc:
            reply = exc
        try:
            conn.send(reply)
        except OSError:  # the caller is gone
            return
        except Exception as exc:  # a result that does not pickle: nothing was sent
            conn.send(exc)


class _Workers:
    """``count`` kept worker processes on one shared run counter, each fed
    on its own pipe."""

    def __init__(self, count: int) -> None:
        self.ctx = get_context()  # the counter's lock must come from the workers' start method
        self.counter = self.ctx.Value("q", 0)
        self.procs, self.conns = [None] * count, [None] * count
        for k in range(count):
            self._start(k)

    def _start(self, k: int) -> None:
        conn, child_end = self.ctx.Pipe()
        proc = self.ctx.Process(target=_serve, args=(child_end, conn, self.counter), daemon=True)
        proc.start()
        child_end.close()  # so that a dead worker reads as EOF here
        self.procs[k], self.conns[k] = proc, conn

    def send(self, payload) -> None:
        """Send the pickled job to every worker; replace one found dead."""
        for k in range(len(self.conns)):
            try:
                self.conns[k].send_bytes(payload)
            except OSError:  # it died since the last call
                self.procs[k].join()
                self.conns[k].close()
                self._start(k)
                self.conns[k].send_bytes(payload)

    def replies(self) -> list:
        """Each worker's reply: its ``[(index, result), ...]``, or the
        exception that ended its drain or the worker."""
        out = []
        for conn in self.conns:
            try:
                out.append(conn.recv())
            except (EOFError, OSError):
                from concurrent.futures.process import BrokenProcessPool

                out.append(BrokenProcessPool("a worker process died during the call"))
        return out

    def stop(self) -> None:
        """Terminate and reap every worker; they are idle or their replies unwanted."""
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()
        for conn in self.conns:
            conn.close()


def pooled_map(worker, argslist, jobs: int):
    """``[worker(a) for a in argslist]`` on ``jobs`` >= 2 processes: the
    caller and ``jobs - 1`` kept workers, each fed on its own pipe.

    A call pickles the job once, resets the run counter that the caller and
    the workers share, sends the job to each worker and then drains runs in
    the caller too: every process claims run after run from the counter,
    so load balances run by run, and each worker replies once with all its
    results.  A raising run moves the counter past the end, and the call
    reads every reply before it raises, so no drain outlives it; an
    interrupt that cuts the exchange short stops the workers instead.  The
    workers start at the first call and are kept for the life of the
    process (idle, they keep their memory and see module state as of their
    start).  A call at another width replaces them, one found dead at send
    is replaced, one that dies during a call raises ``BrokenProcessPool``,
    a forked child starts its own, and ``multiprocessing`` reaps these
    daemons at exit; a worker whose caller is killed exits at the end of
    its pipe.  Results keep run order.
    """
    global _pool
    payload = ForkingPickler.dumps((worker, argslist))  # a job that does not pickle reaches no worker
    results = [None] * len(argslist)
    with _pool_lock:
        if _pool is not None and len(_pool.procs) != jobs - 1:
            _pool.stop()
            _pool = None
        if _pool is None:
            _pool = _Workers(jobs - 1)
        pool = _pool
        pool.counter.value = 0
        settled = False
        try:
            pool.send(payload)
            try:
                mine = _drain(pool.counter, worker, argslist)
            finally:  # after a raising run too, so that no drain outlives the call
                theirs = pool.replies()
                settled = True
        finally:
            if not settled:  # an interrupt: a reply left unread would reach the next call
                pool.stop()
                _pool = None
        for reply in (mine, *theirs):
            if isinstance(reply, BaseException):
                raise reply
            for i, result in reply:
                results[i] = result
    return results

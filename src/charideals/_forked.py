"""The forked workers behind classify.imap_workers.

A module of its own so that only a run with workers imports it: every
command is a fresh process, and the others need none of it.  Each batch
goes to the worker that asks for one next, so a worker that gets less CPU
is dealt fewer batches instead of holding back the ones dealt to it.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from itertools import islice
from queue import SimpleQueue

_END = object()
_ASK = 4  # bytes in one request: a worker's index, written whole (<= PIPE_BUF)


def _serve(fn, index, asks, tasks, results, parent_ends, cpu):
    """A forked worker: answer each pickled batch read from fd `tasks` with
    a pickled (True, results) or (False, exception) on fd `results`, until
    the parent closes `tasks`.  It asks for a batch by writing its index to
    the shared request pipe `asks`: twice at start, then once after each
    answer.  Runs on CPU `cpu` alone where it may, and unpinned if cpu is
    None or pinning fails.  Never returns."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
        if cpu is not None:
            try:
                os.sched_setaffinity(0, (cpu,))
            except OSError:
                pass
        for fd in parent_ends:
            os.close(fd)
        request = index.to_bytes(_ASK, "little")
        with open(tasks, "rb") as inp, open(results, "wb") as out:
            ask = request * 2
            while True:
                try:
                    os.write(asks, ask)
                except OSError:  # the feeder has dealt its last batch
                    pass
                ask = request
                try:
                    batch = pickle.load(inp)
                except EOFError:
                    break
                try:
                    reply = pickle.dumps((True, [fn(x) for x in batch]), -1)
                except Exception as exc:
                    try:
                        reply = pickle.dumps((False, exc), -1)
                        pickle.loads(reply)
                    except Exception:  # an exception the parent could not rebuild
                        reply = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
                out.write(reply)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def imap_forked(fn, items, cpus, chunksize):
    """imap_workers over one forked process per entry of `cpus`, which
    imap_workers takes from the CPUs this process may run on, each at most
    once: no caller gets more workers than usable CPUs.

    The parent flushes stdout and stderr, then forks every worker before it
    starts any thread.  Worker i is pinned to cpus[i] alone (unpinned where
    that is None), as freshly forked workers left to the scheduler often
    share one CPU; the parent stays unpinned.  Each worker reads pickled
    batches from one pipe and writes pickled results to another.  A feeder
    thread reads `items` and deals each batch to the worker whose request
    it reads next from the shared request pipe, so a busier CPU gets fewer
    batches; with at most two unanswered per worker, an endless stream
    stays in bounded memory and each line is answered while later ones are
    unread.  The parent reads the results in input order, each from the
    worker its batch went to.
    """
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()  # or a worker would inherit the unwritten output
    pids, writers, readers = [], [], []
    asks = None  # the request pipe's read end, as a file
    dealt = SimpleQueue()  # a worker's index per batch dealt, then _END or what `items` raised

    def feed():
        try:
            it = iter(items)
            while True:
                try:
                    batch = list(islice(it, chunksize))
                    data = pickle.dumps(batch, -1)
                except BaseException as exc:  # raised again in its place in the output
                    dealt.put(exc)
                    return
                if not batch:
                    dealt.put(_END)
                    return
                # b"" when every worker is gone: then worker 0's reader says so
                worker = int.from_bytes(asks.read(_ASK), "little")
                # announced before it is written, so a batch for a dead worker
                # is read back as the end of that worker's results
                dealt.put(worker)
                try:
                    writers[worker].write(data)
                    writers[worker].flush()
                except OSError:
                    return
        finally:
            for f in (asks, *writers):  # each worker reads to the end of its input and exits
                try:
                    f.close()
                except OSError:
                    pass

    feeder = threading.Thread(target=feed, daemon=True)
    asks_r, asks_w = os.pipe()
    ends = [asks_w, asks_r]  # the request pipe's write end, then the parent's raw ends
    try:
        for index, cpu in enumerate(cpus):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            ends += (task_w, result_r)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, index, ends[0], task_r, result_w, ends[1:], cpu)
            finally:
                os.close(task_r)
                os.close(result_w)
            pids.append(pid)
        os.close(ends.pop(0))  # so the request pipe ends once every worker has
        asks = open(ends[0], "rb")
        writers = [open(fd, "wb") for fd in ends[1::2]]
        readers = [open(fd, "rb") for fd in ends[2::2]]
        ends.clear()
        feeder.start()
        while True:
            worker = dealt.get()
            if worker is _END:
                break
            if isinstance(worker, BaseException):
                raise worker
            try:
                ok, out = pickle.load(readers[worker])
            except (EOFError, pickle.UnpicklingError):
                pid = pids.pop(worker)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise ChildProcessError(f"worker process {pid} {how} before returning "
                                        f"its results") from None
            if not ok:
                raise out
            yield from out
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for f in readers:
            f.close()
        for fd in ends:
            os.close(fd)
        if feeder.ident is None:  # else the feeder closes them as it ends
            for f in (asks, *writers):
                if f is not None:
                    f.close()

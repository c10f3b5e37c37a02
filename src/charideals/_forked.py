"""The forked workers behind classify.imap_workers.

A module of its own so that only a run with workers imports it: every
command is a fresh process, and the others need none of it.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from itertools import count, islice
from queue import SimpleQueue

_END = object()


def _serve(fn, tasks, results, parent_ends, cpu):
    """A forked worker: answer each pickled batch read from fd `tasks` with
    a pickled (True, results) or (False, exception) on fd `results`, until
    the parent closes `tasks`.  Runs on CPU `cpu` alone where it may, and
    unpinned if cpu is None or pinning fails.  Never returns."""
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
        with open(tasks, "rb") as inp, open(results, "wb") as out:
            while True:
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
    thread reads `items` and deals the batches round-robin, with at most
    2 * workers unanswered, so an endless stream stays in bounded memory
    and each line is answered while later ones are unread.
    """
    workers = len(cpus)
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()  # or a worker would inherit the unwritten output
    pids, ends, writers, readers = [], [], [], []  # ends: the parent's raw pipe ends
    room = threading.Semaphore(2 * workers)
    dealt = SimpleQueue()  # None per batch dealt, then _END or what `items` raised
    stop = threading.Event()

    def feed():
        try:
            it = iter(items)
            for i in count():
                try:
                    batch = list(islice(it, chunksize))
                    data = pickle.dumps(batch, -1)
                except BaseException as exc:  # raised again in its place in the output
                    dealt.put(exc)
                    return
                if not batch:
                    dealt.put(_END)
                    return
                room.acquire()
                if stop.is_set():
                    return
                # announced before it is written, so a batch for a dead worker
                # is read back as the end of that worker's results
                dealt.put(None)
                try:
                    writers[i % workers].write(data)
                    writers[i % workers].flush()
                except OSError:
                    return
        finally:
            for w in writers:  # each worker reads to the end of its input and exits
                try:
                    w.close()
                except OSError:
                    pass

    feeder = threading.Thread(target=feed, daemon=True)
    try:
        for cpu in cpus:
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            ends += (task_w, result_r)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, task_r, result_w, ends, cpu)
            finally:
                os.close(task_r)
                os.close(result_w)
            pids.append(pid)
        writers = [open(fd, "wb") for fd in ends[0::2]]
        readers = [open(fd, "rb") for fd in ends[1::2]]
        ends.clear()
        feeder.start()
        for i in count():
            msg = dealt.get()
            if msg is _END:
                break
            if msg is not None:
                raise msg
            try:
                ok, out = pickle.load(readers[i % workers])
            except (EOFError, pickle.UnpicklingError):
                pid = pids.pop(i % workers)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise ChildProcessError(f"worker process {pid} {how} before returning "
                                        f"its results") from None
            room.release()
            if not ok:
                raise out
            yield from out
    finally:
        stop.set()
        room.release()  # a feeder waiting for room sees `stop`
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for f in readers:
            f.close()
        for fd in ends:
            os.close(fd)
        if feeder.ident is None:  # else the feeder closes them as it ends
            for w in writers:
                w.close()

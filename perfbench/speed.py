"""The speed of the CPUs the work runs on, to state times at a fixed speed.

    python3 speed.py CPU      sample CPU until SIGTERM, then print the
                              samples as one JSON list of [start, seconds]

The benchmark's machine is a shared VM whose CPUs each switch between a
fast and a slow state about 1.5x apart, often several times a second, and
the share of time spent in each drifts over minutes; CPU time slows with
the wall clock, so it does not help.  A sampler process pinned to each CPU
the work runs on times a fixed pure-Python kernel (products of small
polynomials with multi-word integer coefficients held in tuples, close to
charideals' arithmetic but none of its code) every PERIOD_S seconds.
Speed.scale turns a wall-clock interval into the time the same work takes
at the reference speed: the interval times the mean of REF_S / d over the
samples d taken in it.  A change to charideals moves the scaled times as it
moves the wall times; a change of the machine's state does not.
"""

import bisect
import json
import os
import signal
import subprocess
import sys
from time import monotonic, sleep

PERIOD_S = 0.01
# seconds of one kernel run at the reference speed: a round figure between
# its fast-state (0.0004 s) and slow-state (0.0007 s) times on the 2-vCPU
# Xeon VM that the unit times in run.py come from
REF_S = 0.0005
MIN_SAMPLES = 8  # an interval with fewer takes the nearest samples
# small polynomials with multi-word coefficients, as ideal bases over Z[t] get
_POLYS = tuple(tuple(c * 1000003 for c in p) for p in (
    (3, -1, 4, 1, -5), (-9, 2, 6, 5, -3), (5, 8, -9, 7, 9), (-3, 2, 3, 8, -4),
    (6, -2, 6, 4, 3), (-3, 8, 3, 2, -7), (9, 5, -2, 8, 8), (-4, 1, 9, 7, -1)))
_MOD = 2 ** 127 - 1


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def kernel():
    acc = (1,)
    for _ in range(6):
        for p in _POLYS:
            acc = _mul(acc, p)
            if len(acc) > 12:
                acc = tuple(c % _MOD for c in acc[:6])
    return acc


def sample(cpu):
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    samples = []
    # a sampler whose parent died stops by itself
    while not stop and os.getppid() == parent:
        sleep(PERIOD_S)
        t = monotonic()
        kernel()
        samples.append((t, monotonic() - t))
    json.dump(samples, sys.stdout)
    return 0


class Speed:
    """Sampler processes on `cpus` from start to stop(); scale() after."""

    def __init__(self, cpus):
        self.cpus = tuple(cpus)
        self.samples = {}
        self._procs = {}
        try:
            for cpu in self.cpus:
                self._procs[cpu] = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        except BaseException:
            self._halt()
            raise

    def _halt(self):
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for cpu, proc in self._procs.items():
            out, _ = proc.communicate()
            if proc.returncode == 0 and out:
                self.samples[cpu] = json.loads(out)
        self._procs = {}

    def stop(self):
        """Stop every sampler, wait for each and keep what it measured."""
        self._halt()
        missing = [c for c in self.cpus if len(self.samples.get(c, ())) < MIN_SAMPLES]
        if missing:
            raise RuntimeError(f"speed samplers on CPUs {missing} measured nothing")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._halt()

    def factor(self, a, b, cpus):
        """Mean speed over [a, b] on `cpus` relative to the reference."""
        rel = []
        for cpu in cpus:
            xs = self.samples[cpu]  # in time order
            lo = bisect.bisect_left(xs, a, key=lambda s: s[0])
            hi = bisect.bisect_right(xs, b, key=lambda s: s[0])
            if hi - lo < MIN_SAMPLES:
                # widen around the interval to the nearest MIN_SAMPLES samples
                lo = max(0, min((lo + hi - MIN_SAMPLES) // 2, len(xs) - MIN_SAMPLES))
                hi = lo + MIN_SAMPLES
            inside = [d for _, d in xs[lo:hi]]
            rel.extend(REF_S / d for d in inside)
        return sum(rel) / len(rel)

    def scale(self, a, b, cpus):
        """Seconds the work done in [a, b] on `cpus` takes at the reference speed."""
        return (b - a) * self.factor(a, b, cpus)


if __name__ == "__main__":
    sys.exit(sample(int(sys.argv[1])))

"""A fixed probe of how fast this process is running right now.

The machine the benchmark was built on (2 vCPUs of an Intel Xeon at
2.1 GHz) shares its host with other work.  The per-second median of a
fixed pure-Python loop ranged from 13 to 25 ms, in slow and fast spells
lasting 10 to 60 s, so two 15 s runs of identical code could differ by a
third in wall time.  Over windows of ten ``obstruct(11)`` calls (about
7 s each), the slowest window's median was 1.74 times the fastest's;
dividing each call by a probe run around it brought that to 1.11.

The benchmark therefore times this probe before and after every
operation, and every INTERVAL_S seconds during it, and reports each
operation's time scaled to REFERENCE_S: ``wall * REFERENCE_S / probe``,
with ``probe`` the mean of those timings and the time spent probing
during the operation taken out of ``wall``.  Sampling during the
operation matters for the long ones (n = 29 runs for about 8 s), whose
speed can change half way.  A change to the program moves the
operation and not the probe, so it shows in full; a spell of contention
slows both and cancels.  The probe is the benchmark's own code and must
not change, or figures from before and after the change stop being
comparable.  Its work is the two kernels that dominate sliceobs: a
fraction-free integer elimination and an elimination mod a word-size
prime.
"""

import signal
import statistics
import time

REFERENCE_S = 0.015    # the probe's time at the reference speed
REPEATS = 5            # runs of the work in one probe between operations
INTERVAL_S = 0.5       # wall time between runs of the work during an operation


def _matrix(side, seed):
    x, rows = seed, []
    for _ in range(side):
        row = []
        for _ in range(side):
            x = (x * 1103515245 + 12345) % 2 ** 31
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


_INT_ROWS = _matrix(32, 1)
_MOD_ROWS = _matrix(48, 2)
_PRIME = 2 ** 31 - 1


def _bareiss(rows):
    m = [r[:] for r in rows]
    n, prev = len(m), 1
    for k in range(n - 1):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        pk, rk = m[k][k], m[k]
        for i in range(k + 1, n):
            ri, a = m[i], m[i][k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - a * rk[j]) // prev
        prev = pk
    return m[-1][-1]


def _elimination_mod(rows, p):
    m = [[v % p for v in r] for r in rows]
    n, det = len(m), 1
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        inv, rk = pow(m[k][k], p - 2, p), m[k]
        det = det * m[k][k] % p
        for i in range(k + 1, n):
            ri = m[i]
            f = ri[k] * inv % p
            if f:
                for j in range(k, n):
                    ri[j] = (ri[j] - f * rk[j]) % p
    return det


def _work():
    t0 = time.perf_counter()
    _bareiss(_INT_ROWS)
    _elimination_mod(_MOD_ROWS, _PRIME)
    return time.perf_counter() - t0


def probe():
    """Median wall time of REPEATS runs of the fixed work."""
    return statistics.median(_work() for _ in range(REPEATS))


class Sampler:
    """Runs the fixed work once every INTERVAL_S seconds while an operation
    runs, from a SIGALRM handler in the operation's own thread.

    ``samples`` are the times of those runs and ``spent`` the wall time the
    handler took, which the caller subtracts from the operation's time.
    The handler runs between bytecodes, so the operation is paused, not
    overlapped.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_work())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

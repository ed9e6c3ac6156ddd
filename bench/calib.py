"""Host speed calibration for the benchmark's end-to-end times.

Times in the end-to-end metrics are given at the speed of a reference host.
Before and after every operation and set-up, the runner asks a calibration
process how slow the host runs now relative to that host (1.0 there), and
divides the step's wall time by the mean of the two answers. Other tenants
of a shared host change the speed of plengths and of the calibration loops
alike, by a third over minutes, so the scaled times hold still where the raw
ones do not. The runner prints and records the raw figures beside them.

The loops run in a process of their own, started once per run, so that the
runner stays small: a child started from a large parent reports the
parent's resident size as its own peak, which would hide plengths' peak RSS.

Usage: python3 bench/calib.py  (reads one line per measurement on standard
input and answers each with the slowness on standard output)
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# The two loops' times on the reference host, a 2-core Intel Xeon VM at its
# usual speed.
CALIB_REF_S = (0.040, 0.045)


def slowness() -> float:
    """How slow the host runs now, relative to the reference host (1.0 there).

    Times two fixed pure-Python loops of the kinds of work plengths does, and
    averages each one's time over its reference time. The first fills a
    shortest-factorization table and keeps big-integer remainders in a dict;
    it fits in cache, as the small operations do. The second allocates a
    list of a million ints, larger than the cache as the big tables are, and
    updates it at pseudo-random places. The load of other tenants slows the
    two kinds of work by different amounts, and plengths' operations by
    amounts in between. Neither loop touches plengths.
    """
    t0 = time.perf_counter()
    n = 100_000
    best = [0] + [n] * n
    for g in (6, 9, 20):
        for i in range(g, n + 1):
            v = best[i - g] + 1
            if v < best[i]:
                best[i] = v
    seen: dict[int, int] = {}
    x = 70**12
    for i in range(1, 50_000):
        r = x % i
        seen[r] = seen.get(r, 0) + 1
    t1 = time.perf_counter()
    size = 1 << 20
    table = list(range(size))
    idx = acc = 1
    for _ in range(20_000):
        idx = (idx * 1103515245 + 12345) & (size - 1)
        acc += table[idx]
        table[idx] = acc & 1023
    t2 = time.perf_counter()
    assert best[n] == n // 20 and len(seen) > 1 and acc > 0
    return ((t1 - t0) / CALIB_REF_S[0] + (t2 - t1) / CALIB_REF_S[1]) / 2



class Calibrator:
    """The calibration process, driven from the runner. Use as a context
    manager: leaving it ends the process and waits for it."""

    def __enter__(self) -> "Calibrator":
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.measure()  # warm-up, not recorded
        return self

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("calibration process ended early")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main() -> None:
    for _ in sys.stdin:
        print(repr(slowness()), flush=True)


if __name__ == "__main__":
    main()

"""A fixed pure-Python kernel that measures how fast the machine is right now.

Shared machines drift: the same repeat of the same scenario can take 0.65 s
one minute and 1.1 s a few minutes later, while steal time stays near zero
(neighbours compete for caches and memory bandwidth).  Every timing the
benchmark reports is therefore divided by the wall time of this kernel,
measured right next to it, and multiplied by ``REFERENCE_SECONDS``.

The kernel runs in a helper process (:class:`Helper`, this file run as a
script) that never imports ``antinef``; the process being measured asks it
for one timing at a time and waits, so the two never run at once.  What a
run of the program leaves in its own process (heap, caches, imports)
therefore cannot move the denominator.  The kernel does the same kind of
work as the program (``Fraction`` elimination, dict-keyed polynomial
products, small-int loops).
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

#: The kernel's wall time on a quiet 2-core sandbox (Python 3.11); reported
#: seconds are wall seconds scaled to a machine this fast.
REFERENCE_SECONDS = 0.03


def kernel() -> int:
    n = 14
    a = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + (n if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / pivot
            for k in range(c, n):
                a[r][k] -= factor * a[c][k]
    f = {(0, 0): 1}
    g = {(i, j): (i * 3 + j) % 7 - 3 for i in range(6) for j in range(6)}
    for _ in range(6):
        out: dict = {}
        for (a1, b1), c1 in f.items():
            for (a2, b2), c2 in g.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        f = out
    s = 0
    for i in range(200000):
        s += i * i % 7
    return s + len(f)


def seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Helper:
    """The kernel in a separate process, timed on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def serve():
    """Time the kernel once per line read from stdin and write the seconds."""
    seconds()  # warm-up, not reported
    for _ in sys.stdin:
        print(seconds(), flush=True)


if __name__ == "__main__":
    serve()

"""Host-speed calibration for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts by
±25% over seconds to minutes, whatever the program does.  A fixed kernel of
the benchmark's own, pure Python of the same kinds as the program's hot
loops, is timed in short slices between requests.  The end-to-end times
are then reported in reference seconds:

    reference seconds = measured seconds × REF_SLICE_S / median slice time

where the slices are those taken nearest the request (or around the
set-up): the time the work would have taken on the host at the speed at
which one slice takes REF_SLICE_S.  The kernel never changes with the program, so a change to the
program moves only the measured seconds.  Raw seconds and slice times are
kept in the report line.

Work done in child processes (interpreter start-up, imports) does not follow
an in-process kernel.  The `python -m landau` requests are calibrated by
`child_kernel`, a fresh interpreter that imports numpy (the dependency that
dominates `import landau`) and then runs the kernel, a mix of start-up and
compute like theirs; the import time in set-up by an import of numpy timed
in the child (REF_IMPORT_S).
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

# median slice time on the reference host (2-vCPU Intel Xeon VM, CPython 3.11)
REF_SLICE_S = 0.0012
EVERY_S = 0.02  # a slice runs between requests once this much time has passed since the last
# the same for `child_kernel`, and for the import of numpy in a fresh interpreter
REF_CHILD_S = 0.2
REF_IMPORT_S = 0.08
CHILD_KERNEL_REPS = 10
CHILD_EVERY_S = 0.5  # child slices are dear: one after every other `python -m landau` request
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def kernel() -> None:
    """A fixed mix of the program's kinds of work, as the requests mix them:
    a knapsack-style DP over a short list (float compares, tuple chains), an
    exact rational sum (big-integer products and gcds) and per-prime terms
    (dicts, sorting, powers, logs)."""
    n = 500
    logs = [0.0] * (n + 1)
    chains: list = [None] * (n + 1)
    for step in PRIMES[:5]:
        w = math.log(step)
        for j in range(n, step - 1, -1):
            cand = logs[j - step] + w
            if cand > logs[j]:
                logs[j] = cand
                chains[j] = (step, chains[j - step])
    num, den = 0, 1
    for k in range(1, 200):
        num, den = num * k * k + den, den * k * k
        g = math.gcd(num, den)
        num, den = num // g, den // g
    for r in range(12):
        a = {p: (p + r) % 4 for p in PRIMES}
        b = {p: (7 * p + r) % 5 for p in PRIMES[::2]}
        terms = {}
        for p in sorted(a.keys() | b.keys()):
            x, y = a.get(p, 0), b.get(p, 0)
            terms[p] = (p**y if y else 0) - (p**x if x else 0) - 1.5 * (y - x) * math.log(p)
        math.fsum(terms.values())


def child_kernel(env: dict, timeout: float):
    """A kernel that starts a fresh interpreter, imports numpy and runs
    `kernel` CHILD_KERNEL_REPS times."""
    here = str(Path(__file__).resolve().parent)
    code = f"import sys; sys.path.insert(0, {here!r}); import numpy, bench_calib as c\n"
    code += f"for _ in range({CHILD_KERNEL_REPS}): c.kernel()"
    cmd = [sys.executable, "-c", code]
    return lambda: subprocess.run(cmd, env=env, check=True, timeout=timeout)


class Calibration:
    """Slice times of a kernel, taken between requests."""

    def __init__(self, kern=kernel, ref_s=REF_SLICE_S, every_s=EVERY_S):
        self.kernel, self.ref_s, self.every_s = kern, ref_s, every_s
        self.slices: list[float] = []
        self._last = 0.0

    def slice(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.slices.append(t1 - t0)
        self._last = t1

    def maybe(self) -> None:
        """A slice, if `every_s` has passed since the last one."""
        if time.perf_counter() - self._last >= self.every_s:
            self.slice()

    def burst(self, k: int) -> None:
        for _ in range(k):
            self.slice()

    def median(self, start: int = 0, stop: int | None = None) -> float:
        return statistics.median(self.slices[start:stop])

    def to_ref(self, seconds: float, start: int = 0, stop: int | None = None) -> float:
        """`seconds` measured while slices[start:stop] were taken, in reference seconds."""
        return seconds * self.ref_s / self.median(start, stop)

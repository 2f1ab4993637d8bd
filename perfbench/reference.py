"""Reference kernels that measure the machine's speed during a run.

The shared machines this benchmark runs on change speed in phases that
last from seconds to minutes, and such a phase slows every unit of a run
alike.  A run therefore times a fixed reference kernel before the first
unit and after every step of every unit, and reports each unit's time
at the kernel's speed (``ratio``), scaled by the kernel's nominal time.
The kernels use only the standard library and never call ``vincular``,
so a change to the program cannot change them; each does the same kind
of work as the workloads that use it, so that a phase slows it as much
as it slows them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations, permutations


def fraction_series(order: int = 60, reps: int = 9) -> Fraction:
    """Products and quotients of power series with rational coefficients."""
    total = Fraction(0)
    for s in range(reps):
        f = [Fraction(k + 1 + s, 2 * k + 3) for k in range(order + 1)]
        g = [Fraction(1)] + [Fraction(-1, k + 2) for k in range(order)]
        p = [Fraction(0)] * (order + 1)
        for i, a in enumerate(f):
            for j in range(order + 1 - i):
                p[i + j] += a * g[j]
        q = [Fraction(0)] * (order + 1)
        for n in range(order + 1):
            acc = p[n]
            for k in range(n):
                acc -= q[k] * g[n - k]
            q[n] = acc
        total += sum(q)
    return total


def int_recurrence(n: int = 100, reps: int = 6) -> int:
    """A triangular recurrence on big integers, filled cell by cell."""
    total = 0
    for s in range(reps):
        t = [[0] * (n + 2) for _ in range(n + 2)]
        t[0][0] = 1 + s
        for m in range(1, n + 1):
            row, prev = t[m], t[m - 1]
            for j in range(1, m + 1):
                row[j] = sum(prev[i] * (j - i + 1) for i in range(j)) + prev[j]
        total += sum(t[n])
    return total


def perm_scan(n: int = 8, reps: int = 4) -> int:
    """Permutations of 1..n avoiding 1-32 (the 3 and 2 adjacent), by scanning."""
    count = 0
    for _ in range(reps):
        for w in permutations(range(1, n + 1)):
            for i, j in combinations(range(n - 1), 2):
                if w[i] < w[j + 1] < w[j]:
                    break
            else:
                count += 1
    return count


def ratio(steps: list[float], refs: list[float]) -> float:
    """A time at the kernel's speed: the sum of the steps' times, each over
    the mean of the kernel's times just before and just after it
    (``refs[i]`` and ``refs[i + 1]`` for ``steps[i]``)."""
    return sum(s / ((refs[i] + refs[i + 1]) / 2) for i, s in enumerate(steps))


# Each workload's kernel and its nominal time in seconds: the kernel's
# median time on a 2-core Intel Xeon virtual machine, Python 3.11.7.  A
# kernel runs longer where the units are longer (about 2-3 s against
# 1.2 s for dp-table), so that it samples the machine's speed over more
# of each unit's neighbourhood.
KERNELS = {
    "gf-count": (partial(fraction_series, reps=18), 0.34),
    "gf-weighted": (partial(fraction_series, reps=18), 0.34),
    "dp-table": (int_recurrence, 0.2),
    "oracle-cells": (partial(perm_scan, reps=8), 0.4),
}

# The kernel timed around set-up-only workers, and its nominal time.
SETUP_KERNEL = (partial(int_recurrence, reps=3), 0.1)

"""The four benchmark workloads: inputs from a seed, set-up, a unit, a check.

Each workload drives one exact route of ``vincular`` through its public
API.  ``prepare`` is the set-up (anything built before timing starts) and
returns two callables: ``unit(pause)`` does one timed piece of work and
returns its output, ``check`` says whether that output is exactly right.
A unit made of separate calls calls ``pause()`` between them, where the
benchmark may time its reference kernel (see ``reference.py``).  Modules
are called through their attributes (``genfun.A_series``, not a bound
name) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import Callable

from vincular import checks, genfun, tables

# Sizes used by the benchmark; chosen so one unit takes roughly 1-3 s on a
# 2-core machine with the fractions.Fraction coefficient ring.
SIZES = {"gf-count": 4, "gf-weighted": 3, "dp-table": 80, "oracle-cells": 8}

# Tiny sizes for the benchmark's own smoke tests.
SMOKE_SIZES = {"gf-count": 2, "gf-weighted": 2, "dp-table": 12, "oracle-cells": 5}

NAMES = tuple(SIZES)

# Weights for gf-weighted: rationals of equal height 7.  1/7 is left out
# because it ran measurably cheaper than the others.
WEIGHTS = tuple(Fraction(k, 7) for k in range(2, 7))

# sha256 of "a_1,a_2,...,a_N" from build_tables(N), pinned from the
# recurrence code as first imported, before anything was timed.
DP_DIGESTS = {
    12: "9858244b711a1c388bb49edb1bdc25533f59389a8bbca84ca092271b163336b4",
    80: "7ec4fbee6e6a697af658698b2b4d050e4b9b435348c147da41e76e5e6f50c0f1",
}

Unit = Callable[[Callable[[], None]], object]
Check = Callable[[object], bool]


def inputs(name: str, seed: int, size: int | None = None) -> dict:
    """The workload's inputs; only gf-weighted's depend on the seed."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    inp = {"N": SIZES[name] if size is None else size}
    if name == "gf-weighted":
        inp["u"] = random.Random(seed).choice(WEIGHTS)
    return inp


def digest(a: list[int], N: int) -> str:
    return hashlib.sha256(",".join(map(str, a[1 : N + 1])).encode()).hexdigest()


def prepare(name: str, inp: dict) -> tuple[Unit, Check]:
    return _PREPARE[name](inp)


def _gf_count(inp: dict) -> tuple[Unit, Check]:
    N = inp["N"]
    want = [0, *checks.REFERENCE_A[: N - 1]]

    def unit(pause):
        genfun.clear_caches()
        return genfun.a_from_series(genfun.A_series(N))

    return unit, lambda out: out == want


def _weighted_marginals(t: tables.Tables, u: Fraction) -> tuple[list, list]:
    """Coefficients 0..N of the u-weighted b and c series, from the tables."""
    b = [sum(t.b_last[n][j] * u ** (j - 1) for j in range(1, n + 1)) for n in range(t.N + 1)]
    c = [sum(t.c_last[n][j] * u ** (j - 2) for j in range(2, n + 1)) for n in range(t.N + 1)]
    return b, c


def _gf_weighted(inp: dict) -> tuple[Unit, Check]:
    N, u = inp["N"], inp["u"]
    want = _weighted_marginals(tables.build_tables(N), u)

    def unit(pause):
        genfun.clear_caches()
        b = genfun.B1u_series(u, N)
        pause()
        return b, genfun.C1u_series(u, N)

    def check(out) -> bool:
        b, c = out
        return (list(b.coeffs), list(c.coeffs)) == want

    return unit, check


def _dp_table(inp: dict) -> tuple[Unit, Check]:
    N = inp["N"]
    want_digest = DP_DIGESTS[N]
    upto = min(N, len(checks.REFERENCE_A))

    def check(t: tables.Tables) -> bool:
        return (
            tuple(t.a[1 : upto + 1]) == checks.REFERENCE_A[:upto]
            and digest(t.a, N) == want_digest
        )

    return (lambda pause: tables.build_tables(N)), check


def _oracle_cells(inp: dict) -> tuple[Unit, Check]:
    n = inp["N"]
    t = tables.build_tables(n)
    return (lambda pause: checks.check_oracle_dp(t, n)), (lambda res: res.passed)


_PREPARE = {
    "gf-count": _gf_count,
    "gf-weighted": _gf_weighted,
    "dp-table": _dp_table,
    "oracle-cells": _oracle_cells,
}

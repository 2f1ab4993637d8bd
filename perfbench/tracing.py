"""Span tracing installed from outside the program.

:class:`Tracer` replaces public functions of ``vincular`` with wrappers
that record one span per call: (run id, span id, parent span id, name,
start, end, self time), all in nanoseconds from ``perf_counter_ns``.  Spans
stay in memory until :meth:`Tracer.write`.  Counters are kept at the same
boundaries: operand orders of series products and quotients, allocated
table cells, oracle words.

Self time is a span's duration minus the time its traced children took,
so private helpers count as self time of their public caller.  The time a
result hook spends counting is charged to no span; it is part of the
tracing overhead.
"""

from __future__ import annotations

from math import factorial
from time import perf_counter_ns

from vincular import checks, genfun, oracle, powerseries, tables

GENFUN = (
    "A_series",
    "B11_series",
    "C11_series",
    "V0_series",
    "V1_series",
    "B1u_series",
    "C1u_series",
    "a_from_series",
)
TABLES = ("compute_v", "compute_c", "compute_b", "compute_a")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.run = 0
        self._stack: list[list[int]] = []  # [child_ns, span_id] per open span
        self._patches: list[tuple] = []

    def begin(self, run: int) -> int:
        """Start run id ``run``; returns the index of its first span."""
        self.run = run
        self.counts = {}
        return len(self.spans)

    def call(self, name: str, fn, args: tuple, hook=None):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [0, span_id]
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.spans[span_id] = (self.run, span_id, parent, name, t0, t1, t1 - t0 - frame[0])
            if stack:
                stack[-1][0] += t1 - t0
        if hook is not None:
            hook(self.counts, args, result)
            if stack:
                stack[-1][0] += perf_counter_ns() - t1
        return result

    def wrap(self, name: str, fn, hook=None):
        def traced(*args):
            return self.call(name, fn, args, hook)

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Put the wrappers in place; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        S = powerseries.Series
        mul, div = S.__mul__, S.__truediv__
        mul_hook, div_hook = _series_hook("mul"), _series_hook("div")

        # Only Series-by-Series products and quotients are dense kernels;
        # scaling by a scalar is linear and stays in the caller's self time.
        def traced_mul(a, b):
            if isinstance(b, S):
                return self.call("powerseries.mul", mul, (a, b), mul_hook)
            return mul(a, b)

        def traced_div(a, b):
            if isinstance(b, S):
                return self.call("powerseries.div", div, (a, b), div_hook)
            return div(a, b)

        self._patch(S, "__mul__", traced_mul)
        self._patch(S, "__rmul__", traced_mul)
        self._patch(S, "__truediv__", traced_div)
        for fn in GENFUN:
            self._patch(genfun, fn, self.wrap(f"genfun.{fn}", getattr(genfun, fn)))
        for fn in TABLES:
            self._patch(tables, fn, self.wrap(f"tables.{fn}", getattr(tables, fn)))
        self._patch(tables, "build_tables",
                    self.wrap("tables.build_tables", tables.build_tables, _count_cells))
        self._patch(oracle, "oracle_report",
                    self.wrap("oracle.oracle_report", oracle.oracle_report, _count_words))
        # perms functions are wrapped where oracle binds them, so
        # avoids_circular's own scans count as its self time.
        for fn in ("avoids_linear", "avoids_circular"):
            self._patch(oracle, fn, self.wrap(f"perms.{fn}", getattr(oracle, fn)))
        self._patch(checks, "check_oracle_dp",
                    self.wrap("checks.check_oracle_dp", checks.check_oracle_dp))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def aggregate(self, first: int) -> dict:
        """Raw per-name totals of the spans from index ``first`` on, plus counters."""
        spans: dict[str, list[int]] = {}
        for _, _, _, name, t0, t1, self_ns in self.spans[first:]:
            acc = spans.setdefault(name, [0, 0, 0])
            acc[0] += 1
            acc[1] += self_ns
            acc[2] += t1 - t0
        return {"spans": spans, "counts": dict(self.counts)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run,span,parent,name,start_ns,end_ns,self_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def _add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def _series_hook(op: str):
    key = f"powerseries.{op}_terms"

    def hook(counts: dict, args: tuple, result) -> None:
        a, b = args
        n = min(a.order, b.order)
        _add(counts, key, (n + 1) * (n + 2) // 2)
        counts["powerseries.max_order"] = max(counts.get("powerseries.max_order", 0), a.order, b.order)
        _add(counts, "powerseries.coeffs", len(result.coeffs))
        _add(counts, "powerseries.nonint", sum(1 for c in result.coeffs if c.denominator != 1))

    return hook


def _count_cells(counts: dict, args: tuple, t) -> None:
    cells = sum(len(row) for grid in (*t.b_cells, *t.c_cells) for row in grid)
    _add(counts, "tables.cells", cells)


def _count_words(counts: dict, args: tuple, rep) -> None:
    _add(counts, "oracle.words", factorial(rep.n))


def merge(a: dict, b: dict) -> dict:
    """Raw totals of two aggregates, as if recorded in one run."""
    spans = {k: list(v) for k, v in a["spans"].items()}
    for name, vals in b["spans"].items():
        acc = spans.setdefault(name, [0, 0, 0])
        for i, v in enumerate(vals):
            acc[i] += v
    counts = dict(a["counts"])
    for key, v in b["counts"].items():
        counts[key] = max(counts.get(key, 0), v) if key == "powerseries.max_order" else counts.get(key, 0) + v
    return {"spans": spans, "counts": counts}


def layer_metrics(agg: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics from one aggregate.

    Every ``_s`` metric is self time, except ``oracle.oracle_report_s`` and
    ``checks.check_oracle_dp_s``, which include their children: the first
    is the whole brute-force scan and the difference between the two is
    the cost of comparing the tables with it.
    """
    spans, counts = agg["spans"], agg["counts"]

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def self_s(name):
        return spans.get(name, (0, 0, 0))[1] / 1e9

    def total_s(name):
        return spans.get(name, (0, 0, 0))[2] / 1e9

    out: dict[str, float] = {}
    for op in ("mul", "div"):
        out[f"powerseries.{op}_calls"] = calls(f"powerseries.{op}")
        out[f"powerseries.{op}_s"] = self_s(f"powerseries.{op}")
        out[f"powerseries.{op}_terms"] = counts.get(f"powerseries.{op}_terms", 0)
    out["powerseries.max_order"] = counts.get("powerseries.max_order", 0)
    coeffs = counts.get("powerseries.coeffs", 0)
    out["powerseries.nonint_share"] = counts.get("powerseries.nonint", 0) / coeffs if coeffs else 0.0
    for fn in GENFUN:
        out[f"genfun.{fn}_calls"] = calls(f"genfun.{fn}")
        out[f"genfun.{fn}_s"] = self_s(f"genfun.{fn}")
    for fn in TABLES:
        out[f"tables.{fn}_s"] = self_s(f"tables.{fn}")
    out["tables.cells"] = counts.get("tables.cells", 0)
    report_s = total_s("oracle.oracle_report")
    out["oracle.oracle_report_s"] = report_s
    out["oracle.words"] = counts.get("oracle.words", 0)
    out["oracle.words_per_s"] = out["oracle.words"] / report_s if report_s else 0.0
    for fn in ("avoids_linear", "avoids_circular"):
        out[f"perms.{fn}_calls"] = calls(f"perms.{fn}")
        out[f"perms.{fn}_s"] = self_s(f"perms.{fn}")
    out["checks.check_oracle_dp_s"] = total_s("checks.check_oracle_dp")
    return out


# Metrics that are exact counts and must repeat exactly between runs.
EXACT = tuple(
    [f"powerseries.{op}_{k}" for op in ("mul", "div") for k in ("calls", "terms")]
    + ["powerseries.max_order"]
    + [f"genfun.{fn}_calls" for fn in GENFUN]
    + ["tables.cells", "oracle.words"]
    + [f"perms.{fn}_calls" for fn in ("avoids_linear", "avoids_circular")]
)

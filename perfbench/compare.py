"""Compare two sets of saved untraced results against the benchmark's bounds.

    python3 perfbench/compare.py --base OLD/*.json --new NEW/*.json

Each file is one result saved by ``run.py`` under ``perfbench/out/``.  For
every workload and end-to-end metric it prints each side's median and
quartiles and whether the new median is worse than the base median by
more than the bound in ``BENCHMARK.json``.  It refuses, with exit code 2,
to compare results whose gmpy2 status differs: figures taken with gmpy2
are not comparable with the fractions.Fraction baseline.  Exit code 1
means some metric got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    out = [json.loads(Path(p).read_text()) for p in paths]
    return [r for r in out if r["trace"] == 0]


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]!r} (1 run)"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"median {med!r} quartiles {q1!r}..{q3!r} ({len(values)} runs)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    gmpy2 = {r["env"]["gmpy2"] for r in base + new}
    if len(gmpy2) > 1:
        print("compare: refusing to compare results with and without gmpy2", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(workload)
        for m in spec:
            name, bound = m["name"], m["bound"]
            b = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            n = [r["metrics"][name]["value"] for r in new if r["workload"] == workload]
            change = statistics.median(n) / statistics.median(b) - 1
            if m["better"] == "higher":
                change = -change
            verdict = "WORSE beyond bound" if change > bound else "within bound"
            worse += change > bound
            print(f"  {name}: base {spread(b)}; new {spread(n)}; "
                  f"worse by {change:+.1%} (bound {bound:.0%}): {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: counting, tables, series, verification.

Pattern grammar (only this module parses pattern text): a pattern is a
sequence of runs separated by hyphens or whitespace.  Letters inside a
run are glued, i.e. they must sit in adjacent positions of any
occurrence; letters in different runs may sit anywhere apart.  Within a
run, letters above 9 are joined with underscores.  Examples::

    23-4-1     letters 2,3,4,1 with 2 glued to 3 (the default)
    12-3       letters 1,2,3 with 1 glued to 2
    4-1-23     letters 4,1,2,3 with 2 glued to 3
    1_11-2     letters 1,11,2 with 1 glued to 11

The recurrence (dp) and series (gf) engines are specific to the default
pattern; anything else needs the brute-force oracle, which is capped at
a configurable size because it scans up to n! words.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import checks, genfun, oracle
from .perms import VincularPattern
from .powerseries import Q, as_int
from .tables import CELLS_MAX, build_tables, check_conjectures

DEFAULT_PATTERN_TEXT = "23-4-1"


def parse_pattern(text: str) -> VincularPattern:
    """Parse run-grammar pattern text, e.g. "23-4-1" or "2_3 4 1"."""
    runs = [run for chunk in text.split() for run in chunk.split("-")]
    if not runs or any(not run for run in runs):
        raise ValueError(f"malformed pattern text {text!r}")
    letters: list[int] = []
    bonds: set[int] = set()
    for run in runs:
        parts = run.split("_") if "_" in run else list(run)
        if any(not part.isdigit() or int(part) == 0 for part in parts):
            raise ValueError(f"bad run {run!r} in pattern text {text!r}")
        first = len(letters)
        letters.extend(int(part) for part in parts)
        bonds.update(range(first, len(letters) - 1))
    return VincularPattern(tuple(letters), frozenset(bonds))


def _rational(text: str) -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _values_payload(sequence: str, pairs) -> str:
    doc = {
        "sequence": sequence,
        "values": [{"n": n, "value": str(value)} for n, value in pairs],
    }
    return json.dumps(doc, indent=2)


def _csv_payload(pairs) -> str:
    lines = ["n,value"]
    lines.extend(f"{n},{value}" for n, value in pairs)
    return "\n".join(lines) + "\n"


def _plain_table(pairs) -> str:
    rows = [(str(n), str(value)) for n, value in pairs]
    wn = max(len(r[0]) for r in rows)
    wv = max(len(r[1]) for r in rows)
    return "\n".join(f"{r[0]:>{wn}}  {r[1]:>{wv}}" for r in rows) + "\n"


def _count_one(engine: str, n: int, pattern: VincularPattern,
               linear: bool, args) -> int:
    if engine == "oracle":
        if n > args.oracle_cap and not args.force_oracle:
            raise SystemExit(
                f"error: oracle scans up to {n}! words; n > cap "
                f"({args.oracle_cap}); pass --force-oracle to insist")
        if linear:
            if pattern == oracle.CIRCULAR_PATTERN:
                return oracle.count_L(n)
            return oracle.count_linear_avoiders(n, (pattern,))
        return oracle.count_circular_avoiders(n, (pattern,))
    if pattern != oracle.CIRCULAR_PATTERN:
        raise SystemExit(
            f"error: the {engine} engine only counts the default pattern "
            f"{DEFAULT_PATTERN_TEXT}; use --engine oracle")
    if engine == "dp":
        if linear:
            return build_tables(n).a[n]
        return 1 if n == 1 else build_tables(n - 1).a[n - 1]
    if engine == "gf":
        if linear:
            return as_int(genfun.A_series(n + 1)[n + 1])
        return as_int(genfun.A_series(n)[n])
    raise SystemExit(f"error: unknown engine {engine!r}")


def cmd_count(args) -> int:
    if args.n < 1:
        raise SystemExit("error: --n must be positive")
    try:
        pattern = parse_pattern(args.pattern)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    engines = ["oracle", "dp", "gf"] if args.engine == "all" else [args.engine]
    values = {eng: _count_one(eng, args.n, pattern, args.linear, args)
              for eng in engines}
    if args.engine == "all":
        width = max(len(eng) for eng in values)
        for eng, val in values.items():
            print(f"{eng:<{width}}  {val}")
        agree = len(set(values.values())) == 1
        print("MATCH" if agree else "MISMATCH")
        return 0 if agree else 1
    print(values[args.engine])
    return 0


def cmd_table(args) -> int:
    if args.N < 1:
        raise SystemExit("error: --N must be positive")
    a = build_tables(args.N).a
    pairs = [(n, a[n]) for n in range(1, args.N + 1)]
    if args.format == "json":
        _emit(_values_payload("a", pairs))
    elif args.format == "csv":
        _emit(_csv_payload(pairs))
    else:
        _emit(_plain_table(pairs))
    return 0


_SERIES_BUILDERS = {
    "A": genfun.A_series,
    "B11": genfun.B11_series,
    "C11": genfun.C11_series,
    "V1": genfun.V1_series,
    "V0": genfun.V0_series,
}


def cmd_series(args) -> int:
    if args.order < 1:
        raise SystemExit("error: --order must be positive")
    weighted = args.v is not None or args.u is not None
    if weighted and args.gf != "A":
        raise SystemExit("error: --v/--u apply only to --gf A")
    try:
        if weighted:
            v = args.v if args.v is not None else Q(1)
            u = args.u if args.u is not None else Q(1)
            series = genfun.A_vu_series(v, u, args.order)
        else:
            series = _SERIES_BUILDERS[args.gf](args.order)
    except genfun.KernelSpecializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    pairs = [(n, str(series[n])) for n in range(series.order + 1)]
    if args.format == "json":
        _emit(_values_payload(args.gf, pairs))
    elif args.format == "csv":
        _emit(_csv_payload(pairs))
    else:
        print(",".join(value for _, value in pairs))
    return 0


def cmd_verify(args) -> int:
    try:
        results = checks.run_all(
            oracle_max=args.oracle_cap,
            reduction_max=args.reduction_max,
            table_n=args.N,
            order=args.order,
            fault=args.inject_fault,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    failed = [res for res in results if not res.passed]
    total = len(results)
    if args.format == "json":
        doc = {
            "checks": [asdict(res) for res in results],
            "total": total,
            "failed": len(failed),
            "seconds": sum(res.seconds for res in results),
        }
        _emit(json.dumps(doc, indent=2))
        return 1 if failed else 0
    for res in results:
        print(res.line())
    if failed:
        print(f"{len(failed)} of {total} checks FAILED")
        return 1
    print(f"all {total} checks passed")
    return 0


def cmd_conjectures(args) -> int:
    if args.N < 2:
        raise SystemExit("error: --N must be at least 2")
    a = build_tables(args.N).a
    rep = check_conjectures(a)
    all_hold = rep.power_inequality_holds
    for n, holds in enumerate(rep.power_holds, 1):
        verdict = "holds" if holds else "FAILS"
        print(f"n={n}: {a[n]}^{n + 1} < {a[n + 1]}^{n}: {verdict}")
    print(f"a_n^(n+1) < a_(n+1)^n for 1 <= n < {args.N}: "
          f"{'all hold' if all_hold else 'FAILS'} (checked, not proven)")
    ratios = "strictly increasing" if rep.ratios_increasing else "NOT monotone"
    print(f"successive ratios a_(n+1)/a_n over the same range: {ratios}; "
          f"last ratio {Q(rep.last_ratio_num, rep.last_ratio_den)} "
          "(evidence only: unbounded growth cannot be decided on a finite range)")
    return 0 if all_hold else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vincular",
        description="Count circular permutations avoiding a glued pattern "
        "by brute force, by recurrence, and by closed-form series.",
        epilog='Pattern text is runs separated by hyphens or spaces; letters '
        'inside a run are glued in any occurrence ("23-4-1" glues 2 to 3). '
        'Join letters above 9 with underscores inside a run.',
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser(
        "count", help="count avoiders of one size",
        description="Count circular avoiders of size n (or linear-class "
        "avoiders with --linear) using the chosen engine(s).")
    count.add_argument("--n", type=int, required=True, help="word size")
    count.add_argument(
        "--pattern", default=DEFAULT_PATTERN_TEXT,
        help='pattern text, e.g. "23-4-1" (default; the only pattern the '
        "dp and gf engines support)")
    count.add_argument(
        "--engine", choices=("oracle", "dp", "gf", "all"), default="dp",
        help="oracle = brute force, dp = recurrence, gf = series, "
        "all = run every engine and compare (default: dp)")
    count.add_argument(
        "--linear", action="store_true",
        help="count the size-n linear class instead (equals the circular "
        "count one size up for the default pattern)")
    count.add_argument(
        "--oracle-cap", type=int, default=10,
        help="largest n the oracle accepts without --force-oracle (default 10)")
    count.add_argument(
        "--force-oracle", action="store_true",
        help="let the oracle run past the cap (up to n! words; slow)")
    count.set_defaults(func=cmd_count)

    table = sub.add_parser(
        "table", help="emit the counting sequence a_1..a_N",
        description="Emit the linear-class counting sequence a_1..a_N "
        "computed by the recurrence.")
    table.add_argument("--N", type=int, default=30, help="last index (default 30)")
    table.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain",
        help="plain aligned columns, csv with an n,value header, or json")
    table.set_defaults(func=cmd_table)

    series = sub.add_parser(
        "series", help="emit series coefficients",
        description="Emit coefficients of one generating series up to the "
        "given order, exact and in lowest terms.")
    series.add_argument(
        "--gf", choices=tuple(_SERIES_BUILDERS), default="A",
        help="which series: A (circular counts), B11/C11 (weight-1 cell "
        "classes), V1 (weight-1 avoiders), V0 (first-letter column)")
    series.add_argument("--order", type=int, default=32,
                        help="truncation order (default 32)")
    series.add_argument(
        "--v", type=_rational, default=None,
        help="rational weight on the next-to-last letter (A only)")
    series.add_argument(
        "--u", type=_rational, default=None,
        help="rational weight on the last letter (A only)")
    series.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain",
        help="plain comma-separated, csv, or json")
    series.set_defaults(func=cmd_series)

    verify = sub.add_parser(
        "verify", help="run the cross-route verification suite",
        description="Check oracle vs recurrence vs series agreement plus "
        "the structural identities; exit 0 only if every check passes.")
    verify.add_argument(
        "--oracle-cap", type=int, default=10,
        help="largest size of the oracle-dp comparisons, at most "
        f"{CELLS_MAX} (default 10)")
    verify.add_argument(
        "--reduction-max", type=int, default=8,
        help="largest size for the delete-smallest reduction check (default 8)")
    verify.add_argument(
        "--N", type=int, default=30,
        help="recurrence table size; smaller values are raised to 30 and to "
        "the oracle cap (default 30)")
    verify.add_argument("--order", type=int, default=32,
                        help="series truncation order, at least 2 (default 32)")
    verify.add_argument(
        "--inject-fault", metavar="CELL", default=None,
        help="self-test hook: corrupt one recurrence cell (v:n:j, b:n:i:j "
        "or c:n:i:j with 2 <= n <= the oracle cap, letters in 1..n and "
        "i != j) and expect a FAIL naming it")
    verify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text: one PASS/FAIL line per check and a summary; json: one "
        "object per check with name, passed, detail and seconds, plus the "
        "totals")
    verify.set_defaults(func=cmd_verify)

    conj = sub.add_parser(
        "conjectures", help="check the growth conjectures exactly",
        description="Evaluate the power inequality exactly for n < N and "
        "report ratio evidence; finite checks, not proofs.")
    conj.add_argument("--N", type=int, default=30,
                      help="check n < N (default 30)")
    conj.set_defaults(func=cmd_conjectures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

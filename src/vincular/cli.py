"""Command-line front end: counting, tables, series, verification.

Pattern grammar (only this module parses pattern text): a pattern is a
sequence of runs separated by hyphens or whitespace.  Letters inside a
run are glued, i.e. they must sit in adjacent positions of any
occurrence; letters in different runs may sit anywhere apart.  Within a
run, letters above 9 are joined with underscores, and a run that ends in
an underscore is read the same way without it, so a lone letter above 9
is written with a trailing underscore.  Examples::

    23-4-1     letters 2,3,4,1 with 2 glued to 3 (the default)
    12-3       letters 1,2,3 with 1 glued to 2
    4-1-23     letters 4,1,2,3 with 2 glued to 3
    1_11-2     letters 1,11,2 with 1 glued to 11
    2-10_-1    letters 2,10,1, none glued

The recurrence (dp) and series (gf) engines are specific to the default
pattern; anything else needs the brute-force oracle, which is capped at
a configurable size because it scans up to n! words.

A command refuses an input by raising ValueError; :func:`main` alone
turns it into one stderr line and exit status 1, with nothing on stdout.
Argparse's own usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json

from . import checks, genfun, oracle
from .perms import VincularPattern
from .powerseries import Q, as_int
from .tables import CELLS_MAX, build_tables, check_conjectures

DEFAULT_PATTERN_TEXT = "23-4-1"


def parse_pattern(text: str) -> VincularPattern:
    """Parse run-grammar pattern text, e.g. "23-4-1", "2_3 4 1" or
    "2-10_-1"."""
    runs = [run for chunk in text.split() for run in chunk.split("-")]
    if not runs or any(not run for run in runs):
        raise ValueError(f"malformed pattern text {text!r}")
    letters: list[int] = []
    bonds: set[int] = set()
    for run in runs:
        body = run.removesuffix("_")
        parts = body.split("_") if "_" in run else list(body)
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


def _write_values(fmt: str, sequence: str, pairs, plain) -> None:
    """Print the (n, value) pairs as json, as csv under an n,value header,
    or in the command's own layout plain(pairs)."""
    if fmt == "json":
        values = [{"n": n, "value": str(value)} for n, value in pairs]
        print(json.dumps({"sequence": sequence, "values": values}, indent=2))
    elif fmt == "csv":
        print("\n".join(["n,value", *(f"{n},{value}" for n, value in pairs)]))
    else:
        print(plain(pairs))


def _plain_table(pairs) -> str:
    rows = [(str(n), str(value)) for n, value in pairs]
    wn = max(len(r[0]) for r in rows)
    wv = max(len(r[1]) for r in rows)
    return "\n".join(f"{r[0]:>{wn}}  {r[1]:>{wv}}" for r in rows)


def _count_one(engine: str, n: int, pattern: VincularPattern,
               linear: bool, cap: int) -> int:
    if engine == "oracle":
        if n > cap:
            raise ValueError(
                f"oracle scans up to {n}! words; n > cap ({cap}); "
                "raise --oracle-cap to insist")
        if not linear:
            return oracle.count_circular_avoiders(n, (pattern,))
        return oracle.count_linear_avoiders(
            n, oracle.REDUCED_PATTERNS if pattern == oracle.CIRCULAR_PATTERN
            else (pattern,))
    if pattern != oracle.CIRCULAR_PATTERN:
        raise ValueError(
            f"the {engine} engine only counts the default pattern "
            f"{DEFAULT_PATTERN_TEXT}; use --engine oracle")
    size = n + 1 if linear else n  # a_(m-1) counts circular classes of size m
    if engine == "dp":
        return 1 if size == 1 else build_tables(size - 1).a[size - 1]
    return as_int(genfun.A_series(size)[size])  # gf, the one engine left


def cmd_count(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be positive")
    pattern = parse_pattern(args.pattern)
    print(_count_one(args.engine, args.n, pattern, args.linear, args.oracle_cap))
    return 0


def cmd_table(args) -> int:
    if args.N < 1:
        raise ValueError("--N must be positive")
    a = build_tables(args.N).a
    pairs = [(n, a[n]) for n in range(1, args.N + 1)]
    _write_values(args.format, "a", pairs, _plain_table)
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
        raise ValueError("--order must be positive")
    if args.v is None and args.u is None:
        series = _SERIES_BUILDERS[args.gf](args.order)
    elif args.gf != "A":
        raise ValueError("--v/--u apply only to --gf A")
    else:
        v = args.v if args.v is not None else Q(1)
        u = args.u if args.u is not None else Q(1)
        series = genfun.A_vu_series(v, u, args.order)
    pairs = [(n, str(series[n])) for n in range(series.order + 1)]
    _write_values(args.format, args.gf, pairs,
                  lambda pairs: ",".join(value for _, value in pairs))
    return 0


def cmd_verify(args) -> int:
    results = checks.run_all(args.oracle_cap, args.inject_fault)
    failed = [res for res in results if not res.passed]
    total = len(results)
    if args.format == "json":
        doc = {
            "checks": [res._asdict() for res in results],
            "total": total,
            "failed": len(failed),
            "seconds": sum(res.seconds for res in results),
        }
        print(json.dumps(doc, indent=2))
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
        raise ValueError("--N must be at least 2")
    a = build_tables(args.N).a
    rep = check_conjectures(a)
    all_hold = rep.first_power_failure is None
    for n, holds in enumerate(rep.power_holds, 1):
        verdict = "holds" if holds else "FAILS"
        print(f"n={n}: {a[n]}^{n + 1} < {a[n + 1]}^{n}: {verdict}")
    print(f"a_n^(n+1) < a_(n+1)^n for 1 <= n < {args.N}: "
          f"{'all hold' if all_hold else 'FAILS'} (checked, not proven)")
    if args.N == 2:
        ratios = "one ratio, which shows no trend"
    else:
        ratios = "strictly increasing" if rep.ratios_increasing else "NOT monotone"
    print(f"successive ratios a_(n+1)/a_n over the same range: {ratios}; "
          f"last ratio {Q(a[-1], a[-2])} "
          "(evidence only: unbounded growth cannot be decided on a finite range)")
    return 0 if all_hold else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vincular",
        description="Count circular permutations avoiding a glued pattern "
        "by brute force, by recurrence, and by closed-form series.",
        epilog='Pattern text is runs separated by hyphens or spaces; letters '
        'inside a run are glued in any occurrence ("23-4-1" glues 2 to 3). '
        'Join letters above 9 with underscores inside a run, and end a lone '
        'letter above 9 with one ("10_").',
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser(
        "count", help="count avoiders of one size",
        description="Count circular avoiders of size n (or linear-class "
        "avoiders with --linear) using the chosen engine.")
    count.add_argument("--n", type=int, required=True, help="word size")
    count.add_argument(
        "--pattern", default=DEFAULT_PATTERN_TEXT,
        help='pattern text, e.g. "23-4-1" (default; the only pattern the '
        "dp and gf engines support)")
    count.add_argument(
        "--engine", choices=("oracle", "dp", "gf"), default="dp",
        help="oracle = brute force, dp = recurrence, gf = series "
        "(default: dp); verify compares them")
    count.add_argument(
        "--linear", action="store_true",
        help="count words of size n instead of circular words: for the "
        "default pattern, a_n, the words avoiding the reduced pair 12-3 and "
        "4-1-23 (the circular count one size up); for any other pattern, "
        "the words avoiding that pattern itself")
    count.add_argument(
        "--oracle-cap", type=int, default=checks.ORACLE_CAP,
        help="largest n the oracle accepts; raise it to scan more (up to n! "
        "words; slow) (default %(default)s)")
    count.set_defaults(func=cmd_count)

    table = sub.add_parser(
        "table", help="emit the counting sequence a_1..a_N",
        description="Emit the linear-class counting sequence a_1..a_N "
        "computed by the recurrence.")
    table.add_argument("--N", type=int, default=len(checks.REFERENCE_A),
                       help="last index (default %(default)s)")
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
    series.add_argument("--order", type=int, default=checks.SERIES_ORDER,
                        help="truncation order (default %(default)s)")
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
        "the structural identities, with every series at order "
        f"{checks.SERIES_ORDER}; exit 0 only if every check passes.")
    verify.add_argument(
        "--oracle-cap", type=int, default=checks.ORACLE_CAP,
        help="largest size of the oracle-dp, reduction and bivariate "
        "checks, which share one brute-force scan per size; at least 2 and "
        f"at most {CELLS_MAX} (default %(default)s)")
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
    conj.add_argument("--N", type=int, default=len(checks.REFERENCE_A),
                      help="check n < N (default %(default)s)")
    conj.set_defaults(func=cmd_conjectures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())

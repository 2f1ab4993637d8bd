"""Command-line behavior: flags, formats, exit codes, round-trips."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from vincular import cli, genfun, tables
from vincular.checks import REFERENCE_A
from vincular.oracle import CIRCULAR_PATTERN, REDUCED_PATTERNS
from vincular.perms import VincularPattern


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_defaults_to_dp(capsys):
    code, out, _ = run(capsys, "count", "--n", "2")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "count", "--n", "10")
    assert code == 0 and out == "11857\n"


def test_count_engines_agree(capsys):
    for engine in ("oracle", "dp", "gf"):
        assert run(capsys, "count", "--n", "6", "--engine", engine)[:2] == (0, "50\n")
        assert run(capsys, "count", "--n", "1", "--engine", engine)[:2] == (0, "1\n")
    # verify compares the engines; count runs one
    with pytest.raises(SystemExit) as exc:
        run(capsys, "count", "--n", "6", "--engine", "all")
    assert exc.value.code == 2
    assert "invalid choice: 'all'" in capsys.readouterr().err


def test_count_single_element(capsys):
    # the linear class of size 1 holds the one word 1
    for engine in ("oracle", "dp", "gf"):
        code, out, _ = run(capsys, "count", "--n", "1", "--linear", "--engine", engine)
        assert (code, out) == (0, "1\n"), engine


def test_count_linear_flag(capsys):
    code, out, _ = run(capsys, "count", "--n", "9", "--linear", "--engine", "gf")
    assert (code, out) == (0, "11857\n")
    code, out, _ = run(capsys, "count", "--n", "9", "--linear", "--engine", "dp")
    assert (code, out) == (0, "11857\n")


def test_count_custom_pattern_oracle_only(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--pattern", "4-1-23",
                       "--linear", "--engine", "oracle")
    assert (code, out) == (0, "23\n")
    # the default pattern counts a_4 through the reduced pair instead
    code, out, _ = run(capsys, "count", "--n", "4", "--linear", "--engine", "oracle")
    assert (code, out) == (0, "15\n")
    with pytest.raises(SystemExit, match="oracle"):
        run(capsys, "count", "--n", "5", "--pattern", "12-3", "--engine", "dp")
    with pytest.raises(SystemExit, match="oracle"):
        run(capsys, "count", "--n", "5", "--pattern", "12-3", "--engine", "gf")


def test_oracle_cap(capsys):
    with pytest.raises(SystemExit, match="cap"):
        run(capsys, "count", "--n", "12", "--engine", "oracle")
    with pytest.raises(SystemExit, match="raise --oracle-cap"):
        run(capsys, "count", "--n", "6", "--oracle-cap", "5", "--engine", "oracle")
    code, out, _ = run(capsys, "count", "--n", "6", "--oracle-cap", "6",
                       "--engine", "oracle")
    assert (code, out) == (0, "50\n")


def test_table_plain_aligned(capsys):
    code, out, _ = run(capsys, "table", "--N", "12")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert [int(r[1]) for r in rows] == list(REFERENCE_A[:12])
    # right-aligned: all lines equally wide
    widths = {len(line) for line in out.splitlines()}
    assert len(widths) == 1


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--N", "30", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 31
    assert lines[30] == "30,362092868720288824992"


def test_table_csv_roundtrip_is_byte_identical(capsys):
    _, out, _ = run(capsys, "table", "--N", "20", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value"]
    pairs = [(int(n), int(v)) for n, v in rows[1:]]
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows([rows[0], *pairs])
    assert again.getvalue() == out


def test_table_json_roundtrip_is_byte_identical(capsys):
    _, out, _ = run(capsys, "table", "--N", "15", "--format", "json")
    doc = json.loads(out)
    assert doc["sequence"] == "a"
    assert doc["values"][0] == {"n": 1, "value": "1"}
    assert all(isinstance(item["value"], str) for item in doc["values"])
    assert json.dumps(doc, indent=2) + "\n" == out


def test_series_plain(capsys):
    code, out, _ = run(capsys, "series", "--gf", "A", "--order", "10")
    assert code == 0
    assert out == "0,1,1,2,5,15,50,180,690,2792,11857\n"


def test_series_csv_and_json(capsys):
    _, out, _ = run(capsys, "series", "--gf", "C11", "--order", "6",
                    "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "n,value" and len(lines) == 8
    _, out, _ = run(capsys, "series", "--gf", "V1", "--order", "5",
                    "--format", "json")
    doc = json.loads(out)
    assert doc["sequence"] == "V1"
    assert json.dumps(doc, indent=2) + "\n" == out


def test_series_weighted_rational_output(capsys):
    code, out, _ = run(capsys, "series", "--gf", "A", "--v", "1/2",
                       "--u", "2/3", "--order", "6")
    assert code == 0
    assert out == "0,1,1,7/6,73/36,1045/216,17263/1296\n"


def test_series_degenerate_weight_fails_cleanly(capsys):
    with pytest.raises(SystemExit, match="diagonal") as exc:
        run(capsys, "series", "--gf", "A", "--v", "2", "--u", "1",
            "--order", "6")
    message = str(exc.value.code)
    assert message.startswith("error: ") and "\n" not in message
    assert capsys.readouterr().out == ""


def test_series_weights_require_gf_a(capsys):
    with pytest.raises(SystemExit, match="gf A"):
        run(capsys, "series", "--gf", "B11", "--u", "2")


def test_series_output_never_uses_floats(capsys):
    for gf in ("A", "B11", "C11", "V1", "V0"):
        _, out, _ = run(capsys, "series", "--gf", gf, "--order", "12")
        assert "." not in out and "e" not in out.lower()


def test_pattern_parser():
    assert cli.parse_pattern("23-4-1") == CIRCULAR_PATTERN
    assert cli.parse_pattern("2_3 4 1") == CIRCULAR_PATTERN
    assert cli.parse_pattern("12-3") == REDUCED_PATTERNS[0]
    assert cli.parse_pattern("4-1-23") == REDUCED_PATTERNS[1]
    assert cli.parse_pattern("321") == VincularPattern((3, 2, 1), bonds={0, 1})
    assert cli.parse_pattern("3-2-1") == VincularPattern((3, 2, 1))
    big = cli.parse_pattern("2-3-4-5-6-7-8-9-10_11-1")
    assert big.entries == (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1)
    assert big.bonds == frozenset({8})
    # a trailing underscore ends a run of letters above 9, so one can be lone
    lone = cli.parse_pattern("2-3-4-5-6-7-8-9-10_ 11_-1")
    assert lone.entries == big.entries and lone.bonds == frozenset()
    assert cli.parse_pattern("2_3_ 4_ 1_") == CIRCULAR_PATTERN


def test_count_lone_letter_above_9(capsys):
    # every word of size 5 avoids a pattern of ten letters
    code, out, _ = run(capsys, "count", "--n", "5", "--linear", "--engine",
                       "oracle", "--pattern", "1 2 3 4 5 6 7 8 9 10_")
    assert (code, out) == (0, "120\n")


@pytest.mark.parametrize("text", ["", "2--3", "31x", "0-1", "13", "1_1",
                                  "_", "10__", "1__2"])
def test_pattern_parser_rejects(text):
    with pytest.raises(ValueError):
        cli.parse_pattern(text)


def test_verify_passes_at_small_scale(capsys):
    code, out, _ = run(capsys, "verify", "--oracle-cap", "5")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("all ") and lines[-1].endswith("checks passed")
    # every check line ends with one time, taken by run_all's timer
    for line in lines[:-1]:
        assert re.search(r" \(\d+\.\ds\)$", line), line
        assert len(re.findall(r"\d\.\ds\)", line)) == 1, line


@pytest.mark.parametrize(
    "cell, name",
    [("b:5:3:2", "b(5,3,2)"), ("c:5:2:4", "c(5,2,4)"), ("v:5:3", "v(5,3)")],
    ids=["b:5:3:2", "c:5:2:4", "v:5:3"])
def test_verify_fault_injection_names_the_cell(capsys, cell, name):
    code, out, _ = run(capsys, "verify", "--oracle-cap", "5",
                       "--inject-fault", cell)
    assert code == 1
    assert f"PASS fault-injection: corrupted {name};" in out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith(f"FAIL oracle-dp-n5: {name}: dp=")


# Malformed cells, then cells the oracle check never reads: j = 0, i = j,
# a negative size that would wrap round the table, and a size past it.
@pytest.mark.parametrize(
    "cell", ["q:1:2:3", "v:5:0", "b:5:3:3", "c:5:1:1", "b:-1:1:2", "b:40:1:2"])
def test_verify_rejects_bad_fault_cell(capsys, cell):
    with pytest.raises(SystemExit, match="fault") as exc:
        run(capsys, "verify", "--oracle-cap", "5", "--inject-fault", cell)
    message = str(exc.value.code)
    assert message.startswith("error: ") and "\n" not in message


@pytest.mark.parametrize("argv", [
    ("--oracle-cap", "13"),
    ("--oracle-cap", "13", "--inject-fault", "b:13:3:2"),
])
def test_verify_rejects_oracle_cap_past_cells(capsys, argv):
    # fails before any check runs: no brute-force scan at n = 13
    with pytest.raises(SystemExit, match="oracle cap 13") as exc:
        run(capsys, "verify", *argv)
    message = str(exc.value.code)
    assert message.startswith("error: ") and "\n" not in message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, name", [
    (("--oracle-cap", "1"), "oracle cap 1"),
    (("--oracle-cap", "0"), "oracle cap 0"),
    (("--oracle-cap", "-2"), "oracle cap -2"),
    (("--oracle-cap", "1", "--inject-fault", "b:5:3:2"), "oracle cap 1"),
])
def test_verify_rejects_caps_that_drop_the_oracle(capsys, argv, name):
    # a cap below 2 would silently run no oracle-dp or reduction check; the
    # cap is refused before a fault cell is read against it
    with pytest.raises(SystemExit, match=name) as exc:
        run(capsys, "verify", *argv)
    message = str(exc.value.code)
    assert message.startswith("error: ") and "\n" not in message
    assert capsys.readouterr().out == ""


# The process, not main(): a refusal must reach stderr as one line with
# exit status 1 and nothing on stdout, and argparse's own errors exit 2.
@pytest.mark.parametrize("argv, status, error", [
    (("verify", "--inject-fault", "b:x:3:2"), 1,
     "error: bad fault cell 'b:x:3:2'; use v:n:j or b:n:i:j or c:n:i:j"),
    (("series", "--v", "abc"), 2,
     "vincular series: error: argument --v: not a rational: 'abc'"),
    (("count", "--n", "3", "--pattern", "1-1", "--engine", "oracle"), 1,
     "error: not a permutation of 1..2: (1, 1)"),
    (("series", "--gf", "A", "--v", "2", "--u", "1"), 1,
     "error: the two-variable closed forms divide by 1-u; the weight u = 1 "
     "is only available on the diagonal v = u = 1"),
    (("count", "--n", "12", "--engine", "oracle"), 1,
     "error: oracle scans up to 12! words; n > cap (10); raise --oracle-cap "
     "to insist"),
    (("count", "--n", "0"), 1, "error: --n must be positive"),
], ids=["bad-fault-cell", "not-a-rational", "not-a-permutation",
        "off-diagonal-weight", "past-oracle-cap", "size-zero"])
def test_user_errors_end_the_process_with_one_line(argv, status, error):
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "vincular.cli", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout) == (status, "")
    assert done.stderr.splitlines()[-1] == error
    if status == 1:
        assert done.stderr == error + "\n"


def test_import_loads_no_dataclasses():
    # the CLI imports every module, and each vincular process pays for what
    # they load: dataclasses would pull in inspect, ast and dis
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, vincular.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_verify_has_no_table_size(capsys):
    # the tables are always built at 30, and conjectures --N sets a longer
    # range; the series checks always run at order 32
    for flag, value in (("--N", "12"), ("--order", "8")):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_verify_json(capsys):
    argv = ("verify", "--oracle-cap", "4")
    code, text, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == json_code == 0
    doc = json.loads(out)
    names = [check["name"] for check in doc["checks"]]
    assert names[:5] == ["dp-build", "dp-reference-table", "series-reference-table",
                         "oracle-dp-n2", "oracle-dp-n3"]
    assert "reduction-n4" in names and "reduction-n5" not in names
    assert doc["total"] == len(names) == len(text.splitlines()) - 1
    assert doc["failed"] == 0
    for check in doc["checks"]:
        assert set(check) == {"name", "passed", "detail", "seconds"}
        assert check["passed"] is True and check["seconds"] >= 0
    assert doc["seconds"] == pytest.approx(sum(c["seconds"] for c in doc["checks"]))


def test_verify_json_reports_a_failure(capsys):
    code, out, _ = run(capsys, "verify", "--oracle-cap", "5",
                       "--inject-fault", "c:5:2:4", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    failed = [check for check in doc["checks"] if not check["passed"]]
    assert doc["failed"] == len(failed) == 1
    assert failed[0]["name"] == "oracle-dp-n5" and "c(5,2,4)" in failed[0]["detail"]


def test_conjectures(capsys):
    code, out, _ = run(capsys, "conjectures", "--N", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=1: 1^2 < 2^1: holds"
    assert sum(": holds" in line for line in lines) == 7
    assert "checked, not proven" in out
    # a_8/a_7 = 2792/690, in lowest terms
    assert "last ratio 1396/345 " in lines[-1]
    assert "." not in out.replace("a_(n+1)/a_n", "")  # exact output only


def test_conjectures_one_ratio_shows_no_trend(capsys):
    # --N 2 leaves the one ratio a_2/a_1: nothing to call increasing
    code, out, _ = run(capsys, "conjectures", "--N", "2")
    assert code == 0
    last = out.splitlines()[-1]
    assert "one ratio, which shows no trend; last ratio 2 " in last
    assert "increasing" not in last and "monotone" not in last


def test_rejects_nonsense_sizes(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "count", "--n", "0")
    with pytest.raises(SystemExit):
        run(capsys, "table", "--N", "0")
    with pytest.raises(SystemExit):
        run(capsys, "series", "--order", "0")
    with pytest.raises(SystemExit):
        run(capsys, "conjectures", "--N", "1")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """(argv, stated output or None) for every line of the README's
    ``vincular`` command block; a comment ending in "-> value" states the
    output."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            if line.startswith("vincular "):
                command, _, comment = line.partition("#")
                _, arrow, stated = comment.partition("->")
                yield shlex.split(command)[1:], stated.strip() if arrow else None


def test_readme_commands_parse_and_state_their_output(capsys):
    commands = list(readme_commands())
    assert len(commands) >= 5 and sum(s is not None for _, s in commands) >= 2
    parser = cli.build_parser()
    for argv, stated in commands:
        parser.parse_args(argv)  # a flag the CLI dropped exits here
        if stated is not None:
            assert run(capsys, *argv)[:2] == (0, stated + "\n"), argv


def test_verify_reports_a_check_that_raises(capsys, monkeypatch):
    # a non-integral coefficient makes a_from_series raise inside the
    # series-reference check; the suite still runs and the JSON stays whole
    def raises(series):
        raise ValueError("not an integer: 486911/2")

    monkeypatch.setattr(genfun, "a_from_series", raises)
    code, out, _ = run(capsys, "verify", "--oracle-cap", "3", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    names = [check["name"] for check in doc["checks"]]
    failed = [check for check in doc["checks"] if not check["passed"]]
    assert doc["failed"] == len(failed) == 1
    # the FAIL row carries the label the check's PASS row has
    assert failed[0] == {
        "name": "series-reference-table", "passed": False,
        "detail": "raised ValueError: not an integer: 486911/2",
        "seconds": failed[0]["seconds"]}
    assert names.index("series-reference-table") == 2
    assert names[3:5] == ["oracle-dp-n2", "oracle-dp-n3"]
    assert names[-1] == "bivariate-oracle"
    code, text, _ = run(capsys, "verify", "--oracle-cap", "3")
    assert code == 1
    assert "FAIL series-reference-table: raised ValueError: not an integer: 486911/2" in text
    assert text.splitlines()[-1] == f"1 of {len(names)} checks FAILED"


def test_verify_reports_a_table_build_that_raises(capsys, monkeypatch):
    # a broken recurrence invariant stops the table build: the checks that
    # read the tables fail unrun, the others still run, the JSON stays whole
    monkeypatch.setattr(tables, "_steps", lambda runs, ys: (runs, [-10**9] * len(ys)))
    code, out, _ = run(capsys, "verify", "--oracle-cap", "3", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    unrun = "not run: dp-build failed"
    failed = {c["name"]: c["detail"] for c in doc["checks"] if not c["passed"]}
    # an unrun check's row carries the label of its PASS row
    assert failed == {
        "dp-build": "raised RuntimeError: recurrence invariant broken: negative v(3, .)",
        "dp-reference-table": unrun,
        "oracle-dp-n2": unrun,
        "oracle-dp-n3": unrun,
        "weighted-marginals": unrun,
        "conjecture-power-inequality": unrun,
    }
    passed = [c["name"] for c in doc["checks"] if c["passed"]]
    assert passed == [
        "series-reference-table", "reduction-n2", "reduction-n3", "series-v0-shift",
        "series-c-weight-one", "series-b-weight-one", "series-bivariate-diagonal",
        "series-integrality", "bivariate-oracle"]
    assert doc["failed"] == 6 and doc["total"] == 15
    # and every row is named as in a run where nothing fails
    names = [c["name"] for c in doc["checks"]]
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "--oracle-cap", "3", "--format", "json")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == names
    # a fault cell is still read against the cap before anything runs
    with pytest.raises(SystemExit, match="fault cell 'b:5:3:2'"):
        run(capsys, "verify", "--oracle-cap", "3", "--inject-fault", "b:5:3:2")
    assert capsys.readouterr().out == ""

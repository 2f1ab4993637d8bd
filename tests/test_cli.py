"""Command-line behavior: flags, formats, exit codes, round-trips."""

import csv
import io
import json
import re

import pytest

from vincular import cli
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
    code, out, _ = run(capsys, "count", "--n", "6", "--engine", "all")
    assert code == 0
    assert out.splitlines()[-1] == "MATCH"
    values = {line.split()[0]: line.split()[1] for line in out.splitlines()[:-1]}
    assert values == {"oracle": "50", "dp": "50", "gf": "50"}


def test_count_single_element(capsys):
    code, out, _ = run(capsys, "count", "--n", "1", "--engine", "all")
    assert code == 0
    assert out.splitlines()[-1] == "MATCH"


def test_count_linear_flag(capsys):
    code, out, _ = run(capsys, "count", "--n", "9", "--linear", "--engine", "gf")
    assert (code, out) == (0, "11857\n")
    code, out, _ = run(capsys, "count", "--n", "9", "--linear", "--engine", "dp")
    assert (code, out) == (0, "11857\n")


def test_count_custom_pattern_oracle_only(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--pattern", "4-1-23",
                       "--linear", "--engine", "oracle")
    assert (code, out) == (0, "23\n")
    with pytest.raises(SystemExit, match="oracle"):
        run(capsys, "count", "--n", "5", "--pattern", "12-3", "--engine", "dp")
    with pytest.raises(SystemExit, match="oracle"):
        run(capsys, "count", "--n", "5", "--pattern", "12-3", "--engine", "gf")


def test_oracle_cap(capsys):
    with pytest.raises(SystemExit, match="cap"):
        run(capsys, "count", "--n", "12", "--engine", "oracle")
    with pytest.raises(SystemExit, match="cap"):
        run(capsys, "count", "--n", "6", "--oracle-cap", "5", "--engine", "oracle")
    code, out, _ = run(capsys, "count", "--n", "6", "--oracle-cap", "5",
                       "--engine", "oracle", "--force-oracle")
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
    assert cli._csv_payload(pairs) == out


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
    code, out, err = run(capsys, "series", "--gf", "A", "--v", "2", "--u", "1",
                         "--order", "6")
    assert code == 1
    assert out == "" and "diagonal" in err


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


@pytest.mark.parametrize("text", ["", "2--3", "31x", "0-1", "13", "1_1"])
def test_pattern_parser_rejects(text):
    with pytest.raises(ValueError):
        cli.parse_pattern(text)


def test_verify_passes_at_small_scale(capsys):
    code, out, _ = run(capsys, "verify", "--oracle-cap", "5", "--N", "12",
                       "--order", "8")
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
    code, out, _ = run(capsys, "verify", "--oracle-cap", "5", "--N", "12",
                       "--order", "8", "--inject-fault", cell)
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
        run(capsys, "verify", "--oracle-cap", "5", "--N", "12",
            "--order", "8", "--inject-fault", cell)
    message = str(exc.value.code)
    assert message.startswith("error: ") and "\n" not in message


@pytest.mark.parametrize("argv", [
    ("--oracle-cap", "13"),
    ("--oracle-cap", "13", "--inject-fault", "b:13:3:2"),
])
def test_verify_rejects_oracle_cap_past_cells(capsys, argv):
    # fails before any check runs: no oracle enumeration of 13! words
    with pytest.raises(SystemExit, match="oracle cap 13") as exc:
        run(capsys, "verify", "--N", "12", "--order", "8", *argv)
    message = str(exc.value.code)
    assert message.startswith("error: ") and "\n" not in message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, name", [
    (("--oracle-cap", "1"), "oracle cap 1"),
    (("--oracle-cap", "0"), "oracle cap 0"),
    (("--reduction-max", "1"), "reduction maximum 1"),
    (("--oracle-cap", "1", "--reduction-max", "1"), "oracle cap 1"),
    (("--order", "1"), "series order 1"),
    (("--order", "0"), "series order 0"),
    (("--order", "-3"), "series order -3"),
])
def test_verify_rejects_caps_that_drop_the_oracle(capsys, argv, name):
    # a cap below 2 would silently run no oracle-dp or reduction check, and
    # an order below 2 would leave the series checks nothing to compare
    with pytest.raises(SystemExit, match=name) as exc:
        run(capsys, "verify", "--N", "12", "--order", "8", *argv)
    message = str(exc.value.code)
    assert message.startswith("error: ") and "\n" not in message
    assert capsys.readouterr().out == ""


def test_verify_json(capsys):
    argv = ("verify", "--oracle-cap", "4", "--reduction-max", "3",
            "--N", "12", "--order", "8")
    code, text, _ = run(capsys, *argv)
    json_code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == json_code == 0
    doc = json.loads(out)
    names = [check["name"] for check in doc["checks"]]
    assert names[:5] == ["dp-build", "dp-reference-table", "series-reference-table",
                         "oracle-dp-n2", "oracle-dp-n3"]
    assert "reduction-n3" in names and "reduction-n4" not in names
    assert doc["total"] == len(names) == len(text.splitlines()) - 1
    assert doc["failed"] == 0
    for check in doc["checks"]:
        assert set(check) == {"name", "passed", "detail", "seconds"}
        assert check["passed"] is True and check["seconds"] >= 0
    assert doc["seconds"] == pytest.approx(sum(c["seconds"] for c in doc["checks"]))


def test_verify_json_reports_a_failure(capsys):
    code, out, _ = run(capsys, "verify", "--oracle-cap", "5", "--N", "12",
                       "--order", "8", "--inject-fault", "c:5:2:4",
                       "--format", "json")
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
    assert "." not in out.replace("a_(n+1)/a_n", "")  # exact output only


def test_rejects_nonsense_sizes(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "count", "--n", "0")
    with pytest.raises(SystemExit):
        run(capsys, "table", "--N", "0")
    with pytest.raises(SystemExit):
        run(capsys, "series", "--order", "0")
    with pytest.raises(SystemExit):
        run(capsys, "conjectures", "--N", "1")

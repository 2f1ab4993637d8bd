"""The benchmark's own tests: smoke runs at tiny sizes, exact checks that
bite, seed handling, traced counts that repeat, and the command's output
contract.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import EXACT, Tracer, layer_metrics, merge
from vincular import checks, tables
from vincular.powerseries import Series
from worker import measure

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name: str, seed: int = 0):
    return workloads.prepare(name, workloads.inputs(name, seed, workloads.SMOKE_SIZES[name]))


def traced_counts(name: str) -> dict:
    unit, check = smoke(name)
    tracer = Tracer()
    res = measure(unit, check, 0, tracer)
    assert res["failed"] == 0
    return {k: layer_metrics(res["aggregates"][0])[k] for k in EXACT}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_is_correct(name):
    res = measure(*smoke(name), seconds=0)
    assert res["attempted"] == 1 and res["failed"] == 0
    assert len(res["wall_s"]) == len(res["cpu_s"]) == 1


def _bump_last(series: Series) -> Series:
    return Series(series.coeffs[:-1] + (series.coeffs[-1] + 1,))


def _bump_a(t: tables.Tables) -> tables.Tables:
    t.a[t.N] += 1
    return t


CORRUPT = {
    "gf-count": lambda a: a[:-1] + [a[-1] + 1],
    "gf-weighted": lambda bc: (_bump_last(bc[0]), bc[1]),
    "dp-table": _bump_a,
}


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupted_output_counts_as_failed(name):
    unit, check = smoke(name)
    res = measure(lambda pause: CORRUPT[name](unit(pause)), check, 0)
    assert res["failed"] == res["attempted"] == 1


def test_corrupted_table_cell_fails_oracle_cells(monkeypatch):
    build = tables.build_tables

    def faulty(n):
        t = build(n)
        checks.apply_fault(t, f"b:{n}:3:2")
        return t

    monkeypatch.setattr(tables, "build_tables", faulty)
    res = measure(*smoke("oracle-cells"), seconds=0)
    assert res["failed"] == res["attempted"] == 1


def test_raising_unit_counts_as_failed():
    def unit(pause):
        raise ArithmeticError("boom")

    res = measure(unit, lambda out: True, 0)
    assert res["failed"] == res["attempted"] == 1


def test_reference_is_timed_around_every_step_of_untraced_units():
    calls = []

    def unit(pause):
        calls.append("a")
        pause()
        calls.append("b")

    res = measure(unit, lambda out: True, 0, Tracer(), reference=lambda: calls.append("ref"))
    # a warm-up, then the kernel before the first unit and after each of
    # its steps; the second unit is traced and runs without the kernel
    assert calls == ["ref", "ref", "a", "ref", "b", "ref", "a", "b"]
    assert len(res["ref_wall_s"]) == len(res["ref_cpu_s"]) == 3
    assert len(res["wall_ratio"]) == len(res["cpu_ratio"]) == len(res["wall_s"]) == 1


def test_ratio_cancels_a_uniform_slowdown():
    from reference import ratio

    # each step is divided by the mean of the kernel times on either side
    assert ratio([1.0, 2.0], [0.5, 0.5, 1.5]) == 4.0
    assert ratio([1.3, 2.6], [0.65, 0.65, 1.95]) == pytest.approx(4.0)


def test_reference_kernels_do_not_use_the_program():
    import reference

    tree = ast.parse((BENCH / "reference.py").read_text())
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    imported |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert imported == {"__future__", "fractions", "functools", "itertools"}
    assert set(reference.KERNELS) == set(workloads.NAMES)


def test_seed_changes_only_gf_weighted_inputs():
    for name in workloads.NAMES:
        seen = {tuple(workloads.inputs(name, seed).items()) for seed in range(20)}
        if name == "gf-weighted":
            us = {dict(inp)["u"] for inp in seen}
            assert len(us) > 1 and us <= set(workloads.WEIGHTS)
        else:
            assert len(seen) == 1
    assert workloads.inputs("gf-weighted", 7) == workloads.inputs("gf-weighted", 7)


def test_pinned_digests_match_reference_prefix():
    for N, want in workloads.DP_DIGESTS.items():
        a = [0, *checks.REFERENCE_A[:N]]
        if N <= len(checks.REFERENCE_A):
            assert workloads.digest(a, N) == want


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_exactly(name):
    first, second = traced_counts(name), traced_counts(name)
    assert first == second
    series_ops = first["powerseries.mul_calls"] + first["powerseries.div_calls"]
    if name.startswith("gf-"):
        assert series_ops > 0
    else:
        assert series_ops == 0 and first["powerseries.mul_terms"] == 0


def test_tracer_restores_the_program():
    from vincular import genfun, oracle

    before = (Series.__mul__, Series.__truediv__, genfun.A_series, oracle.avoids_linear)
    tracer = Tracer()
    tracer.install()
    assert genfun.A_series is not before[2]
    tracer.uninstall()
    assert (Series.__mul__, Series.__truediv__, genfun.A_series, oracle.avoids_linear) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    first = tracer.begin(1)
    outer()
    spans = tracer.aggregate(first)["spans"]
    calls, self_ns, total_ns = spans["outer"]
    assert calls == 1 and spans["inner"][0] == 2
    assert self_ns == total_ns - spans["inner"][2]


def test_merge_adds_counts_and_keeps_max_order():
    a = {"spans": {"x": [1, 5, 7]}, "counts": {"powerseries.max_order": 9, "tables.cells": 3}}
    b = {"spans": {"x": [2, 1, 1]}, "counts": {"powerseries.max_order": 4, "tables.cells": 2}}
    m = merge(a, b)
    assert m["spans"]["x"] == [3, 6, 8]
    assert m["counts"] == {"powerseries.max_order": 9, "tables.cells": 5}


def test_benchmark_json_lists_the_emitted_metrics():
    emitted = dict(layer_metrics({"spans": {}, "counts": {}}), **{"trace.overhead_s": 0.0})
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert listed == {k: run._layer_unit(k) for k in emitted}
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "wall_norm_s", "cpu_norm_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_end_to_end_metrics():
    done = _run(["--workload", "oracle-cells", "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert "error_rate 0.0" in done.stdout


def test_two_traced_runs_repeat_exact_counts():
    counts = []
    for _ in range(2):
        done = _run(["--workload", "oracle-cells", "--seed", "1", "--seconds", "0", "--trace", "1"])
        assert done.returncode == 0, done.stderr
        saved = json.loads((BENCH / "out" / "oracle-cells-seed1-trace1.json").read_text())
        assert saved["counts_repeat"] and saved["env"]["seed"] == 1
        counts.append(saved["counts"])
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert counts[0] == counts[1]
    assert counts[0]["oracle.words"] == 40320 and counts[0]["powerseries.mul_calls"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(["--workload", "dp-table", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_refuses_mixed_gmpy2(tmp_path):
    files = []
    for flag in (False, True):
        path = tmp_path / f"r{flag}.json"
        path.write_text(json.dumps({"trace": 0, "workload": "dp-table", "env": {"gmpy2": flag},
                                    "metrics": {}}))
        files.append(str(path))
    done = subprocess.run([sys.executable, str(BENCH / "compare.py"), "--base", files[0],
                           "--new", files[1]], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "gmpy2" in done.stderr

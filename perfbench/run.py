"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (``worker.py``), so series caches start
cold and the peak RSS is that workload's alone.  Set-up time is measured
from starting a worker to its READY line, on ten set-up-only workers,
and the median is reported.  Times are reported at a fixed machine
speed: each unit or set-up time is divided by the time of a reference
kernel (``reference.py``) run just around it.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run instead.  Every unit's output is
checked exactly, and the full result with its environment is also saved
under ``perfbench/out/``.  Exits non-zero, printing no result, when the
program cannot be run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import KERNELS, SETUP_KERNEL, ratio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 5    # set-up-only workers before, and again after, the measuring one
DEADLINE_S = 170    # the whole run, workers included, ends by then


class BenchError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker; return its set-up time and the output after READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "READY":
        raise BenchError(f"worker exited with code {code}")
    return setup_s, rest


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def probes(common: list[str], deadline: float, count: int) -> tuple[list[float], list[float]]:
    """Set-up times of ``count`` set-up-only workers, and the set-up
    kernel's times before the first and after each of them."""
    setups, refs = [], [timed(SETUP_KERNEL[0])]
    for _ in range(count):
        setups.append(run_worker([*common, "--seconds", "0", "--setup-only"], deadline)[0])
        refs.append(timed(SETUP_KERNEL[0]))
    return setups, refs


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "seed": seed,
    }


def tail(samples: list[float]) -> str:
    """The highest of a few percentiles with at least ten samples beyond it."""
    n = len(samples)
    ok = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) >= 1000]
    if not ok:
        return f"no percentile has 10 samples beyond it (n={n})"
    p = ok[-1]
    return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]!r} s (n={n})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # Probing set-up on both sides of the measuring worker makes the
    # set-up median span the whole run.
    count = 0 if args.trace else SETUP_PROBES
    try:
        if count:
            SETUP_KERNEL[0]()  # warm-up, untimed
        before = probes(common, deadline, count)
        setup_s, rest = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        after = probes(common, deadline, count)
        res = json.loads(rest.strip().splitlines()[-1])
    except (BenchError, IndexError, json.JSONDecodeError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed)
    error_rate = res["failed"] / res["attempted"]
    print(f"workload {args.workload}  inputs {res['inputs']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"error_rate {error_rate!r} ({res['failed']} failed of {res['attempted']} units)")
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["layers"].items()}
        print(f"per-layer values: set-up plus one unit, median of {res['traced_units']} traced units")
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']!r} {m['unit']}")
        print("exact counts repeat across traced units: " + ("yes" if res["counts_repeat"] else "NO"))
        print(f"spans written to {res['spans_file']}")
    else:
        nominal = KERNELS[args.workload][1]
        setup_ratios = [ratio([s], refs[i : i + 2])
                        for setups, refs in (before, after) for i, s in enumerate(setups)]
        metrics = {
            "wall_norm_s": {"value": nominal * statistics.median(res["wall_ratio"]), "unit": "s"},
            "cpu_norm_s": {"value": nominal * statistics.median(res["cpu_ratio"]), "unit": "s"},
            "setup_s": {"value": SETUP_KERNEL[1] * statistics.median(setup_ratios), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }
        print(f"wall_s {statistics.median(res['wall_s'])!r} s (median of {len(res['wall_s'])} units; "
              f"tail: {tail(res['wall_s'])})")
        print(f"cpu_s {statistics.median(res['cpu_s'])!r} s")
        print(f"reference kernel {statistics.median(res['ref_wall_s'])!r} s "
              f"(median of {len(res['ref_wall_s'])}; nominal {nominal} s)")
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
        print(f"setup_s median of {2 * count} set-up-only workers; plain median "
              f"{statistics.median(before[0] + after[0])!r} s")

    OUT.mkdir(exist_ok=True)
    saved = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "setup_s": before[0] + [setup_s] + after[0],
        "setup_ref_s": before[1] + after[1], **res, "metrics": metrics,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("max_order"):
        return "order"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

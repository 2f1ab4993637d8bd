"""One workload in one fresh process: set up, say READY, run units, report.

Started by ``run.py``; not meant to be run by hand.  Standard output
carries exactly two lines: ``READY`` once set-up is done, then one JSON
object with the raw samples.  ``vincular`` is imported from the ``src``
directory next to this benchmark and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from reference import ratio

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def import_program() -> None:
    """Import vincular from ROOT/src, or exit 1 when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import vincular
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import vincular from {src}: {exc}")
    if not Path(vincular.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: vincular came from {vincular.__file__}, not {src}")


_FAILED = object()


def _passes(check, out) -> bool:
    if out is _FAILED:
        return False
    try:
        return bool(check(out))
    except Exception:
        traceback.print_exc()
        return False


def _time(fn) -> tuple[float, float]:
    t0, c0 = perf_counter(), process_time()
    fn()
    return perf_counter() - t0, process_time() - c0


class _Steps:
    """Times the steps of one unit, and the reference kernel after each."""

    def __init__(self, reference):
        self.reference = reference
        self.times, self.refs = [], []
        self.t0, self.c0 = perf_counter(), process_time()

    def pause(self) -> None:
        """End a step.  A unit calls this between its steps."""
        self.times.append((perf_counter() - self.t0, process_time() - self.c0))
        if self.reference is not None:
            self.refs.append(_time(self.reference))
        self.t0, self.c0 = perf_counter(), process_time()


def measure(unit, check, seconds: float, tracer=None, reference=None) -> dict:
    """Repeat ``unit`` until ``seconds`` have passed, checking every output.

    At least one unit runs.  With a tracer, every second unit runs traced
    and at least one of each kind runs.  With a reference kernel, it is
    timed before the first unit and after every step of every untraced
    unit, and each such unit's times at the kernel's speed are kept too.
    A unit fails when it raises or its output fails the check; failures
    are counted, never retried.
    """
    walls, cpus, traced_walls, aggs, refs, ratios = [], [], [], [], [], []
    failed = 0
    start = perf_counter()
    if reference is not None:
        reference()  # warm-up, untimed
        refs.append(_time(reference))
    while True:
        traced = tracer is not None and (len(walls) + len(traced_walls)) % 2 == 1
        if traced:
            tracer.install()
            first = tracer.begin(len(traced_walls) + 1)
        steps = _Steps(None if traced else reference)
        try:
            out = unit(steps.pause)
        except Exception:
            traceback.print_exc()
            out = _FAILED
        steps.pause()
        wall, cpu = (sum(t) for t in zip(*steps.times))
        if traced:
            tracer.uninstall()
            aggs.append(tracer.aggregate(first))
            traced_walls.append(wall)
        else:
            walls.append(wall)
            cpus.append(cpu)
            if reference is not None:
                around = [refs[-1], *steps.refs]
                ratios.append([ratio([t[k] for t in steps.times], [r[k] for r in around])
                               for k in (0, 1)])
                refs += steps.refs
        failed += not _passes(check, out)
        out = None  # free the output before the next unit runs
        if perf_counter() - start >= seconds and walls and (tracer is None or traced_walls):
            break
    return {
        "attempted": len(walls) + len(traced_walls),
        "failed": failed,
        "wall_s": walls,
        "cpu_s": cpus,
        "traced_wall_s": traced_walls,
        "aggregates": aggs,
        "ref_wall_s": [w for w, _ in refs],
        "ref_cpu_s": [c for _, c in refs],
        "wall_ratio": [w for w, _ in ratios],
        "cpu_ratio": [c for _, c in ratios],
    }


def traced_report(setup: dict, res: dict) -> dict:
    """Per-layer metrics: set-up plus one unit, median over traced units."""
    from tracing import EXACT, layer_metrics, merge

    per_unit = [layer_metrics(merge(setup, agg)) for agg in res["aggregates"]]
    layers = {
        k: (statistics.median_low if k in EXACT else statistics.median)(m[k] for m in per_unit)
        for k in per_unit[0]
    }
    layers["trace.overhead_s"] = (
        statistics.median(res["traced_wall_s"]) - statistics.median(res["wall_s"])
    )
    return {
        "layers": layers,
        "counts": {k: per_unit[0][k] for k in EXACT},
        "counts_repeat": all(m[k] == per_unit[0][k] for m in per_unit for k in EXACT),
        "traced_units": len(per_unit),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import workloads
    from reference import KERNELS as REFERENCE

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin(0)
    try:
        inp = workloads.inputs(args.workload, args.seed)
    except ValueError as exc:
        sys.exit(f"perfbench: {exc}")
    unit, check = workloads.prepare(args.workload, inp)
    if tracer is not None:
        tracer.uninstall()
        setup = tracer.aggregate(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = None if tracer else REFERENCE[args.workload][0]
    res = measure(unit, check, args.seconds, tracer, reference)
    out = {
        "inputs": {k: str(v) for k, v in inp.items()},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out.update(traced_report(setup, res))
        OUT.mkdir(exist_ok=True)
        out["spans_file"] = str((OUT / f"spans-{args.workload}.csv").relative_to(ROOT))
        tracer.write(ROOT / out["spans_file"])
    del res["aggregates"]
    out.update(res)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

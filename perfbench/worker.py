"""One benchmark process: set up, run a cold pass, then timed passes.

Started by ``run.py``; not meant to be run by hand. When the cold pass
ends it prints ``READY`` and a JSON object with the host speed sampled
during set-up (the launcher times set-up from spawn to that line). Unless
``--probe`` is given it then runs the timed passes and prints one JSON
summary as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback

import common
import speed
from gate import RepeatLog

MAX_REPORTED_FAILURES = 20
MIN_PASSES = 3  # so that every item's median time has three samples


class Pass:
    """Item times of one pass: normalised (reported) and raw wall seconds."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.times: list[float] = []
        self.raw: list[float] = []


class Runner:
    """Runs passes of one workload, gating every item it runs."""

    def __init__(self, workload, seed: int, reference: dict) -> None:
        self.reference = reference
        self.orders = workload.orders(seed)
        self.repeats = RepeatLog()
        self.attempted = 0
        self.failed = 0

    def _fail(self, item, reasons: list[str]) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {item.id}: {'; '.join(reasons)}", file=sys.stderr)

    def run_pass(self, normalise: bool = True) -> Pass:
        """One pass; failures are counted, not raised.

        With ``normalise`` each item runs under a speed meter, and end
        probes run between items; otherwise only raw times are taken.
        """
        done = Pass()
        before = speed.end_speeds() if normalise else []
        for item in next(self.orders):
            item.prepare()
            self.attempted += 1
            meter = speed.SpeedMeter() if normalise else contextlib.nullcontext()
            with meter:
                t0 = time.perf_counter()
                try:
                    raw, reasons = item.call(), None
                except Exception:  # an item that raises is a failed item
                    raw, reasons = None, [traceback.format_exc(limit=3).strip()]
                elapsed = time.perf_counter() - t0
            done.ids.append(item.id)
            done.raw.append(elapsed)
            if normalise:
                after = speed.end_speeds()
                done.times.append(speed.normalised(elapsed, meter, before, after))
                before = after
            if reasons is None:
                data, reasons = item.judge(raw, self.reference)
                reasons += self.repeats.failures(item.id, data)
            if reasons:
                self._fail(item, reasons)
        return done

    def timed(self, seconds: float, min_passes: int,
              normalise: bool = True) -> list[Pass]:
        """Whole passes until ``seconds`` have passed and ``min_passes`` ran."""
        passes = []
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(normalise))
        return passes


def end_to_end(passes: list[Pass]) -> dict:
    """End-to-end metrics of the timed passes.

    The percentiles are taken over each item's own median time in the
    run. Items differ in kind by up to 100x (a 13 ms three-round run next
    to a 1.2 s public-coin one), so pooled order statistics sit inside
    one item's cluster of times or between two, where host noise on
    single items moves them. The spread across items, which they are
    meant to show, does not depend on that noise.
    """
    by_item: dict[str, list[float]] = {}
    for p in passes:
        for i, t in zip(p.ids, p.times):
            by_item.setdefault(i, []).append(t)
    typical = {i: statistics.median(ts) for i, ts in by_item.items()}
    return {
        "pass_s": statistics.median([sum(p.times) for p in passes]),
        "item_s.p50": statistics.median(typical.values()),
        "item_s.tail": max(typical.values()),
        "item_typical_s": typical,
        "item_times_s": [dict(zip(p.ids, p.times)) for p in passes],
        "raw_item_times_s": [dict(zip(p.ids, p.raw)) for p in passes],
        "passes": len(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(runner: Runner, seconds: float) -> dict:
    """Untraced then traced passes in one process; per-layer metrics per pass.

    The speed meter's probes would run inside spans, so this run takes
    raw wall times only.
    """
    import spans

    untraced = runner.timed(seconds / 2, 1, normalise=False)
    tracer = spans.Tracer()
    tracer.install()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds / 2:
        passes.append(runner.run_pass(normalise=False))
        tracer.end_pass()
    tracer.uninstall()
    untraced_s = statistics.median([sum(p.raw) for p in untraced])
    traced_s = [sum(p.raw) for p in passes]
    layers = spans.layer_metrics(tracer, len(passes))
    layers["trace.overhead_s"] = statistics.median(traced_s) - untraced_s
    return {
        "layers": layers,
        "open_spans": tracer.open_spans,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
    }


def set_up(args: argparse.Namespace):
    """Imports, inputs and the cold pass, under a speed meter."""
    before = speed.end_speeds()
    with speed.SpeedMeter() as meter:
        import workloads

        common.OUT.mkdir(exist_ok=True)
        workload = workloads.build(args.workload, args.seed)
        runner = Runner(workload, args.seed, workloads.load_reference())
        runner.run_pass(normalise=False)
    after = speed.end_speeds()
    probe_s = meter.probe_s + sum(speed.PROBE_REF_S / v for v in [*before, *after])
    speeds = [*before, *meter.speeds, *after]
    return runner, {"speed": statistics.fmean(speeds), "probe_s": probe_s}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop after the cold pass (a set-up sample)")
    args = parser.parse_args(argv)

    common.load_program()
    runner, setup = set_up(args)
    print(f"READY {json.dumps(setup)}", flush=True)
    summary = {}
    if not args.probe:
        if args.trace:
            summary.update(traced(runner, args.seconds))
        else:
            summary.update(end_to_end(runner.timed(args.seconds, MIN_PASSES)))
        summary["fingerprint"] = common.fingerprint(args.seed)
        summary["wrappers_loaded"] = "spans" in sys.modules
    summary.update(attempted=runner.attempted, failed=runner.failed)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

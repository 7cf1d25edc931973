"""qromlab benchmark launcher.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` it measures the end-to-end metrics of a workload:
set-up time (the median of ``SETUP_SAMPLES`` fresh processes, each timed
from spawn to the end of its cold pass), then timed passes in the last
of those processes. Times are normalised to a reference host speed
(see speed.py); raw times are kept in the result file. With
``--trace 1`` it reports per-layer metrics from a run that wraps
qromlab's public functions. Every item is checked by
the correctness gate. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file with the machine fingerprint
is written to ``perfbench/out/``.

The launcher itself never imports numpy; it pins BLAS/OpenMP threads in
the environment of every process it starts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time

import common

SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, float, dict]:
    """Run one worker; return its set-up time, raw and normalised, and its
    summary. Set-up runs from spawn to the worker's READY line, which
    carries the host speed the worker sampled meanwhile (see speed.py)."""
    cmd = [sys.executable, str(common.BENCH / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=common.pinned_env(), cwd=common.ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                ready = time.perf_counter() - t0
                sampled = json.loads(line[len("READY "):])
            else:
                lines.append(line)
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with code {rc}")
    setup = (ready - sampled["probe_s"]) * sampled["speed"]
    return ready, setup, json.loads(lines[-1])


def pick_metrics(table, values: dict) -> dict:
    """The metrics of ``table`` from the worker's values. A name the worker
    did not measure is an error, never a zero: a span the tracer failed to
    wrap must not read as a function that costs nothing."""
    missing = [m for m, _ in table if m not in values]
    if missing:
        raise WorkerError(f"worker measured no {', '.join(missing)}")
    return {m: {"value": values[m], "unit": unit} for m, unit in table}


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    raw_setups, setups, attempted, failed = [], [], 0, 0
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            raw, setup, probe = spawn([*base, "--probe"], deadline)
            raw_setups.append(raw)
            setups.append(setup)
            attempted += probe["attempted"]
            failed += probe["failed"]
    raw, setup, summary = spawn([*base, "--trace", str(trace)], deadline)
    raw_setups.append(raw)
    setups.append(setup)
    attempted += summary["attempted"]
    failed += summary["failed"]
    if trace:
        table = common.PER_LAYER
        values = summary["layers"]
    else:
        table = common.END_TO_END
        values = dict(summary, setup_s=statistics.median(setups))
    metrics = pick_metrics(table, values)
    result = {
        "workload": name,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "metrics": metrics,
        "detail": summary,
    }
    common.OUT.mkdir(exist_ok=True)
    path = common.OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def show(result: dict) -> None:
    d = result["detail"]
    print(f"== {result['workload']} (trace {result['trace']})  "
          f"fingerprint {json.dumps(d['fingerprint'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "item_s.tail":
            note = (f"  (p100 of {len(d['item_typical_s'])} item medians; "
                    f"{d['passes']} passes timed)")
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"  failed_ratio = {result['failed_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']} items)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*common.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not common.program_present():
        print(f"perfbench: no qromlab sources under {common.SRC}", file=sys.stderr)
        return 2
    names = common.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results.append(run_workload(name, args.seed, args.seconds, args.trace,
                                        deadline))
        except WorkerError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        show(results[-1])
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

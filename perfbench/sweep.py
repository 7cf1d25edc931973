"""Scaling sweep: where the walls are. Informational, never gated.

    python3 perfbench/sweep.py

Runs each point once in its own process (BLAS pinned, address space
capped at ``MEMORY_CAP`` bytes, killed after ``TIMEOUT_S`` seconds) and
records its wall time, its exit code, or the one-line error it stops
with. The points are the three classical
decision experiments at ``--reps 1..4``, expected-time at ``--q 8, 10,
12, 16``, and three configurations rejected by the program today. The
table is printed and written, with the fingerprint, to
``perfbench/out/sweep.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time

import common

MEMORY_CAP = 2 * 1024**3
TIMEOUT_S = 120.0

POINTS = (
    *(("run", theorem, "--reps", str(reps))
      for theorem in ("constant-round", "public-coin", "three-round")
      for reps in (1, 2, 3, 4)),
    *(("run", "expected-time", "--q", str(q)) for q in (8, 10, 12, 16)),
    ("run", "constant-round", "--q", "3"),
    ("run", "public-coin", "--q", "3"),
    ("run", "expected-time", "--protocol", "toy-qr"),
)


def one_point(argv: list[str]) -> dict:
    """Run one CLI invocation in this process; report wall time or error."""
    common.load_program()
    from qromlab import cli

    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # the point's outcome is the error it stops with
        line = f"{type(exc).__name__}: {exc}".splitlines()[0][:200]
        return {"error": line, "wall_s": time.perf_counter() - t0}
    return {"exit_code": rc, "wall_s": time.perf_counter() - t0}


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def sweep() -> list[dict]:
    rows = []
    for point in POINTS:
        cmd = [sys.executable, __file__, "--point", *point]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S,
                                  env=common.pinned_env(), preexec_fn=_cap_memory,
                                  check=False)
            lines = done.stdout.strip().splitlines()
            row = json.loads(lines[-1]) if done.returncode == 0 and lines else {
                "error": (done.stderr.strip().splitlines() or ["no output"])[-1][:200]}
        except subprocess.TimeoutExpired:
            row = {"error": f"timeout after {TIMEOUT_S:g} s"}
        row["point"] = " ".join(point)
        rows.append(row)
        outcome = row.get("error") or f"exit {row['exit_code']}"
        wall = f"{row['wall_s']:8.3f} s" if "wall_s" in row else " " * 10
        print(f"{row['point']:<44} {wall}  {outcome}", flush=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--point", nargs=argparse.REMAINDER,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(one_point(args.point)))
        return 0
    if not common.program_present():
        print(f"sweep: no qromlab sources under {common.SRC}", file=sys.stderr)
        return 2
    rows = sweep()
    common.load_program()
    out = {"fingerprint": common.fingerprint(seed=0), "points": rows}
    common.OUT.mkdir(exist_ok=True)
    (common.OUT / "sweep.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

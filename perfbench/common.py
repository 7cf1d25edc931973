"""Paths, the BLAS thread pin, metric names and the fingerprint shared by
the launcher, the worker, the sweep and the self-tests.

Nothing here imports numpy, so the launcher can pin threads before any
process of the benchmark loads it.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One BLAS/OpenMP thread: with two, the idle OpenBLAS thread spins and
# makes small dense demos bimodal (markov: 0.09 s or 0.25 s per call).
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

WORKLOADS = ("dense-expected", "classical-decision", "lemma-sweep", "adjuster-784")

# (name, unit) of every end-to-end metric, in report order. failed_ratio
# is printed with them but is not in BENCHMARK.json: it is 0 on a correct
# program, and the result line already carries it as failed/attempted.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("item_s.p50", "s"),
    ("item_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)


def _calls_self(fn: str) -> tuple[tuple[str, str], ...]:
    return ((f"{fn}.calls", "count"), (f"{fn}.self_s", "s"))


MODULES = ("qsim", "oracle", "hashfam", "protocol", "adversary", "transforms",
           "pipeline", "cli")

# Per-layer metrics reported by the traced run, per pass. The traced run
# measures every public function of every module; these are the ones
# later changes are expected to move (see README.md for the mapping).
PER_LAYER = (
    ("adversary.build_verifier.calls", "count"),
    ("adversary.build_verifier.distinct_ratio", "ratio"),
    *_calls_self("adversary.apply_step"),
    ("adversary.apply_step.amps", "count"),
    *_calls_self("adversary.run_query_algorithm"),
    ("adversary.run_query_algorithm.branches", "count"),
    *_calls_self("adversary.run_simulator"),
    *_calls_self("adversary.output_distribution"),
    *_calls_self("qsim.apply_unitary"),
    ("qsim.apply_unitary.amps", "count"),
    *_calls_self("qsim.measure_register"),
    *_calls_self("oracle.quantum_query"),
    ("oracle.quantum_query.amps", "count"),
    ("oracle.SparseOracleDist.enumerate_weighted.tables", "count"),
    *_calls_self("qsim.DensityOnRegister"),
    *_calls_self("qsim.trace_distance"),
    *_calls_self("qsim.partial_trace"),
    *_calls_self("hashfam.build_efficient_adjuster"),
    ("hashfam.build_efficient_adjuster.dim", "count"),
    *_calls_self("hashfam.build_exact_adjuster"),
    *_calls_self("hashfam.TwoQWiseFamily.flagged_keys"),
    *_calls_self("hashfam.family_exactness_check"),
    *_calls_self("pipeline.run_experiment"),
    *_calls_self("pipeline.fs_forgery_exact"),
    *_calls_self("pipeline.extraction_prover_value"),
    *_calls_self("pipeline.report_json"),
    *_calls_self("transforms.enumerate_schedules"),
    ("transforms.enumerate_schedules.schedules", "count"),
    *_calls_self("transforms.mar_general"),
    *_calls_self("transforms.mar_ordered"),
    *_calls_self("transforms.o2h_corollary_C"),
    *_calls_self("protocol.soundness_exact"),
    *_calls_self("cli.main"),
    *((f"{m}.self_s", "s") for m in MODULES),
    ("trace.overhead_s", "s"),
)


def pinned_env() -> dict[str, str]:
    """This process's environment with every BLAS/OpenMP pool pinned."""
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools; must run before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pin")
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})


def load_program() -> None:
    """Pin threads and put the checkout's ``src`` first on the import path."""
    pin_threads()
    sys.path.insert(0, str(SRC))


def program_present() -> bool:
    return (SRC / "qromlab" / "__init__.py").is_file()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint(seed: int) -> dict:
    """Machine and program facts recorded next to every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "git_sha": sha,
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": nproc(),
        "blas_threads": BLAS_THREADS,
        "workload_seed": seed,
        "machine": platform.machine(),
    }


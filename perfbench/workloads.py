"""The four workloads: fixed item lists driven through qromlab's public API.

A pass runs every item of a workload once, back to back, in an order
drawn from the workload seed (closed loop, one client, one process).
Each item has an untimed ``prepare``, a timed ``call`` and an untimed
``judge`` that applies the correctness gate and returns the bytes that
must repeat exactly when the item runs again in the same process.

Import this module only after ``common.pin_threads`` and with ``src`` on
``sys.path``: it loads numpy and qromlab.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from common import BENCH, OUT
from gate import adjuster_failures, demo_failures, experiment_failures

from qromlab import cli, hashfam, oracle, qsim

REFERENCE = BENCH / "reference.json"
LETTERS = (0, 1)
DEMOS = ("adjuster", "adjuster-eff", "final-state", "hrs", "mar", "mar-ordered",
         "markov", "o2h", "swap", "truncation", "zhandry")


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Experiment:
    """``qromlab run ...``; the report is written to a file and judged.

    The file is this process's own, so benchmark runs side by side do not
    overwrite each other's reports.
    """

    def __init__(self, *argv: str) -> None:
        self.id = " ".join(("run", *argv))
        self.path = OUT / f"report-{os.getpid()}.json"
        self.argv = ["run", *argv, "--out", str(self.path)]

    def prepare(self) -> None:
        self.path.unlink(missing_ok=True)

    def call(self):
        return _cli(self.argv)

    def judge(self, raw, reference: dict) -> tuple[bytes, list[str]]:
        rc, _ = raw
        data = self.path.read_bytes() if self.path.exists() else None
        self.path.unlink(missing_ok=True)
        return data or b"", experiment_failures(
            rc, data, reference["experiments"][self.id])


class Demo:
    """``qromlab verify-lemma <name> --seed <workload seed>``."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.id = f"verify-lemma {name}"
        self.argv = ["verify-lemma", name, "--seed", str(seed)]

    def prepare(self) -> None:
        pass

    def call(self):
        return _cli(self.argv)

    def judge(self, raw, reference: dict) -> tuple[bytes, list[str]]:
        rc, text = raw
        return text.encode(), demo_failures(rc, text, self.name)


def _pure(register: str, vec: np.ndarray):
    return qsim.DensityOnRegister(register, np.outer(vec, vec.conj()))


def _defect(u: np.ndarray) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(len(u))).max())


class AdjusterCheck:
    """Acceptance criterion 5 for one transcript at one density.

    The exact route runs on the 6-point prefix domain at ``eps``, the
    efficient route on the 784-key family with shift bound ``b``.
    """

    def __init__(self, eps: Fraction, b: int, m: tuple) -> None:
        self.eps, self.b, self.m = eps, b, m
        self.id = f"adjuster eps={eps} b={b} m={','.join(map(str, m))}"

    def prepare(self) -> None:
        pass

    def call(self):
        pdom = oracle.prefix_domain(LETTERS, 2)
        dist = oracle.SparseOracleDist(pdom, self.eps)
        u = hashfam.build_exact_adjuster(self.m, dist).matrix
        got = u @ hashfam.table_superposition(dist)
        want = hashfam.flagged_table_superposition(self.m, dist)
        result = {
            "exact_unitarity": _defect(u),
            "exact_td": qsim.trace_distance(_pure("T", got), _pure("T", want)),
        }
        fam = hashfam.TwoQWiseFamily(
            hashfam.PolynomialFamily(pdom, prime=7, degree=1, a=4), b=self.b, k=2)
        u = hashfam.build_efficient_adjuster(self.m, fam).matrix
        uniform = np.full(fam.key_count, 1.0 / np.sqrt(fam.key_count))
        flagged = fam.flagged_keys(self.m)
        want = np.zeros(fam.key_count)
        want[flagged] = 1.0 / np.sqrt(len(flagged))
        result["eff_unitarity"] = _defect(u)
        result["eff_td"] = qsim.trace_distance(_pure("K", u @ uniform), _pure("K", want))
        result["flagged"] = len(flagged)
        return result

    def judge(self, raw, reference: dict) -> tuple[bytes, list[str]]:
        data = json.dumps({k: repr(v) for k, v in raw.items()}, sort_keys=True)
        return data.encode(), adjuster_failures(raw, reference["flagged_keys"][self.id])


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple

    def orders(self, seed: int):
        """Endless pass orders, the same sequence for the same seed."""
        rng = random.Random(seed)
        while True:
            yield rng.sample(self.items, len(self.items))


def build(name: str, seed: int) -> Workload:
    if name == "dense-expected":
        items = tuple(Experiment("expected-time", "--sim", sim) for sim in
                      ("expected-geometric", "expected-honest", "expected-lazy"))
        return Workload(name, items)
    if name == "classical-decision":
        items = tuple(Experiment(theorem, *reps)
                      for theorem in ("constant-round", "public-coin", "three-round")
                      for reps in ((), ("--reps", "4")))
        return Workload(name, items)
    if name == "lemma-sweep":
        return Workload(name, tuple(Demo(d, seed) for d in DEMOS))
    if name == "adjuster-784":
        # The deterministic half of criterion 5's round (eps 1/4, b 1): the
        # whole round takes 6 s a pass, too long for enough passes a run.
        items = tuple(AdjusterCheck(Fraction(1, 4), 1, m)
                      for m in itertools.product(LETTERS, repeat=2))
        return Workload(name, items)
    raise ValueError(f"unknown workload {name!r}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())

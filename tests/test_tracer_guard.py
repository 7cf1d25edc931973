"""The benchmark's span tracer still finds every per-layer name it reports.

``perfbench/run.py`` fails a traced run whose worker measured no value
for a ``PER_LAYER`` name; this test fails the same way under pytest, so
renaming or privatising a traced function cannot pass unnoticed. A
traced pass of every lemma demo must also still reach the per-call
kernels the ``lemma-sweep`` workload is about: a route that bypassed
them would read as a zero in the benchmark's per-layer table. So must a
traced ``run expected-time`` under each simulator reach the coherent
kernel ``apply_step`` and ``run_simulator``, as ``dense-expected`` does.
And the traced executor row must count every run of the one row
executor, ``run_query_algorithm``, that a demo makes.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from conftest import counting_runs
from qromlab import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import common  # noqa: E402
import spans  # noqa: E402


def test_tracer_covers_every_per_layer_name():
    tracer = spans.Tracer()
    tracer.install()
    try:
        layers = spans.layer_metrics(tracer, passes=1)
    finally:
        tracer.uninstall()
    missing = [
        name for name, _ in common.PER_LAYER
        if not name.startswith("trace.") and name not in layers
    ]
    assert missing == []


def test_a_traced_demo_pass_reaches_the_query_and_unitary_kernels():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["verify-lemma", name]) for name in sorted(cli.LEMMAS)]
        layers = spans.layer_metrics(tracer, passes=1)
    finally:
        tracer.uninstall()
    assert codes == [0] * len(cli.LEMMAS)
    assert layers["cli.main.calls"] == len(cli.LEMMAS)
    for name in ("oracle.quantum_query", "qsim.apply_unitary"):
        assert layers[f"{name}.calls"] > 0, name
        assert layers[f"{name}.amps"] > 0, name


def test_a_traced_expected_time_run_reaches_the_coherent_kernel():
    """Each expected-time member's coherent runs still go through
    ``apply_step``: a pad route that bypassed it would read as a zero in
    the ``dense-expected`` per-layer table."""
    for sim in ("expected-honest", "expected-lazy", "expected-geometric"):
        tracer = spans.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "expected-time", "--sim", sim])
            layers = spans.layer_metrics(tracer, passes=1)
        finally:
            tracer.uninstall()
        assert code == 0, sim
        assert layers["adversary.apply_step.calls"] > 0, sim
        assert layers["adversary.apply_step.amps"] > 0, sim
        assert layers["adversary.run_simulator.calls"] > 0, sim


@pytest.mark.parametrize("name", sorted(cli.LEMMAS))
def test_the_traced_executor_row_counts_every_run(monkeypatch, name):
    argv = ["verify-lemma", name, "--seed", "1"]
    runs = counting_runs(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    monkeypatch.undo()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        layers = spans.layer_metrics(tracer, passes=1)
    finally:
        tracer.uninstall()
    assert layers["adversary.run_query_algorithm.calls"] == len(runs)

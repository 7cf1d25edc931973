"""The benchmark's span tracer still finds every per-layer name it reports.

``perfbench/run.py`` fails a traced run whose worker measured no value
for a ``PER_LAYER`` name; this test fails the same way under pytest, so
renaming or privatising a traced function cannot pass unnoticed.
"""

import sys
from pathlib import Path

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

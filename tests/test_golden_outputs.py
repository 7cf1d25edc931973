"""Every demo and benchmark run prints exactly what the golden file holds.

The golden file records, for each ``verify-lemma`` demo at seeds 1-5,
its stdout and exit code, and for each ``run`` item of the benchmark's
``dense-expected`` and ``classical-decision`` workloads its stdout, exit
code, JSON report and CSV table, with the ``wrote <path>`` lines
dropped. Everything runs in-process through ``cli.main``.

A change that is meant to alter one of these outputs regenerates the
file and names the change in CHANGES.md::

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qromlab import cli

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEEDS = range(1, 6)
# perfbench's dense-expected items, then its classical-decision items
RUNS = tuple(
    ("expected-time", "--sim", sim)
    for sim in ("expected-geometric", "expected-honest", "expected-lazy")
) + tuple(
    (theorem, *reps)
    for theorem in ("constant-round", "public-coin", "three-round")
    for reps in ((), ("--reps", "4"))
)
ITEMS = tuple(
    ("verify-lemma", name, "--seed", str(seed))
    for name in sorted(cli.LEMMAS) for seed in SEEDS
) + tuple(("run", *argv) for argv in RUNS)


def produce(argv: tuple) -> dict:
    """One item's outputs: exit code and stdout, plus the report files of
    a ``run``."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {"json": Path(tmp, "report.json"), "csv": Path(tmp, "table.csv")}
        extra = ["--out", str(files["json"]), "--csv", str(files["csv"])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*argv, *extra] if argv[0] == "run" else list(argv))
        out = {"code": code, "stdout": "".join(
            line for line in buf.getvalue().splitlines(keepends=True)
            if not line.startswith("wrote "))}
        if argv[0] == "run":
            for kind, path in files.items():
                out[kind] = path.read_text() if path.exists() else None
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", ITEMS, ids=" ".join)
def test_output_matches_the_golden_file(argv, golden):
    want = golden[" ".join(argv)]
    got = produce(argv)
    assert got.keys() == want.keys()
    for kind in want:
        assert got[kind] == want[kind], kind


def test_the_golden_file_holds_exactly_these_items(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in ITEMS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_outputs.py --write")
    data = {" ".join(argv): produce(argv) for argv in ITEMS}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} items to {GOLDEN}")

"""Byte-identical ``analyze`` outputs against recorded files.

The cases cover all four baseline modes, a biased distribution with a short
curve, an empty curve, and a network that has only inputs.  A faster path
must write the same bytes.  To re-record after an intended change of the
outputs, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from bnspectral.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "analyze_golden.json"
FILES = ("report.json", "curve.csv", "scatter.csv")
TRIALS = ["--trials", "3", "--seed", "7"]
CASES = (
    [["golden.bnet", "--baseline", mode] + TRIALS
     for mode in ("exchange-random", "exchange-unate",
                  "random-topology-random", "random-topology-unate")]
    + [["golden.bnet", "--p", "0.3", "--L", "5", "--baseline", "exchange-random"] + TRIALS,
       ["golden.bnet", "--L", "0", "--baseline", "random-topology-random"] + TRIALS,
       ["inputs_only.bnet"]]
)


def run_case(argv: list[str], out: Path) -> dict[str, str]:
    """Run ``analyze`` from the data directory, so the report names the
    network by its bare file name, and return the written files."""
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze", *argv, "--out", str(out)]) == 0
    finally:
        os.chdir(cwd)
    return {name: (out / name).read_text() for name in FILES}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_outputs_match_recorded_bytes(argv, tmp_path):
    recorded = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert run_case(argv, tmp_path) == recorded


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {" ".join(argv): run_case(argv, Path(tmp) / str(i))
                  for i, argv in enumerate(CASES)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    sys.exit(0)

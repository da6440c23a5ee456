"""Record the golden outputs that ``run.py`` compares against.

    python3 perfbench/record_expected.py

Run only when the library's numbers are meant to change; the diff of
``expected.json`` then shows exactly which outputs moved.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        expected = {"ecoli_small": workloads.golden_small(Path(tmp)),
                    "wide_fn": workloads.golden_wide()}
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED}")


if __name__ == "__main__":
    main()

"""Run every workload once and print every metric by name, with its unit.

    python3 perfbench/all.py [--seed 0] [--seconds 25]

Each workload runs in its own process through ``run.py``.  The table lists
the end-to-end metrics of BENCHMARK.json, the raw ``op_s`` and the per-kind
metrics behind it, and ``failed_frac``.  Exits 1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ecoli-synth", "wide-fn", "identities")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    ok = True
    print(f"{'workload':<12} {'metric':<34} {'value':>14}  unit")
    for wl in WORKLOADS:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", wl,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", "0"], capture_output=True, text=True, check=True)
        detail, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
        ok = ok and result["correct"]
        rows = {**result["metrics"], "op_s": {"value": detail["op_s"], "unit": "s"},
                **detail["named_metrics"],
                "failed_frac": {"value": detail["failed_frac"], "unit": "ratio"}}
        for name, m in rows.items():
            print(f"{wl:<12} {name:<34} {m['value']:>14.6g}  {m['unit']}")
        for message in detail["failures"]:
            print(f"{wl:<12} FAILED {message}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Machine facts recorded with every result, and the copy-bandwidth probe.

``python3 perfbench/machine.py`` prints the facts as JSON.  The probe runs
in its own process so its buffers never count toward the benchmark's peak
resident set.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cache_sizes() -> dict[str, int]:
    """Per-core cache sizes in bytes keyed like ``L1d``, ``L2``, ``L3``."""
    out = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def copy_gbps(llc_bytes: int, repeats: int = 3) -> float:
    """Best rate of a NumPy copy whose arrays are each >= 4x the LLC.

    Counts one read and one write of the array per copy, the same
    convention as the computed kernel bytes.
    """
    import numpy as np

    n = max(4 * llc_bytes, 256 << 20) // 8
    src = np.ones(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2 * src.nbytes / best / 1e9


def facts() -> dict:
    import numpy as np

    caches = cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def probe_copy_gbps() -> float:
    """Run the copy probe in a child process and return its rate."""
    llc = max(cache_sizes().values(), default=32 << 20)
    out = subprocess.run([sys.executable, __file__, "--copy-gbps", str(llc)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--copy-gbps":
        print(copy_gbps(int(sys.argv[2])))
    else:
        print(json.dumps({**facts(), "copy_gbps": probe_copy_gbps()}, indent=2))

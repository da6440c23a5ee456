"""Benchmark entry point.

    python3 perfbench/run.py --workload ecoli-synth --seed 1 --seconds 25 --trace 0

Runs one workload in a single process and thread, in a closed loop with one
caller, for ``--seconds`` of rounds (at least one).  Every operation's output
is checked.  The last line of standard output is the result object; the line
before it holds the details: per-kind timings by name, shape statistics,
machine facts and any failure messages.  ``--trace 1`` wraps the library's
public functions and reports per-layer metrics instead of end-to-end ones;
its spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from calibration import REFERENCE_S, Calibrator  # noqa: E402

# Set-up samples: this run's own plus fresh interpreters, at least
# SETUP_MIN_SAMPLES, and more (up to SETUP_MAX_SAMPLES) until SETUP_MIN_S
# of set-up has been timed, so cheap set-ups, whose import time jittered by
# 2-3x on a shared 2-core machine, still get a steady median.
SETUP_MIN_SAMPLES, SETUP_MAX_SAMPLES, SETUP_MIN_S = 3, 9, 2.0
# End-to-end metrics, as BENCHMARK.json lists them.  ``op_rel`` is the
# geometric mean, over the workload's operation kinds, of each kind's median
# op time in calibration-kernel units (see calibration.py); the raw seconds,
# per kind and as ``op_s``, are in the details line.
END_TO_END = (("op_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def untraced(rec):
    return rec.paused() if rec is not None else contextlib.nullcontext()


def run_op(op, rec=None) -> tuple[float | None, str | None]:
    """Time one operation; (seconds per unit, None) or (None, failure).

    Input preparation and the output check are untimed and untraced.
    """
    with untraced(rec):
        inputs = op.prepare()
    if rec is not None:
        rec.begin_op()
    span = rec.span("op." + op.kind) if rec is not None else contextlib.nullcontext()
    try:
        t0 = time.perf_counter()
        with span:
            out = op.call(inputs)
        dt = time.perf_counter() - t0
        with untraced(rec):
            op.check(inputs, out)
    except Exception as exc:  # a raising operation or a failed check counts as failed
        return None, f"{op.kind}: {type(exc).__name__}: {exc}"
    return dt / op.per, None


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(error)


def run_rounds(wl, seconds: float, tally: Tally, rec=None):
    """At least one round, then more while another would end within
    ``seconds``, judged by the mean round so far.

    Returns the round count and, per kind, each op's seconds per unit and
    the same in calibration-kernel units (see calibration.py).
    """
    cal = Calibrator()
    done = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for op in wl.round(rounds):
            cal.maybe_sample()
            t0 = time.perf_counter()
            dt, error = run_op(op, rec)
            tally.add(error)
            if dt is not None:
                done.append((op, t0, time.perf_counter(), dt))
        rounds += 1
    cal.sample()
    times: dict[str, list[float]] = {kind: [] for kind in wl.kinds}
    rel: dict[str, list[float]] = {kind: [] for kind in wl.kinds}
    for op, t0, t1, dt in done:
        times[op.kind].append(dt)
        rel[op.kind].append(dt / (cal.around(t0, t1) if op.calibrated else REFERENCE_S))
    return rounds, times, rel, cal.median()


def run_checks(wl, tally: Tally, rec=None) -> None:
    for name, check in wl.one_off_checks():
        try:
            with untraced(rec):
                check()
        except Exception as exc:  # a failed or crashing check both count as failed
            tally.add(f"{name}: {type(exc).__name__}: {exc}")
        else:
            tally.add(None)


def timing_summary(samples: list[float]) -> dict:
    """Median, plus the highest of p99/p90/p75 (nearest rank) that has at
    least 10 samples beyond it."""
    out = {"n": len(samples), "median_s": statistics.median(samples)}
    ordered = sorted(samples)
    for pct in (99, 90, 75):
        rank = math.ceil(len(ordered) * pct / 100) - 1
        if len(ordered) - 1 - rank >= 10:
            out[f"p{pct}_s"] = ordered[rank]
            break
    return out


def named_metrics(timings: dict[str, dict]) -> dict[str, dict]:
    """The per-kind metrics under their names in the benchmark's README."""
    out = {}
    for kind, t in timings.items():
        if kind == "analyze":
            out["analyze_s"] = {"value": t["median_s"], "unit": "s/op"}
        elif kind.startswith("trial."):
            out["trial_s." + kind[6:]] = {"value": t["median_s"], "unit": "s/trial"}
        elif kind.startswith("fn."):
            out["fn_s." + kind[3:]] = {"value": t["median_s"], "unit": "s/op"}
        elif kind.startswith("noise_exact."):
            out["noise_exact_s." + kind[12:]] = {"value": t["median_s"], "unit": "s/op"}
        elif kind == "selftest_inst":
            out["selftest_inst_per_s"] = {"value": 1.0 / t["median_s"], "unit": "instances/s"}
    return out


def setup_only(workload: str, seed: int) -> int:
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        workloads.WORKLOADS[workload](seed, workdir).setup()
        elapsed = time.perf_counter() - T0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def setup_in_child(workload: str, seed: int) -> float:
    out = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                          "--setup-only"], capture_output=True, text=True, check=True,
                         timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def check_library_location() -> None:
    """Refuse to measure a ``bnspectral`` other than the one in this tree."""
    import bnspectral

    where = Path(bnspectral.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise SystemExit(f"bnspectral imported from {where}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time, exit")
    args = ap.parse_args(argv)

    check_library_location()
    import workloads
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(args.workload, args.seed)

    import machine
    import spans

    rec = None
    if args.trace:
        import bnspectral.cli  # noqa: F401  (loads every module before patching)

        rec = spans.SpanRecorder()
        rec.install()

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        own_setup = time.perf_counter() - T0
        tally = Tally()
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

        if rec is None:
            for op in wl.probe():  # warm-up: first-call costs stay out of the timings
                tally.add(run_op(op)[1])
            rounds, times, rel, calibration_s = run_rounds(wl, args.seconds, tally)
        else:
            overhead = measure_trace_overhead(wl, rec, tally)
            since = rec.start_window()
            rounds, times, rel, calibration_s = run_rounds(wl, args.seconds, tally, rec)
        run_checks(wl, tally, rec)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail.update(wl.stats())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timings = {kind: {**timing_summary(t), "median_rel": statistics.median(rel[kind])}
               for kind, t in times.items() if t}
    complete = len(timings) == len(wl.kinds)
    copy_gbps = machine.probe_copy_gbps()
    detail.update({
        "rounds": rounds,
        "calibration_median_s": calibration_s,
        "op_s": workloads.geomean(t["median_s"] for t in timings.values()) if timings else 0.0,
        "timings": timings,
        "named_metrics": named_metrics(timings),
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.messages,
        "machine": {**machine.facts(), "copy_gbps": copy_gbps},
    })

    if rec is None:
        setups = [own_setup]
        while len(setups) < SETUP_MIN_SAMPLES or (
                sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_SAMPLES):
            setups.append(setup_in_child(args.workload, args.seed))
        detail["setup_samples_s"] = setups
        values = {
            "op_rel": (workloads.geomean(t["median_rel"] for t in timings.values())
                       if timings else 0.0),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        rec.uninstall()
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.npz"
        rec.save(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
        extra = {
            "overhead_frac": overhead,
            "copy_gbps": copy_gbps,
            "resample_frac": wl.resample_frac(),
        }
        metrics = spans.layer_metrics(rec, since, rounds, extra)

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and complete,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def measure_trace_overhead(wl, rec, tally: Tally) -> float:
    """Traced over untraced time of the workload's probe ops, minus 1.

    After one warm-up pass, passes run untraced, traced, traced, untraced,
    so that warm-up and drift weigh on both sides; outputs are still checked.
    Leaves the wrappers installed.
    """
    total = {False: 0.0, True: 0.0}
    for tracing in (None, False, True, True, False):
        if tracing:
            rec.install()
        else:
            rec.uninstall()
        for op in wl.probe():
            dt, error = run_op(op, rec if tracing else None)
            tally.add(error)
            if tracing is not None:
                total[tracing] += (dt or 0.0) * op.per
    rec.install()
    return total[True] / total[False] - 1.0 if total[False] else 0.0


if __name__ == "__main__":
    sys.exit(main())

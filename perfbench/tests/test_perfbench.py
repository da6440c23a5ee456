"""Tests of the benchmark itself: generator, span arithmetic, failure counting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import netgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bnspectral.boolfn import ProductDist  # noqa: E402
from bnspectral.netlang import collapse, parse  # noqa: E402


def test_generator_is_deterministic():
    assert netgen.generate(7) == netgen.generate(7)
    assert netgen.generate(7) != netgen.generate(8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_meets_shape(seed):
    net = parse(netgen.generate(seed))
    stats = netgen.shape_stats(net, collapse(net))
    assert netgen.shape_errors(stats) == []
    assert sum(stats["collapsed_in_degree_histogram"].values()) == netgen.N_NODES


def test_shape_errors_report_a_miss():
    net = parse(netgen.generate(0, netgen.SMALL))
    stats = netgen.shape_stats(net, collapse(net))
    assert netgen.shape_errors(stats, netgen.SMALL) == []
    assert any("nodes" in e for e in netgen.shape_errors(stats))


def test_self_time_on_nested_spans():
    # root [0,10] > a [1,4] > leaf [2,3];  root > b [5,9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_window_treats_outside_parents_as_roots():
    rec = spans.SpanRecorder()
    with rec.span("outer"):
        since = len(rec)
        with rec.span("inner"):
            pass
    window = rec.arrays(since)
    assert window["parent"].tolist() == [-1]


def test_recorder_nests_and_restores():
    import bnspectral.cli  # noqa: F401
    from bnspectral import boolfn, measures

    original = boolfn.transform
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert measures.transform is not original
        f = workloads.random_instance(np.random.default_rng(0), 3)[0]
        with rec.span("op.test"):
            measures.cond_entropy(f, ProductDist.uniform(3), 0b011)
    finally:
        rec.uninstall()
    assert boolfn.transform is original and measures.transform is original
    summary = spans.summarize(rec.names, rec.arrays())
    assert summary["boolfn.transform"]["calls"] == 1
    assert summary["measures.cond_entropy_spectral"]["calls"] == 1
    recorded = rec.arrays()
    index = {rec.names[n]: i for i, n in enumerate(recorded["name_id"])}
    parent = recorded["parent"][index["measures.cond_entropy_spectral"]]
    assert parent == index["measures.cond_entropy"]
    assert recorded["tag"][index["boolfn.transform"]] == 3


def test_overhead_probe_leaves_tracing_installed():
    import bnspectral.cli  # noqa: F401
    from bnspectral import boolfn

    class Tiny(workloads.Workload):
        def probe(self):
            return [workloads.Op("tiny", workloads.fn_pipeline, lambda i, o: None,
                                 lambda: workloads.random_instance(np.random.default_rng(1), 4) + (0,))]

    original = boolfn.transform
    rec = spans.SpanRecorder()
    rec.install()
    try:
        tally = run.Tally()
        run.measure_trace_overhead(Tiny(0, Path(".")), rec, tally)
        assert boolfn.transform is not original
        assert (tally.attempted, tally.failed) == (5, 0)
    finally:
        rec.uninstall()
    assert boolfn.transform is original


def _fn_op(corrupt: bool) -> workloads.Op:
    def call(inputs):
        s, table, h = workloads.fn_pipeline(inputs)
        if corrupt:
            table = table.copy()
            table[5] += 1e-6
        return s, table, h

    def prepare():
        rng = np.random.default_rng(3)
        f, d = workloads.random_instance(rng, 8)
        return f, d, 2

    return workloads.Op("fn.n8", call, workloads.check_fn_pipeline, prepare)


def test_corrupted_output_counts_as_failed():
    tally = run.Tally()
    for corrupt in (False, True):
        dt, error = run.run_op(_fn_op(corrupt))
        tally.add(error)
        assert (dt is None) == corrupt
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "reconstruct_table" in tally.messages[0]


def test_raising_operation_counts_as_failed():
    def boom(_):
        raise ValueError("no")

    dt, error = run.run_op(workloads.Op("x", boom, lambda i, o: None))
    assert dt is None and "ValueError" in error


def test_corrupted_analyze_report_fails_its_check(tmp_path):
    text = netgen.generate(0, netgen.SMALL)
    (tmp_path / "n.bnet").write_text(text)
    report = workloads.run_analyze(tmp_path / "n.bnet", tmp_path / "out")
    net = parse(text)
    c = collapse(net)
    d = ProductDist.uniform(len(net.inputs))
    workloads.check_report(report, c, d)
    name = report["tau"][0]
    report["d_values"][name] += 1e-6
    with pytest.raises(workloads.CheckError, match="oracle"):
        workloads.check_report(report, c, d)


def test_noise_oracle_matches_library():
    from bnspectral.measures import noise_sensitivity

    f, d, eps = workloads.noise_instance(np.random.default_rng(5))
    assert abs(noise_sensitivity(f, d, eps) - workloads.noise_sensitivity_oracle(f, d, eps)) < 1e-12


def test_calibration_around_an_op():
    from calibration import Calibrator

    cal = Calibrator()
    cal.samples = [(0.0, 1.0, 1.0), (5.0, 6.0, 3.0), (6.0, 7.0, 4.0), (9.0, 10.0, 5.0)]
    assert cal.around(2.0, 4.0) == 2.0    # samples at 0.5 and 5.5 s
    assert cal.around(7.0, 8.0) == 4.0    # samples at 5.5, 6.5 and 9.5 s
    assert cal.around(13.0, 14.0) == 5.0  # none within 2 s: the nearest
    assert cal.median() == 3.5


def test_timing_summary_tail_needs_ten_beyond():
    assert "p90_s" not in run.timing_summary([1.0] * 99)
    assert run.timing_summary([float(i) for i in range(100)])["p90_s"] == 89.0
    assert run.timing_summary([float(i) for i in range(40)])["p75_s"] == 29.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)

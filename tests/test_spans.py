"""The benchmark's span recorder finds every library function it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

from bnspectral import netlang


def spans_module():
    """``perfbench/spans.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    """Each ``TARGETS`` entry names a function of the loaded package, so a
    renamed one (``netlang.collapse_local``, say) fails here rather than
    only under the benchmark's ``--trace 1``; the recorder installs and
    uninstalls over all of them."""
    spans = spans_module()
    for module, attr, _ in spans.TARGETS:
        found = spans._targets_in(importlib.import_module(f"bnspectral.{module}"), attr)
        assert found and all(callable(fn) for _, _, fn in found), (module, attr)
    real = netlang.collapse_local
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert netlang.collapse_local is not real
    finally:
        recorder.uninstall()
    assert netlang.collapse_local is real

"""In-memory span recorder that wraps the library's public functions from
outside ``src/``.

A span is (name, start, end, parent, tag): ``parent`` is the index of the
enclosing span or -1, and ``tag`` carries one small integer of context, such
as the arity of a transform.  The benchmark is single-threaded, so spans nest
strictly and a span's self time is its duration minus the durations of its
direct children.

Wrappers replace every binding of the target function in the loaded
``bnspectral`` modules, so a call through ``from .boolfn import transform``
inside ``measures`` is recorded as well as a call through ``boolfn``.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import numpy as np


def _arity_tag(args, kwargs):
    return args[0].arity


def _k_tag(args, kwargs):
    return args[0]


# (module, attribute, tag function).  A ``"*"`` attribute stands for every
# public function defined in that module.  Helpers that only serve a wrapped
# function (``subset_coeffs``, ``compact_weights``, the unate chain) are left
# unwrapped, so their time stays in their caller's self time.
TARGETS = (
    ("boolfn", "transform", _arity_tag),
    ("boolfn", "reconstruct_table", _arity_tag),
    ("boolfn", "conditional_expectation_table", None),
    ("boolfn", "relevant_variables", None),
    ("boolfn", "ProductDist.weights", None),
    ("measures", "*", None),
    ("netlang", "parse", None),
    ("netlang", "localize", None),
    ("netlang", "collapse_local", None),
    ("analysis", "determinative_power", None),
    ("analysis", "uncertainty_curve", None),
    ("analysis", "sensitivity_scatter", None),
    ("analysis", "baseline_curves", None),
    ("sampling", "sample_random_function", None),
    ("sampling", "sample_random_unate", _k_tag),
    ("sampling", "enumerate_unate_tables", None),
    ("reports", "*", None),
    ("cli", "main", None),
    ("selftest", "run_selftest", None),
    ("reference", "*", None),
)

# Recorded as leaves: nothing they call is split out.  The enumeration is
# set-up work whose whole cost is what ROADMAP item 4 replaces.
LEAVES = {"sampling.enumerate_unate_tables"}

# Span names that differ from "module.function".
SPAN_NAMES = {"netlang.collapse_local": "netlang.collapse",
              "boolfn.ProductDist.weights": "boolfn.weights"}


class SpanRecorder:
    """Spans in parallel arrays, plus the distinct-transform-key counter."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.tag = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.active = True
        self._op_keys: set[int] = set()
        self.distinct_keys = 0
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str, tag: int = -1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: int = -1):
        idx = self.open(name, tag)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Call through without recording, e.g. while checking outputs."""
        before, self.active = self.active, False
        try:
            yield
        finally:
            self.active = before

    def begin_op(self) -> None:
        """Distinct transform keys are counted within one operation."""
        self.distinct_keys += len(self._op_keys)
        self._op_keys = set()

    def start_window(self) -> int:
        """Start counting afresh; returns the index of the window's first span."""
        self._op_keys = set()
        self.distinct_keys = 0
        return len(self)

    def note_transform(self, f, d) -> None:
        self._op_keys.add(hash((f.arity, f.table, d.probs)))

    def wrap(self, fn, name: str, tag_fn=None):
        rec = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if name == "boolfn.transform":
                rec.note_transform(args[0], args[1])
            idx = rec.open(name, tag_fn(args, kwargs) if tag_fn else -1)
            try:
                if name in LEAVES:
                    with rec.paused():
                        return fn(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return traced

    def install(self, package: str = "bnspectral") -> None:
        """Patch every binding of each target in the loaded package modules."""
        if self._patches:
            return
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod_name, attr, tag_fn in TARGETS:
            home = sys.modules[f"{package}.{mod_name}"]
            for fn_name, owner, fn in _targets_in(home, attr):
                full = f"{mod_name}.{fn_name}"
                wrapped = self.wrap(fn, SPAN_NAMES.get(full, full), tag_fn)
                if owner is not None:
                    self._patch(owner, fn_name.split(".")[-1], wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def arrays(self, since: int = 0) -> dict[str, np.ndarray]:
        """Spans from index ``since`` on, parents rebased to that window."""
        parent = np.asarray(self.parent[since:], dtype=np.int64) - since
        parent[parent < 0] = -1
        return {
            "name_id": np.asarray(self.name_id[since:], dtype=np.int64),
            "parent": parent,
            "tag": np.asarray(self.tag[since:], dtype=np.int64),
            "start": np.asarray(self.start[since:], dtype=np.float64),
            "end": np.asarray(self.end[since:], dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _targets_in(module, attr: str):
    """(name, owner class or None, function) for one TARGETS entry."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        return [(attr, cls, getattr(cls, meth))]
    if attr != "*":
        return [(attr, None, getattr(module, attr))]
    out = []
    for name, value in vars(module).items():
        if (not name.startswith("_") and callable(value) and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__):
            out.append((name, None, value))
    return out


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Spans whose parent falls outside the window are treated as roots.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    inside = parent >= 0
    np.add.at(covered, parent[inside], dur[inside])
    return dur - covered


def summarize(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: call count, total self time, and per-tag durations."""
    selfs = self_times(spans["parent"], spans["start"], spans["end"])
    dur = spans["end"] - spans["start"]
    out = {}
    for nid, name in enumerate(names):
        sel = spans["name_id"] == nid
        if not sel.any():
            continue
        out[name] = {
            "calls": int(sel.sum()),
            "self_s": float(selfs[sel].sum()),
            "tags": spans["tag"][sel],
            "durations": dur[sel],
            "self": selfs[sel],
        }
    return out


# Per-layer metrics in the order BENCHMARK.json lists them.  Counts and self
# times are per round of the workload; ``.s.nXX`` are medians per call at
# that arity; the enumeration is the whole run's, since it happens once, in
# set-up.
PER_LAYER = (
    ("netlang.parse.self_s", "s"),
    ("netlang.collapse.self_s", "s"),
    ("netlang.collapse.calls", "count"),
    ("analysis.determinative_power.self_s", "s"),
    ("analysis.uncertainty_curve.self_s", "s"),
    ("analysis.sensitivity_scatter.self_s", "s"),
    ("analysis.baseline_curves.self_s", "s"),
    ("analysis.baseline.resample_frac", "ratio"),
    ("measures.cond_entropy_spectral.calls", "count"),
    ("measures.cond_entropy_spectral.self_s", "s"),
    ("measures.mi_spectral.calls", "count"),
    ("measures.mi_spectral.self_s", "s"),
    ("measures.avg_sensitivity_spectral.self_s", "s"),
    ("measures.noise_sensitivity.self_s", "s"),
    ("measures.self_s", "s"),
    ("measures.calls", "count"),
    ("boolfn.transform.calls", "count"),
    ("boolfn.transform.self_s", "s"),
    ("boolfn.transform.distinct_frac", "ratio"),
    ("boolfn.transform.s.n16", "s"),
    ("boolfn.transform.s.n20", "s"),
    ("boolfn.transform.s.n24", "s"),
    ("boolfn.reconstruct_table.s.n16", "s"),
    ("boolfn.reconstruct_table.s.n20", "s"),
    ("boolfn.reconstruct_table.s.n24", "s"),
    ("boolfn.conditional_expectation_table.self_s", "s"),
    ("boolfn.weights.calls", "count"),
    ("boolfn.weights.self_s", "s"),
    ("boolfn.relevant_variables.calls", "count"),
    ("boolfn.relevant_variables.self_s", "s"),
    ("boolfn.transform.bytes_computed.n24", "B"),
    ("boolfn.transform.gbps_computed.n24", "GB/s"),
    ("boolfn.transform.bw_frac.n24", "ratio"),
    ("sampling.sample_random_unate.k_le4.calls", "count"),
    ("sampling.sample_random_unate.k_le4.self_s", "s"),
    ("sampling.sample_random_unate.k_ge5.calls", "count"),
    ("sampling.sample_random_unate.k_ge5.self_s", "s"),
    ("sampling.enumerate_unate_tables.self_s", "s"),
    ("sampling.sample_random_function.self_s", "s"),
    ("reports.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("reference.self_s", "s"),
    ("selftest.run_selftest.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("machine.copy_gbps", "GB/s"),
)


def transform_bytes(n: int) -> int:
    """Computed bytes of one transform: the input copy plus n butterfly
    passes, each reading and writing the 2^n float64 array once."""
    return (n + 1) * 2 * 8 * (1 << n)


def layer_metrics(rec: SpanRecorder, since: int, rounds: int, extra: dict) -> dict:
    """Per-layer metrics from the spans recorded since ``since``.

    ``extra`` supplies what spans cannot: ``overhead_frac``, ``copy_gbps``
    and ``resample_frac``.
    """
    rec.begin_op()
    window = summarize(rec.names, rec.arrays(since))
    whole = summarize(rec.names, rec.arrays(0))

    def per_round(name: str, field: str) -> float:
        return window[name][field] / rounds if name in window else 0.0

    def layer_total(prefix: str, field: str) -> float:
        return sum(v[field] for k, v in window.items() if k.startswith(prefix)) / rounds

    def median_at(name: str, n: int) -> float:
        if name not in window:
            return 0.0
        sel = window[name]["durations"][window[name]["tags"] == n]
        return float(np.median(sel)) if sel.size else 0.0

    def unate(split: str, field: str) -> float:
        if "sampling.sample_random_unate" not in window:
            return 0.0
        entry = window["sampling.sample_random_unate"]
        sel = entry["tags"] <= 4 if split == "k_le4" else entry["tags"] >= 5
        return float(sel.sum() if field == "calls" else entry["self"][sel].sum()) / rounds

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if metric.startswith("sampling.sample_random_unate."):
            values[metric] = unate(head.rsplit(".", 1)[1], field)
        elif field in ("self_s", "calls") and head in ("measures", "reports", "reference"):
            values[metric] = layer_total(head + ".", field)
        elif field in ("self_s", "calls"):
            values[metric] = per_round(head, field)
        elif head.endswith(".s"):
            values[metric] = median_at(head[:-2], int(field[1:]))
    n24 = median_at("boolfn.transform", 24)
    values["boolfn.transform.bytes_computed.n24"] = float(transform_bytes(24))
    values["boolfn.transform.gbps_computed.n24"] = transform_bytes(24) / n24 / 1e9 if n24 else 0.0
    values["boolfn.transform.bw_frac.n24"] = (values["boolfn.transform.gbps_computed.n24"]
                                              / extra["copy_gbps"])
    calls = window.get("boolfn.transform", {}).get("calls", 0)
    values["boolfn.transform.distinct_frac"] = rec.distinct_keys / calls if calls else 0.0
    values["sampling.enumerate_unate_tables.self_s"] = (
        whole["sampling.enumerate_unate_tables"]["self_s"]
        if "sampling.enumerate_unate_tables" in whole else 0.0)
    values["analysis.baseline.resample_frac"] = extra["resample_frac"]
    values["trace.spans"] = (len(rec) - since) / rounds
    values["trace.overhead_frac"] = extra["overhead_frac"]
    values["machine.copy_gbps"] = extra["copy_gbps"]
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}

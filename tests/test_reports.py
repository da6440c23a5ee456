"""The report writers against the expressions they replaced: ``json.dumps``
of the report with every float rounded, and the per-field CSV writer."""

import collections
import enum
import json
import math
from numbers import Integral
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnspectral import cli, reports
from bnspectral.reports import _csv_text, json_text



def round12(x: float) -> float:
    return float(f"{x:.12g}")


def rounded(obj):
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rounded(v) for v in obj]
    return obj


def old_json_text(obj) -> str:
    return json.dumps(rounded(obj), indent=2, sort_keys=True) + "\n"


def old_csv_field(value) -> str:
    if isinstance(value, Integral):
        return str(value)
    if not isinstance(value, str):
        return repr(round12(value))
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def old_csv_text(header: str, rows) -> str:
    return "\n".join([header] + [",".join(map(old_csv_field, row)) for row in rows]) + "\n"


# Where the 12-digit text gains or loses an exponent, the subnormals, and
# values that round up across 1e-4 or 1e12.
EDGE_FLOATS = [-0.0, 0.0, 1e16, 1e12, 999999999999.5, 999999999999.4, 1e-4,
               0.000099999999999995, 9.9999999999e-5, 5e-324, 2.2250738585072014e-308,
               1234567.0, 0.1, 1 / 3, -2.5, math.nan, math.inf, -math.inf, 1e300, 1e-300]
STRINGS = ['"', "\\", "a,b", 'say "hi"', "line\nbreak", "\x00\x1f\x7f", "é ü 東京",
           "  ", "\ud800", "\U0001f600", ""]

floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS),
                   st.floats(8e-5, 2e-4), st.floats(9e11, 2e12), st.floats(-1e6, 1e6))
leaves = st.one_of(
    st.text(), st.sampled_from(STRINGS), st.integers(), st.booleans(), st.none(), floats,
    floats.map(np.float64))
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=4) | st.sampled_from(STRINGS),
                                            inner, max_size=4)),
    max_leaves=24)


class TestJsonText:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(obj=documents)
    def test_matches_json_dumps_of_the_rounded_report(self, obj):
        assert json_text(obj) == old_json_text(obj)

    @pytest.mark.parametrize("x", EDGE_FLOATS)
    def test_edge_floats(self, x):
        obj = {"x": x, "xs": [x, np.float64(x)], "neg": -x}
        assert json_text(obj) == old_json_text(obj)

    def test_subclasses_as_their_base(self):
        class Level(enum.IntEnum):
            HIGH = 3

        class Name(str):
            pass

        Pair = collections.namedtuple("Pair", "left right")
        obj = {"ordered": collections.OrderedDict([("b", 1.23456789012345), ("a", [])]),
               "int": Level.HIGH, "name": Name("x\ty"), "f64": np.float64(0.1 + 0.2),
               "pair": Pair(2.0 / 3.0, Name("r")), "empty": {}}
        assert json_text(obj) == old_json_text(obj)

    @pytest.mark.parametrize("obj", [{1: 2}, {"a": {None: 1}}], ids=["int key", "None key"])
    def test_keys_must_be_str(self, obj):
        with pytest.raises(TypeError):
            json_text(obj)

    @pytest.mark.parametrize("leaf", [{1, 2}, np.float32(0.5), np.int64(3), object()],
                             ids=["set", "float32", "int64", "object"])
    def test_what_json_refuses_is_refused(self, leaf):
        with pytest.raises(TypeError):
            old_json_text({"a": leaf})
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json_text({"a": leaf})


class TestCliPayloads:
    """Every JSON payload the CLI writes, caught on its way to the writer."""

    def test_every_payload(self, monkeypatch, tmp_path, capsys):
        payloads = []

        def spy(obj):
            payloads.append(obj)
            return json_text(obj)

        monkeypatch.setattr(reports, "json_text", spy)
        monkeypatch.setattr(cli, "json_text", spy)
        net = Path(__file__).parent / "data" / "golden.bnet"
        runs = [["analyze", str(net), "--baseline", "exchange-unate", "--trials", "3"],
                ["analyze", str(net), "--p", "0.3"],
                ["baseline", str(net), "--mode", "random-topology-random", "--trials", "2"],
                ["collapse", str(net)], ["collapse", str(net)],
                ["measures", "--expr", "a AND (b OR NOT c)", "--A", "a"],
                ["measures", "--expr", "x1 OR x2", "--p", "1e-16"],
                ["spectrum", "--expr", "x AND y OR z", "--p", "0.3", "--format", "json"]]
        for i, argv in enumerate(runs):
            out = ["--out", str(tmp_path / str(i))] if argv[0] in ("analyze", "baseline") else []
            if argv[0] == "collapse" and i == 4:
                out = ["--out", str(tmp_path / "c")]
            assert cli.main(argv + out) == 0
        capsys.readouterr()
        assert len(payloads) == len(runs)
        for obj in payloads:
            assert json_text(obj) == old_json_text(obj)

    def test_spectrum_json_keys_are_sorted(self, capsys):
        assert cli.main(["spectrum", "--expr", "x1 AND x2", "--p", "0.3,0.3",
                         "--format", "json"]) == 0
        text = capsys.readouterr().out
        rows = json.loads(text)
        assert text == json.dumps(rows, indent=2, sort_keys=True) + "\n"
        assert list(rows[0]) == ["coefficient", "degree", "mask", "subset"]


class TestCsvText:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=st.lists(st.lists(st.one_of(
        st.text(), st.sampled_from(STRINGS), st.integers(), st.booleans(), floats,
        floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64)), max_size=5),
        max_size=6))
    def test_matches_the_old_field_writer(self, rows):
        assert _csv_text("h,e", rows) == old_csv_text("h,e", rows)

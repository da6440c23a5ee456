"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnspectral
from bnspectral.cli import _read_p, main
from bnspectral.netlang import MAX_NESTING
from bnspectral.selftest import run_selftest

from conftest import random_network, to_text

TOY = """\
@inputs a b c
y1 = a AND b
y2 = a OR NOT c
y3 = b AND NOT b
"""


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.bnet"
    path.write_text(TOY)
    return path


class TestSpectrum:
    def test_and2_csv(self, capsys):
        assert main(["spectrum", "--expr", "x1 AND x2"]) == 0
        text = capsys.readouterr().out
        out = text.strip().splitlines()
        assert out[0] == "mask,degree,subset,coefficient"
        assert out[1] == "0,0,{},-0.5"
        assert out[4] == '3,2,"{x1,x2}",0.5'
        rows = list(csv.reader(io.StringIO(text)))
        assert {len(row) for row in rows} == {4}
        assert rows[4] == ["3", "2", "{x1,x2}", "0.5"]

    def test_dictator(self, capsys):
        assert main(["spectrum", "--expr", "x1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows == ["0,0,{},0.0", "1,1,{x1},1.0"]

    def test_biased_parseval(self, capsys):
        assert main(["spectrum", "--expr", "x1 AND x2", "--p", "0.3,0.3",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        total = sum(r["coefficient"] ** 2 for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_table_hex_input(self, capsys):
        assert main(["spectrum", "--table-hex", "08", "--labels", "u,v"]) == 0
        assert "{u,v}" in capsys.readouterr().out

    def test_requires_function(self, capsys):
        assert main(["spectrum"]) == 3

    def test_variable_named_f(self, capsys):
        assert main(["spectrum", "--expr", "f AND g"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows == ["0,0,{},-0.5", "1,1,{f},0.5", "2,1,{g},0.5", '3,2,"{f,g}",0.5']


# CLI ``measures`` stdout recorded when each measure still transformed the
# pair itself; the one-spectrum path must print the same bytes
MEASURES_GOLDEN = json.loads((Path(__file__).parent / "data" / "measures_golden.json").read_text())


class TestMeasures:
    @pytest.mark.parametrize("case", MEASURES_GOLDEN, ids=lambda c: " ".join(c["argv"]))
    def test_golden_stdout(self, case, capsys):
        assert main(["measures"] + case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"]

    def test_parity2_single_input(self, capsys):
        code = main(["measures", "--expr",
                     "(x1 AND NOT x2) OR (x2 AND NOT x1)", "--A", "x1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mutual_information_A"] == 0.0
        assert report["independent_of_A"] is True
        assert report["unate"]["is_unate"] is False

    def test_and3_sensitivity(self, capsys):
        assert main(["measures", "--expr", "x1 AND x2 AND x3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["avg_sensitivity"] == 0.75
        assert report["unate"]["is_unate"] is True

    def test_constant(self, capsys):
        assert main(["measures", "--expr", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["output_entropy"] == 0.0
        assert report["influence"] == {}


class TestCollapseCmd:
    def test_prints_json(self, toy_file, capsys):
        assert main(["collapse", str(toy_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["constants"] == [{"name": "y3", "value": -1}]
        assert payload["non_effective_inputs"] == []

    def test_out_dir(self, toy_file, tmp_path, capsys):
        out = tmp_path / "dump"
        assert main(["collapse", str(toy_file), "--out", str(out)]) == 0
        assert (out / "collapsed.json").is_file()


class TestAnalyze:
    def test_writes_reports(self, toy_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["analyze", str(toy_file), "--out", str(out), "--seed", "5"]) == 0
        stdout = capsys.readouterr().out
        assert "D(j) [bit]" in stdout
        assert "collapsed in-degree histogram: {0: 1, 2: 2}" in stdout
        report = json.loads((out / "report.json").read_text())
        assert "histogram" not in json.dumps(report)
        assert report["metadata"]["seed"] == 5
        assert set(report["d_values"]) == {"a", "b", "c"}
        assert report["tau"][0] == "a"
        assert (out / "curve.csv").read_text().startswith("l,A_l\n")
        assert (out / "scatter.csv").read_text().splitlines()[0] == \
            "node,in_degree,avg_sensitivity,prob_one,poincare_lower"

    def test_deterministic_bytes(self, toy_file, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["analyze", str(toy_file), "--seed", "42", "--baseline",
                "exchange-random", "--trials", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("report.json", "curve.csv", "scatter.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_svg_emission(self, toy_file, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["analyze", str(toy_file), "--out", str(out), "--svg"]) == 0
        assert (out / "curve.svg").read_text().startswith("<svg")
        assert (out / "scatter.svg").read_text().startswith("<svg")

    def test_p_file(self, toy_file, tmp_path, capsys):
        pfile = tmp_path / "probs.txt"
        pfile.write_text("a 0.3\nb 0.5\nc 0.7\n")
        out = tmp_path / "run"
        assert main(["analyze", str(toy_file), "--out", str(out),
                     "--p", f"@{pfile}"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["distribution"]["p"]["a"] == 0.3

    def test_p_file_missing_name(self, toy_file, tmp_path, capsys):
        pfile = tmp_path / "probs.txt"
        pfile.write_text("a 0.3\n")
        assert main(["analyze", str(toy_file), "--p", f"@{pfile}",
                     "--out", str(tmp_path / "x")]) == 3

    def test_p_too_near_0_or_1_writes_nothing(self, toy_file, tmp_path, capsys):
        # it once wrote "avg_sensitivity": NaN into report.json and exited 0
        out = tmp_path / "run"
        assert main(["analyze", str(toy_file), "--out", str(out), "--p", "1e-320"]) == 3
        assert "probability 1e-320 too close to 0 or 1" in capsys.readouterr().err
        assert not out.exists()


class TestBaselineCmd:
    def test_writes_outputs(self, toy_file, tmp_path, capsys):
        out = tmp_path / "base"
        assert main(["baseline", str(toy_file), "--mode", "exchange-unate",
                     "--trials", "2", "--seed", "3", "--out", str(out)]) == 0
        header = (out / "baseline.csv").read_text().splitlines()[0]
        assert header == "l,A_l,mean,stddev"
        payload = json.loads((out / "baseline.json").read_text())
        assert payload["trials"] == 2

    @pytest.mark.parametrize("mode", ["exchange-random", "exchange-unate",
                                      "random-topology-random", "random-topology-unate"])
    def test_matches_analyze(self, tmp_path, capsys, mode):
        rng = np.random.default_rng(7)
        net = random_network(rng, max_inputs=6, max_nodes=12)
        while len(net.defs) < 8:  # random topology needs 8 nodes
            net = random_network(rng, max_inputs=6, max_nodes=12)
        path = tmp_path / "net.bnet"
        path.write_text(to_text(net))
        common = ["--trials", "2", "--seed", "3"]
        assert main(["analyze", str(path), "--baseline", mode, "--out", str(tmp_path / "a")]
                    + common) == 0
        assert main(["baseline", str(path), "--mode", mode, "--out", str(tmp_path / "b")]
                    + common) == 0
        assert (tmp_path / "b" / "baseline.csv").read_bytes() == \
            (tmp_path / "a" / "curve.csv").read_bytes()
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        payload = json.loads((tmp_path / "b" / "baseline.json").read_text())
        assert report["baseline"]["mode"] == mode
        assert {k: payload[k] for k in report["baseline"]} == report["baseline"]
        assert payload["true_curve"] == report["curve"]


class TestExitCodes:
    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.bnet"
        bad.write_text("a = b\nb = a\n")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "cycle" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "collapse"])
    def test_failed_run_removes_the_out_dirs_it_made(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.bnet"
        bad.write_text("a = b\nb = a\n")
        assert main([command, str(bad), "--out", str(tmp_path / "new" / "deeper" / "o")]) == 3
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_failed_run_keeps_dirs_that_existed(self, tmp_path, capsys):
        bad = tmp_path / "bad.bnet"
        bad.write_text("a = b\nb = a\n")
        (tmp_path / "old").mkdir()
        assert main(["analyze", str(bad), "--out", str(tmp_path / "old")]) == 3
        assert main(["analyze", str(bad), "--out", str(tmp_path / "old" / "new" / "o")]) == 3
        assert (tmp_path / "old").is_dir() and not any((tmp_path / "old").iterdir())

    def test_failed_run_keeps_out_dirs_with_files(self, toy_file, tmp_path, monkeypatch,
                                                  capsys):
        import bnspectral.cli as cli

        def fail(*args):
            raise ValueError("failed after report.json")

        monkeypatch.setattr(cli, "curve_csv", fail)
        out = tmp_path / "new" / "o"
        assert main(["analyze", str(toy_file), "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["report.json"]

    def test_missing_file_is_3(self, tmp_path, capsys):
        assert main(["collapse", str(tmp_path / "nope.bnet")]) == 3

    def test_cap_exceeded_is_4(self, tmp_path, capsys):
        net = tmp_path / "wide.bnet"
        net.write_text("y = " + " OR ".join(f"v{i}" for i in range(7)) + "\n")
        assert main(["collapse", str(net), "--cap", "6"]) == 4
        assert "wide" not in capsys.readouterr().err  # names the node, not the file

    def test_negative_L_is_3(self, toy_file, tmp_path, capsys):
        assert main(["analyze", str(toy_file), "--L", "-1",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "error: --L must be nonnegative, got -1\n"

    def test_negative_top_is_3(self, toy_file, tmp_path, capsys):
        assert main(["analyze", str(toy_file), "--top", "-3",
                     "--out", str(tmp_path / "o")]) == 3
        assert "--top" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["random-topology-random", "random-topology-unate"])
    def test_random_topology_over_cap_is_4(self, tmp_path, capsys, mode):
        # every input feeds all 8 nodes, so every trial's fan-in is 12 > 10
        inputs = [f"x{i}" for i in range(1, 13)]
        net = tmp_path / "fan.bnet"
        net.write_text(f"@inputs {' '.join(inputs)}\n" + "".join(
            f"y{n} = {' AND '.join(inputs[:n + 1])}\n" for n in range(8)))
        assert main(["analyze", str(net), "--cap", "10", "--baseline", mode,
                     "--trials", "1", "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "exceeds cap 10" in err and "Traceback" not in err

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "whatever"])  # --mode is required
        assert exc.value.code == 2

    @pytest.mark.parametrize("mistake", ["directory as network", "directory as --p @file",
                                         "file as --out", "file as directory"])
    def test_path_mistake_is_3(self, toy_file, tmp_path, capsys, mistake):
        argv = {
            "directory as network": ["collapse", str(tmp_path)],
            "directory as --p @file": ["spectrum", "--expr", "a AND b", "--p", f"@{tmp_path}"],
            "file as --out": ["analyze", str(toy_file), "--out", str(toy_file)],
            "file as directory": ["collapse", str(toy_file / "toy.bnet")],
        }[mistake]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_p_file_name_listed_twice_is_3(self, tmp_path, capsys):
        probs = tmp_path / "p.txt"
        probs.write_text("a 0.3\nb 0.5\na 0.9\n")
        assert main(["spectrum", "--expr", "a AND b", "--p", f"@{probs}"]) == 3
        assert capsys.readouterr().err.strip() == f"error: {probs}:3: 'a' listed twice"

    @pytest.mark.parametrize("labels", ["a,", "a,,b", ",a"])
    def test_empty_label_is_3(self, labels, capsys):
        assert main(["spectrum", "--table-hex", "08", "--labels", labels]) == 3
        assert "empty name in --labels" in capsys.readouterr().err

    def test_table_hex_of_the_wrong_length_is_3(self, capsys):
        assert main(["spectrum", "--table-hex", "8", "--labels", "a,b"]) == 3
        assert capsys.readouterr().err == (
            "error: expected 1 bytes of table data (2 hex digits), got 1\n")

    def test_unknown_A_name_is_named(self, capsys):
        assert main(["measures", "--expr", "f AND g", "--A", "f,q"]) == 3
        assert capsys.readouterr().err.strip() == "error: unknown variable in --A: 'q'"

    def test_repeated_A_name_is_named(self, capsys):
        assert main(["measures", "--expr", "f AND g", "--A", "g,f,g"]) == 3
        assert capsys.readouterr().err.strip() == "error: variable listed twice in --A: 'g'"

    @pytest.mark.parametrize("command", ["spectrum", "measures"])
    @pytest.mark.parametrize("table_flags", [["--table-hex", "08", "--labels", "a,b"],
                                             ["--table-hex", "08"], ["--labels", "a,b"]],
                             ids=["table-hex and labels", "table-hex", "labels"])
    def test_expr_with_table_flags_is_3(self, command, table_flags, capsys):
        assert main([command, "--expr", "a"] + table_flags) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --expr cannot be combined with ")
        assert table_flags[0] in err

    @pytest.mark.parametrize("p", ["x", "0.3,", "0.3,abc"])
    def test_p_not_a_number_is_3(self, p, capsys):
        assert main(["spectrum", "--expr", "a AND b", "--p", p]) == 3
        assert capsys.readouterr().err.strip() == f"error: --p {p!r} is not a comma list of numbers"

    def test_p_file_out_of_range_is_3(self, tmp_path, capsys):
        probs = tmp_path / "p.txt"
        probs.write_text("a 0.3\nb 1.5\n")
        assert main(["spectrum", "--expr", "a AND b", "--p", f"@{probs}"]) == 3
        assert capsys.readouterr().err.strip() == (
            f"error: {probs}:2: 'b': probability 1.5 outside the open interval (0,1)")

    @pytest.mark.parametrize("command", ["spectrum", "measures"])
    @pytest.mark.parametrize("p", ["1e-320", "0.3,2.3e-308"], ids=["single", "list"])
    def test_p_too_near_0_or_1_is_3(self, command, p, capsys):
        assert main([command, "--expr", "a AND b", "--p", p]) == 3
        bad = p.split(",")[-1]
        assert capsys.readouterr().err.strip() == (
            f"error: probability {bad} too close to 0 or 1: p(1 - p) is below 2^-1000")

    def test_p_file_too_near_0_or_1_is_3(self, tmp_path, capsys):
        probs = tmp_path / "p.txt"
        probs.write_text("a 0.3\nb 1e-320\n")
        assert main(["measures", "--expr", "a AND b", "--p", f"@{probs}"]) == 3
        assert capsys.readouterr().err.strip() == (
            f"error: {probs}:2: 'b': probability 1e-320 too close to 0 or 1: "
            "p(1 - p) is below 2^-1000")

    def test_p_file_not_a_number_is_3(self, tmp_path, capsys):
        probs = tmp_path / "p.txt"
        probs.write_text("# bias\nb 0.5\na abc\n")
        assert main(["spectrum", "--expr", "a AND b", "--p", f"@{probs}"]) == 3
        assert capsys.readouterr().err.strip() == f"error: {probs}:3: 'a': 'abc' is not a number"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("sep", ["\f", "\x85", "\u2029"])
    def test_p_file_line_numbers_count_line_ends_only(self, tmp_path, capsys, sep, end):
        probs = tmp_path / "p.txt"
        probs.write_bytes(f"a 0.3{sep}{end}b 0.4{end}c x{end}".encode())
        assert main(["spectrum", "--expr", "a AND b AND c", "--p", f"@{probs}"]) == 3
        assert capsys.readouterr().err == f"error: {probs}:3: 'c': 'x' is not a number\n"

    def test_p_file_line_of_three_fields_is_3(self, tmp_path, capsys):
        probs = tmp_path / "p.txt"
        probs.write_text("a 0.3\nb 0.4 0.5\n")
        assert main(["spectrum", "--expr", "a AND b", "--p", f"@{probs}"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {probs}:2: expected 'name p'\n" and "Traceback" not in err

    @pytest.mark.parametrize("text, where", [
        ("b 0.5\na==0.3\n", "2: expected 'name p'"),
        ("a 0.3\nb 0.5=\n", "2: 'b': '0.5=' is not a number"),
        ("a=0.3\nb 0.5\n", "1: expected 'name p'"),
    ], ids=["double equals", "trailing equals", "name=p"])
    def test_p_file_fields_are_split_on_whitespace_only(self, tmp_path, capsys, text, where):
        probs = tmp_path / "p.txt"
        probs.write_text(text)
        assert main(["measures", "--expr", "a AND b", "--p", f"@{probs}"]) == 3
        assert capsys.readouterr() == ("", f"error: {probs}:{where}\n")

    @pytest.mark.parametrize("command", ["spectrum", "measures"])
    def test_table_hex_without_labels_is_3(self, command, capsys):
        assert main([command, "--table-hex", "08"]) == 3
        err = capsys.readouterr().err
        assert err == "error: --table-hex requires --labels\n" and "Traceback" not in err

    def test_closed_stdout_is_quiet(self):
        env = dict(os.environ, PYTHONPATH=str(Path(bnspectral.__file__).resolve().parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "bnspectral.cli", "measures",
                                 "--expr", "f AND g"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the first write
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err.decode() == ""


class TestFlagsBeforeWork:
    """A bad ``--out``, ``--trials``, ``--cap``, ``--seed``, ``--L``, ``--top``
    or ``--p`` in either form ends the run before the network or expression
    is read, and a bad ``--trials`` or ``--seed`` before ``selftest`` runs."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "{net}", "--out", "{file}"],
        ["analyze", "{net}", "--baseline", "exchange-unate", "--out", "{file}"],
        ["analyze", "{net}", "--baseline", "exchange-random", "--trials", "0", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "exchange-unate", "--out", "{file}"],
        ["baseline", "{net}", "--mode", "random-topology-random", "--trials", "0",
         "--out", "{dir}"],
        ["collapse", "{net}", "--out", "{file}"],
        ["analyze", "{net}", "--cap", "-1", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "exchange-random", "--cap", "-1", "--out", "{dir}"],
        ["collapse", "{net}", "--cap", "-1"],
        ["spectrum", "--expr", "a AND b", "--cap", "-1"],
        ["selftest", "--trials", "0"],
        ["selftest", "--trials", "-3"],
        ["analyze", "{net}", "--L", "-1", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "exchange-random", "--L", "-2", "--out", "{dir}"],
        ["analyze", "{net}", "--p", "1.5", "--out", "{dir}"],
        ["analyze", "{net}", "--p", "0.3,0.5,0", "--out", "{dir}"],
        ["analyze", "{net}", "--p", "0.3,nan", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "exchange-unate", "--p", "1", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "exchange-unate", "--p", "0.2,-0.1", "--out", "{dir}"],
        ["spectrum", "--expr", "a AND b", "--p", "0"],
        ["analyze", "{net}", "--baseline", "exchange-random", "--seed", "-1", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "exchange-unate", "--seed", "-1", "--out", "{dir}"],
        ["selftest", "--seed", "-1"],
        ["analyze", "{net}", "--top", "-1", "--out", "{dir}"],
        ["analyze", "{net}", "--p", "@{probs}", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "exchange-random", "--p", "@{probs}", "--out", "{dir}"],
        ["spectrum", "--expr", "a AND b", "--p", "@{probs}"],
    ], ids=["analyze out", "analyze baseline out", "analyze trials", "baseline out",
            "baseline trials", "collapse out", "analyze cap", "baseline cap", "collapse cap",
            "spectrum cap", "selftest trials 0", "selftest trials -3", "analyze L", "baseline L",
            "analyze p single", "analyze p list", "analyze p nan", "baseline p single",
            "baseline p list", "spectrum p", "analyze seed", "baseline seed",
            "selftest seed", "analyze top", "analyze p file", "baseline p file",
            "spectrum p file"])
    def test_exits_3_before_parse(self, argv, toy_file, tmp_path, monkeypatch, capsys):
        import bnspectral.cli as cli

        called = []

        def never(*args, **kwargs):
            called.append(args)
            raise AssertionError("work started before the flags were checked")

        for name in ("parse", "parse_expression", "collapse", "run_selftest"):
            monkeypatch.setattr(cli, name, never)
        probs = tmp_path / "p.txt"
        probs.write_text("a 0.3\nb 1.5\n")
        argv = [a.format(net=toy_file, file=toy_file, dir=tmp_path / "new" / "o", probs=probs)
                for a in argv]
        assert main(argv) == 3
        assert called == []
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "new").exists()


    @pytest.mark.parametrize("trials", ["0", "7"])
    def test_analyze_trials_without_baseline_is_2(self, trials, toy_file, tmp_path,
                                                  monkeypatch, capsys):
        """``--trials`` counts baseline trials, so ``analyze`` refuses it
        without ``--baseline`` as a usage error, before ``--out`` is made."""
        import bnspectral.cli as cli

        monkeypatch.setattr(cli, "parse", lambda *_: pytest.fail("work started"))
        out = tmp_path / "new" / "o"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(toy_file), "--trials", trials, "--out", str(out)])
        assert exc.value.code == 2
        assert "--trials needs --baseline" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_baseline_trials_default_to_25(self, toy_file, tmp_path, capsys):
        assert main(["analyze", str(toy_file), "--baseline", "exchange-random",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["baseline", str(toy_file), "--mode", "exchange-random",
                     "--out", str(tmp_path / "b")]) == 0
        assert json.loads((tmp_path / "a" / "report.json").read_text())["baseline"]["trials"] \
            == json.loads((tmp_path / "b" / "baseline.json").read_text())["trials"] == 25

    @pytest.mark.parametrize("argv", [
        ["analyze", "{net}", "--L", "4", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "exchange-random", "--L", "4", "--out", "{dir}"],
    ], ids=["analyze", "baseline"])
    def test_L_over_inputs_is_3_before_collapse(self, argv, toy_file, tmp_path,
                                                 monkeypatch, capsys):
        import bnspectral.cli as cli

        called = []
        real = cli.collapse
        monkeypatch.setattr(cli, "collapse", lambda *a, **k: called.append(a) or real(*a, **k))
        assert main([a.format(net=toy_file, dir=tmp_path / "o") for a in argv]) == 3
        assert capsys.readouterr().err == "error: L = 4 outside 0..3, the ordered inputs\n"
        assert called == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "{net}", "--baseline", "random-topology-unate", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "random-topology-random", "--out", "{dir}"],
    ], ids=["analyze", "baseline"])
    def test_random_topology_on_few_definitions_is_3_before_collapse(
            self, argv, toy_file, tmp_path, monkeypatch, capsys):
        """Each input of a random-topology trial feeds 8 definitions; the
        toy network has 3, refused right after parse, not at the first
        trial after the true network's collapse and A(l)."""
        import bnspectral.cli as cli

        called = []
        for name in ("collapse", "uncertainty_curve"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, _real=getattr(cli, name), **k:
                                called.append(_name) or _real(*a, **k))
        assert main([a.format(net=toy_file, dir=tmp_path / "o") for a in argv]) == 3
        assert capsys.readouterr().err == "error: need at least 8 nodes for out-degree 8\n"
        assert called == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "{net}", "--seed", "-1", "--out", "{dir}"],
        ["analyze", "{net}", "--baseline", "exchange-random", "--seed", "-1", "--out", "{dir}"],
        ["baseline", "{net}", "--mode", "random-topology-unate", "--seed", "-2",
         "--out", "{dir}"],
        ["selftest", "--trials", "5", "--seed", "-1"],
    ], ids=["analyze", "analyze baseline", "baseline", "selftest"])
    def test_negative_seed_is_3(self, argv, toy_file, tmp_path, capsys):
        argv = [a.format(net=toy_file, dir=tmp_path / "o") for a in argv]
        assert main(argv) == 3
        seed = argv[argv.index("--seed") + 1]
        assert capsys.readouterr().err == f"error: --seed must be nonnegative, got {seed}\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "{net}", "--baseline", "exchange-random"],
    ["baseline", "{net}", "--mode", "exchange-random"],
], ids=["analyze baseline", "baseline"])
def test_trials_too_many_to_store_is_3(argv, toy_file, tmp_path):
    # 10^17 trials of a 4-entry curve are 2.8 EiB, more than a 57-bit
    # address space holds, so the allocation fails on any machine
    out = tmp_path / "o"
    proc = run_cli([a.format(net=toy_file) for a in argv]
                   + ["--trials", str(10 ** 17), "--out", str(out)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["collapse", "{long}"],
    ["analyze", "{long}", "--out", "{out}"],
    ["analyze", "{net}", "--out", "{long}"],
    ["collapse", "{net}", "--out", "{long}"],
    ["analyze", "{loop}", "--out", "{out}"],
    ["analyze", "{net}", "--p", "@{loop}", "--out", "{out}"],
    ["spectrum", "--expr", "a", "--p", "@{loop}"],
], ids=["long network", "analyze long network", "analyze long out", "collapse long out",
        "looped network", "looped p file", "spectrum looped p file"])
def test_path_errors_are_3(argv, toy_file, tmp_path):
    # a file name over the 255-byte limit fails with ENAMETOOLONG, and a
    # symbolic link to itself with ELOOP: plain OSErrors
    loop = tmp_path / "loop"
    loop.symlink_to(loop.name)
    paths = {"net": toy_file, "out": tmp_path / "o", "long": tmp_path / ("n" * 300),
             "loop": loop}
    proc = run_cli([a.format(**paths) for a in argv])
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert sorted(tmp_path.iterdir()) == sorted([toy_file, loop])


# whitespace that is no line end for the p-file reader, and name characters
P_FILE_SPACE = " \t\f\v\x1c\x85\u2028\u3000"
P_FILE_NAME = st.text(st.sampled_from("abxyz019_-=>()@αΩ"), min_size=1, max_size=5)


@st.composite
def p_files(draw):
    """(text, probabilities) of a ``name p`` file: fields among random
    whitespace, each line ending in LF, CRLF or CR, some behind comments,
    with blank and comment-only lines between."""
    space = st.text(st.sampled_from(P_FILE_SPACE), max_size=3)
    comment = st.sampled_from(["", "#", "# a 0.5", "#=x"])
    probs = draw(st.dictionaries(P_FILE_NAME, st.floats(1e-300, 1.0, exclude_max=True),
                                 max_size=6))
    text = ""
    for name, prob in probs.items():
        for _ in range(draw(st.integers(0, 1))):
            text += draw(space) + draw(comment) + draw(st.sampled_from(["\n", "\r\n", "\r"]))
        value = draw(st.sampled_from([repr(prob), f"{prob:.17g}"]))
        text += (draw(space) + name + draw(space.map(lambda s: s or " ")) + value + draw(space)
                 + draw(comment) + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return text, probs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p_file=p_files())
def test_p_file_round_trip(p_file):
    text, probs = p_file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.txt"
        path.write_bytes(text.encode())
        assert _read_p(f"@{path}") == probs


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest", "--trials", "50", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_an_error(self, trials):
        with pytest.raises(ValueError, match="at least 1"):
            run_selftest(trials=trials)


DEEP_NOT = "NOT " * 3000 + "x"
DEEP_PARENS = "(" * 1200 + "x" + ")" * 1200


def run_cli(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so an uncaught error shows as a traceback,
    with only the package's own directory on ``PYTHONPATH``."""
    env = dict(os.environ, PYTHONPATH=str(Path(bnspectral.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "bnspectral.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120, cwd=cwd)


def test_the_package_runs_without_the_tests(tmp_path):
    # from an empty directory, so no test module can be imported: the
    # self-test reads only the oracles that ship in the package
    proc = run_cli(["selftest", "--trials", "20"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


class TestDeepNesting:
    @pytest.mark.parametrize("command", ["collapse", "analyze"])
    @pytest.mark.parametrize("expr", [DEEP_NOT, DEEP_PARENS], ids=["not", "parens"])
    def test_network_file_is_3(self, tmp_path, command, expr):
        net = tmp_path / "deep.bnet"
        net.write_text(f"y = {expr}\n")
        proc = run_cli([command, str(net), "--out", str(tmp_path / "o")])
        assert proc.returncode == 3
        assert "line 1, col" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["spectrum", "measures"])
    @pytest.mark.parametrize("expr", [DEEP_NOT, DEEP_PARENS], ids=["not", "parens"])
    def test_expr_is_3(self, command, expr):
        proc = run_cli([command, "--expr", expr])
        assert proc.returncode == 3
        assert "line 1, col" in proc.stderr and "Traceback" not in proc.stderr

    def test_limit_itself_is_accepted(self, capsys):
        assert main(["spectrum", "--expr", "NOT " * MAX_NESTING + "x"]) == 0
        expr = "x"
        for i in range(MAX_NESTING):
            expr = f"(y{i % 3} {'AND' if i % 2 else 'OR'} {expr})"
        assert main(["spectrum", "--expr", expr]) == 0


# Names the grammar treats specially, or that once collided with the CLI's
# own node name, next to ordinary ones.
FUZZ_NAMES = ["f", "g", "x1", "y", "Not", "and", "oR", "TRUE", "false", "1", "0",
              "@inputs", "glcn_xt>0", "leu-l", "a,b"]
PLAIN_NAMES = ["f", "g", "x1", "y", "glcn_xt>0", "leu-l", "TRUE", "0"]
FUZZ_TOKENS = FUZZ_NAMES + ["AND", "OR", "NOT", "(", ")", "=", "#", " # note"]


@st.composite
def often(draw, valid: list, odd: list):
    """A flag value: one of ``odd`` about one time in eight, else ``None``
    (flag left out) or a valid value, so most runs get past argument checks.
    The odd draw is not the lowest integer, which hypothesis favours."""
    if odd and draw(st.integers(0, 7)) == 5:
        return draw(st.sampled_from(odd))
    return draw(st.sampled_from([None] + valid))


@st.composite
def well_formed_exprs(draw, names: list[str], depth: int = 3, nesting: int = MAX_NESTING):
    """An expression whose NOTs and parentheses nest at most ``nesting`` deep."""
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return "NOT " * draw(st.integers(0, nesting)) + draw(st.sampled_from(names))
    if kind < 3 or depth == 0 or nesting == 0:
        return draw(st.sampled_from(names))
    if kind == 3:
        return "NOT " + draw(well_formed_exprs(names, depth - 1, nesting - 1))
    inner = nesting - 1 if kind == 6 else nesting
    parts = draw(st.lists(well_formed_exprs(names, depth - 1, inner), min_size=2, max_size=3))
    op = draw(st.sampled_from([" AND ", " OR ", " and ", " Or "]))
    return "(" + op.join(parts) + ")" if kind == 6 else op.join(parts)


@st.composite
def odd_exprs(draw):
    """Nesting past the limit, or a soup of names, keywords and punctuation."""
    kind = draw(st.integers(0, 2))
    n = draw(st.integers(MAX_NESTING + 1, 30 * MAX_NESTING))
    if kind == 0:
        return "NOT " * n + draw(st.sampled_from(FUZZ_NAMES))
    if kind == 1:
        return "(" * n + draw(st.sampled_from(FUZZ_NAMES)) + ")" * n
    return " ".join(draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=8)))


@st.composite
def fuzz_exprs(draw):
    """An expression, and whether it is well formed over plain names."""
    if draw(st.integers(0, 3)) == 2:
        return draw(odd_exprs()), False
    plain = draw(st.booleans())
    return draw(well_formed_exprs(PLAIN_NAMES if plain else FUZZ_NAMES)), plain


@st.composite
def fuzz_networks(draw):
    """Feed-forward definitions over plain names, and whether they were left
    alone: sometimes one odd line goes in, such as a reserved or duplicate
    name, an odd expression, an ``@inputs`` header or a comment."""
    lines, pool = [], list(PLAIN_NAMES)
    for i in range(draw(st.integers(1, 12))):
        lines.append(f"n{i} = {draw(well_formed_exprs(pool))}")
        pool.append(f"n{i}")
    plain = draw(st.integers(0, 3)) != 2
    if not plain:
        names = draw(st.lists(st.sampled_from(FUZZ_NAMES), max_size=4))
        odd = draw(st.sampled_from([
            "@inputs " + " ".join(names), "# comment", "", "=", "y =", "= x", "n0 = f",
            f"{draw(st.sampled_from(FUZZ_NAMES))} = {draw(well_formed_exprs(FUZZ_NAMES))}",
            f"n99 = {draw(odd_exprs())}"]))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return "\n".join(lines) + "\n", plain


FUZZ_P = often(["0.5", "0.3", "0.2,0.7"], ["0", "1.5", "abc", ""])
FUZZ_CAP = often(["25", "6"], ["-1", "0", "2"])


def flag(name: str, value) -> list[str]:
    return [] if value is None else [name, value]


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main``; argparse's SystemExit counts as an
    exit, any other exception escaping ``main`` fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestFuzz:
    """Random DSL text and flags end in a documented exit code, never a
    traceback; well-formed text with flags valid at any arity ends in 0."""

    @pytest.mark.parametrize("command", ["collapse", "analyze"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(net=fuzz_networks(), cap=FUZZ_CAP, p=FUZZ_P, L=often(["0", "2"], ["-1"]),
           top=often(["3"], ["-1"]),
           baseline=often(["exchange-random", "exchange-unate", "random-topology-random",
                           "random-topology-unate"], ["none"]),
           trials=often(["1", "2"], ["0", "-1", "x"]), extra=often(["--svg"], ["--bogus"]))
    def test_network_commands(self, command, net, cap, p, L, top, baseline, trials, extra):
        text, plain = net
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.bnet"
            path.write_text(text)
            argv = [command, str(path), "--out", str(Path(tmp) / "out")] + flag("--cap", cap)
            if command == "analyze":
                argv += flag("--p", p) + flag("--L", L) + flag("--top", top)
                argv += flag("--baseline", baseline) + flag("--trials", trials)
                argv += [extra] if extra else []
                plain = plain and p in (None, "0.5", "0.3") and L is None and top != "-1" \
                    and baseline in (None, "exchange-random", "exchange-unate") \
                    and trials in (None, "1", "2") and extra != "--bogus" \
                    and (trials is None or baseline is not None)
            code, err = run_in_process(argv)
        assert code in (0, 2, 3, 4), (argv, text, err)
        assert "Traceback" not in err
        if plain and cap in (None, "25"):
            assert code == 0, (argv, text, err)

    @pytest.mark.parametrize("command", ["spectrum", "measures"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(expr=fuzz_exprs(), cap=FUZZ_CAP, p=FUZZ_P, A=often(["", "f", "f,g"], ["nope"]),
           fmt=often(["json", "csv"], ["xml"]), extra=often([], ["--bogus"]))
    def test_expr_commands(self, command, expr, cap, p, A, fmt, extra):
        text, plain = expr
        argv = [command, "--expr", text] + flag("--cap", cap) + flag("--p", p)
        argv += flag("--A", A) if command == "measures" else flag("--format", fmt)
        argv += [extra] if extra else []
        code, err = run_in_process(argv)
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err
        if plain and cap in (None, "25") and p in (None, "0.5", "0.3") and not A \
                and fmt != "xml" and not extra:
            assert code == 0, (argv, err)

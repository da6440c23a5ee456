"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import json

import pytest

from bnspectral.cli import main

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
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "mask,degree,subset,coefficient"
        assert out[1] == "0,0,{},-0.5"
        assert out[4] == "3,2,{x1,x2},0.5"

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


class TestMeasures:
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


class TestBaselineCmd:
    def test_writes_outputs(self, toy_file, tmp_path, capsys):
        out = tmp_path / "base"
        assert main(["baseline", str(toy_file), "--mode", "exchange-unate",
                     "--trials", "2", "--seed", "3", "--out", str(out)]) == 0
        header = (out / "baseline.csv").read_text().splitlines()[0]
        assert header == "l,A_l,mean,stddev"
        payload = json.loads((out / "baseline.json").read_text())
        assert payload["trials"] == 2


class TestExitCodes:
    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.bnet"
        bad.write_text("a = b\nb = a\n")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert "cycle" in capsys.readouterr().err

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
        assert "L = -1" in capsys.readouterr().err

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


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest", "--trials", "50", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

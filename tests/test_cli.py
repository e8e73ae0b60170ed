"""Command-line surface: formats, determinism, round trips."""

import json

import pytest

from ltlscope import casestudy
from ltlscope.automata import Verdict
from ltlscope.cli import main, parse_costs, read_plain_trace, read_signed_trace
from ltlscope.formula import SLit


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("\ng b1 c\ng, c, mb, b2\nc\nw\n", encoding="utf-8")
    return str(path)


CASE_ARGS = ["--classes", "c~s; a~b~g", "--alphabet", "b1,b2,b3,c,s,a,b,g,mb,w"]


class TestTraceFiles:
    def test_plain_trace_blank_line_is_empty_event(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("p q\n\np\n", encoding="utf-8")
        assert read_plain_trace(str(path)) == [frozenset({"p", "q"}), frozenset(),
                                               frozenset({"p"})]

    def test_signed_trace_tokens(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("c=1 s=0 [abg]=0\n", encoding="utf-8")
        assert read_signed_trace(str(path)) == [
            frozenset({SLit("c", True), SLit("s", False), SLit("[abg]", False)})]

    def test_inconsistent_signed_trace_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("c=1 c=0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_signed_trace(str(path))

    def test_costs_flag(self):
        assert parse_costs("cs=2,abg=3") == {"cs": 2, "abg": 3}


class TestVerify:
    def test_imperfect_table_cell(self, trace_file, capsys):
        code, out = run_cli(["verify", "-f", "G (!g -> !mb)", "--trace", trace_file,
                             "--mode", "imperfect", *CASE_ARGS, "--omit-timing"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["final"] == "UNKNOWN_NOT_TRUE"
        assert len(report["steps"]) == 5

    def test_reactive_table_cell(self, trace_file, capsys):
        code, out = run_cli([
            "verify", "-f",
            "(G ((b1 | b2 | b3) -> X !c)) | (G (g -> !(b1 | b2 | b3)))",
            "--trace", trace_file, "--mode", "reactive", *CASE_ARGS,
            "--costs", "cs=2,abg=3", "--bound", "3", "--window", "2",
            "--metric", "metric2", "--omit-timing"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["final"] == "FALSE"
        assert report["broken_per_window"][:2] == [["abg"], ["cs"]]

    def test_reactive_report_records_allocations(self, trace_file, capsys):
        args = ["verify", "-f",
                "(G ((b1 | b2 | b3) -> X !c)) | (G (g -> !(b1 | b2 | b3)))",
                "--trace", trace_file, "--mode", "reactive", *CASE_ARGS,
                "--costs", "cs=2,abg=3", "--bound", "3", "--window", "2",
                "--metric", "metric2", "--omit-timing"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second
        report = json.loads(first)
        allocations = report["allocations"]
        assert [a["broken"] for a in allocations] == report["broken_per_window"]
        assert allocations[0]["payoffs"] == pytest.approx({"abg": 0.175, "cs": 0.175})

    def test_standard_unknown(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("\nb1\nmb b2\n\nw\n", encoding="utf-8")
        code, out = run_cli(["verify", "-f", "F (c & X w)", "--trace", str(path),
                             "--mode", "standard", "--omit-timing"], capsys)
        assert json.loads(out)["final"] == "UNKNOWN"

    def test_signed_trace_file_consumed_directly(self, tmp_path, capsys):
        """A witness-true event followed by the warning settles the liveness
        property even though the cut itself was never individually visible."""
        path = tmp_path / "t.txt"
        path.write_text("[cs]=1 w=0\nw=1\n", encoding="utf-8")
        code, out = run_cli(["verify", "-f", "F (c & X w)", "--trace", str(path),
                             "--mode", "imperfect", *CASE_ARGS, "--omit-timing"], capsys)
        report = json.loads(out)
        assert report["final"] == "TRUE"
        assert report["steps"][0]["event"] == ["[cs]=1", "w=0"]

    def test_missing_flags_error(self, trace_file, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "-f", "F p", "--trace", trace_file, "--mode", "active",
                  "--classes", "p~q"])

    def test_reports_are_deterministic(self, trace_file, tmp_path, capsys):
        args = ["verify", "-f", "F (c & X w)", "--trace", trace_file,
                "--mode", "active", *CASE_ARGS, "--costs", "cs=2,abg=3",
                "--bound", "3", "--seed", "5", "--omit-timing"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    def test_verdict_stream_is_monotone(self, trace_file, capsys):
        from ltlscope.automata.moore import REFINEMENTS, Verdict
        code, out = run_cli(["verify", "-f", "F (c & X w)", "--trace", trace_file,
                             "--mode", "imperfect", *CASE_ARGS, "--omit-timing"], capsys)
        steps = json.loads(out)["steps"]
        previous = None
        for step in steps:
            current = Verdict[step["verdict"]]
            if previous is not None:
                assert current in REFINEMENTS[previous]
            previous = current


def one_line_exit(argv) -> str:
    """Run the CLI, expecting it to exit with a one-line message."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    message = err.value.code
    assert isinstance(message, str) and message and "\n" not in message
    return message


class TestUserErrors:
    def test_missing_trace_file(self, tmp_path):
        missing = str(tmp_path / "nonexistent")
        message = one_line_exit(["verify", "-f", "F p", "--trace", missing])
        assert message.startswith("trace error: ") and missing in message

    def test_missing_machine_file(self, trace_file, tmp_path):
        missing = str(tmp_path / "nonexistent.json")
        message = one_line_exit(["verify", "--machine", missing, "--trace", trace_file])
        assert message.startswith("machine error: ") and missing in message

    def test_missing_config_file(self, trace_file, tmp_path):
        missing = str(tmp_path / "nonexistent.json")
        message = one_line_exit(["verify", "-f", "F p", "--trace", trace_file,
                                 "--config", missing])
        assert message.startswith("config error: ") and missing in message

    def test_malformed_config_file(self, trace_file, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{", encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F p", "--trace", trace_file,
                                 "--config", str(config)])
        assert message.startswith("config error: ")

    @pytest.mark.parametrize("token", ["1bad", "p-q", "true", "X"])
    def test_plain_token_that_is_no_atom_name(self, tmp_path, token):
        """Trace atoms follow the formula grammar's atom names."""
        trace = tmp_path / "t.txt"
        trace.write_text(f"p\nq {token}\n", encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F p", "--trace", str(trace)])
        assert message.startswith(f"{trace}:2: ") and repr(token) in message

    def test_inconsistent_signed_event_via_cli(self, tmp_path):
        trace = tmp_path / "t.txt"
        trace.write_text("p=1\np=1 p=0\n", encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F p", "--trace", str(trace),
                                 "--mode", "imperfect", "--classes", "p"])
        assert message.startswith(f"{trace}:2: ")

    @pytest.mark.parametrize("command", [
        ["synthesize", "--out", "m.json"],
        ["verify", "--mode", "imperfect", "--trace", "t.txt"],
    ], ids=["synthesize", "verify-imperfect"])
    def test_formula_atom_outside_the_classes(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("p\n", encoding="utf-8")
        message = one_line_exit([*command, "-f", "F z", "--classes", "p~q"])
        assert message.startswith("classes error: ") and "'z'" in message

    @pytest.mark.parametrize("mode", ["imperfect", "active", "reactive"])
    def test_trace_atom_outside_the_classes(self, tmp_path, mode):
        trace = tmp_path / "t.txt"
        trace.write_text("p\nq z\n", encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F p", "--classes", "p~q", "--mode", mode,
                                 "--costs", "pq=1", "--bound", "1", "--window", "1",
                                 "--trace", str(trace)])
        assert message.startswith(f"{trace}:2: ") and "'z'" in message

    def test_unwritable_machine_file(self, tmp_path):
        bad = str(tmp_path / "nonexistent" / "m.json")
        message = one_line_exit(["synthesize", "-f", "p", "--out", bad])
        assert message.startswith("output error: ") and bad in message

    def test_unwritable_dot_file(self, tmp_path):
        bad = str(tmp_path / "nonexistent" / "m.dot")
        message = one_line_exit(["synthesize", "-f", "p", "--out", str(tmp_path / "m.json"),
                                 "--dot", bad])
        assert message.startswith("dot error: ") and bad in message

    def test_unwritable_report_file(self, trace_file, tmp_path):
        bad = str(tmp_path / "nonexistent" / "report.json")
        message = one_line_exit(["verify", "-f", "F p", "--trace", trace_file, "--out", bad])
        assert message.startswith("output error: ") and bad in message

    @pytest.mark.parametrize("config, flags, needle", [
        ({"costs": {"cs": "x", "abg": 3}}, [], "'x'"),
        ({"costs": ["cs"]}, [], "costs must map class ids to integers"),
        ({"bound": "x"}, [], "'x'"),
        ({"bound": -1}, [], "bound must be non-negative"),
        ({"window": "two"}, [], "'two'"),
        ({"window": 0}, [], "positive window"),
        ({}, ["--window", "0"], "positive window"),
        ({"metric": "nope"}, [], "unknown metric 'nope'"),
        ({"seed": "x"}, [], "'x'"),
        ({}, ["--costs", "cs=-1,abg=3"], "non-negative integer"),
        ({}, ["--costs", "xy=1"], "missing cost for class 'abg'"),
    ], ids=["cost-text", "costs-list", "bound-text", "bound-negative", "window-text",
            "window-zero", "window-flag-zero", "metric", "seed-text", "cost-negative",
            "cost-unknown-class"])
    def test_refused_rational_setting(self, trace_file, tmp_path, config, flags, needle):
        """Values the visibility spec, the rational config or the session
        refuse end ``verify`` with one line."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"costs": {"cs": 2, "abg": 3}, "bound": 3, "window": 2,
                                    **config}), encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F (c & X w)", "--trace", trace_file,
                                 "--mode", "reactive", *CASE_ARGS, "--config", str(path),
                                 *flags])
        assert message.startswith("config error: ") and needle in message


class TestSynthesize:
    def test_roundtrip_bit_identical(self, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        code, _ = run_cli(["synthesize", "-f", "F (c & X w)", *CASE_ARGS,
                           "--out", str(out_path), "--dot", str(tmp_path / "m.dot")], capsys)
        assert code == 0
        first = out_path.read_text(encoding="utf-8")
        from ltlscope.monitor import machine_from_json, machine_to_json
        reloaded = machine_from_json(first)
        assert machine_to_json(reloaded, formula_text="F (c & X w)",
                               classes_text="c~s; a~b~g") == first
        assert (tmp_path / "m.dot").read_text(encoding="utf-8").startswith("digraph")

    def test_standard_machine_concludes_true(self, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        code, out = run_cli(["synthesize", "-f", "p", "--out", str(out_path)], capsys)
        assert "product states: 3" in out
        trace = tmp_path / "t.txt"
        trace.write_text("p\n", encoding="utf-8")
        code, out = run_cli(["verify", "--machine", str(out_path), "--trace", str(trace),
                             "--mode", "standard", "--omit-timing"], capsys)
        assert json.loads(out)["final"] == "TRUE"

    def test_old_machine_file_is_a_one_line_error(self, tmp_path, capsys):
        """A machine file without the current format (here an imperfect one
        with the old third component) exits with one line, not a traceback."""
        out_path = tmp_path / "m.json"
        run_cli(["synthesize", "-f", "F (c & X w)", *CASE_ARGS, "--out", str(out_path)],
                capsys)
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        del payload["format"]
        payload["components"].append(payload["components"][0])
        out_path.write_text(json.dumps(payload), encoding="utf-8")
        trace = tmp_path / "t.txt"
        trace.write_text("c=1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            main(["verify", "--machine", str(out_path), "--trace", str(trace),
                  "--mode", "imperfect"])
        message = str(err.value.code)
        assert message.startswith("machine error: ") and "\n" not in message

    def test_empty_trace_yields_initial_verdict(self, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        trace.write_text("", encoding="utf-8")
        code, out = run_cli(["verify", "-f", "F (c & X w)", "--trace", str(trace),
                             "--mode", "standard", "--omit-timing"], capsys)
        report = json.loads(out)
        assert report["final"] == "UNKNOWN" and report["steps"] == []

    def test_config_file_supplies_rational_parameters(self, trace_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"metric": "metric2", "costs": {"cs": 2, "abg": 3},
                                      "bound": 3, "window": 2, "seed": 0}),
                          encoding="utf-8")
        code, out = run_cli([
            "verify", "-f",
            "(G ((b1 | b2 | b3) -> X !c)) | (G (g -> !(b1 | b2 | b3)))",
            "--trace", trace_file, "--mode", "reactive", *CASE_ARGS,
            "--config", str(config), "--omit-timing"], capsys)
        assert json.loads(out)["final"] == "FALSE"

    def test_malformed_classes_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["synthesize", "-f", "p", "--classes", "p~~!x",
                  "--out", str(tmp_path / "m.json")])
        assert "classes" in str(err.value)


class TestCaseStudyCommand:
    def test_json_grid(self, capsys):
        code, out = run_cli(["casestudy", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["cells"]) == 35

    def test_elapsed_under_budget(self, capsys):
        code, out = run_cli(["casestudy", "--json"], capsys)
        assert json.loads(out)["elapsed_s"] < 10.0

    def test_strict_accepts_shipped_grid(self, capsys):
        code, out = run_cli(["casestudy", "--strict"], capsys)
        assert code == 0
        assert "[disputed:" in out

    def test_strict_rejects_undisputed_drift(self, capsys, monkeypatch):
        published = casestudy.EXPECTED_GRID["standard"]
        monkeypatch.setitem(casestudy.EXPECTED_GRID, "standard", (Verdict.UU,) + published[1:])
        code, _ = run_cli(["casestudy", "--strict"], capsys)
        assert code == 1

    def test_strict_rejects_disputed_drift(self, capsys, monkeypatch):
        monkeypatch.setitem(casestudy.DISPUTED_CELLS, casestudy.FLAGGED_CELL,
                            (Verdict.UNKNOWN, ""))
        code, _ = run_cli(["casestudy", "--strict"], capsys)
        assert code == 1


class TestMetricsExperiment:
    def test_counts_partition_runs(self, capsys):
        code, out = run_cli(["metrics-experiment", "--formulas", "10", "--traces", "3",
                             "--metrics", "metric0,metric2", "--seed", "1"], capsys)
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            counts = [int(x) for x in cells[2:8]]
            assert sum(counts) == 30

    def test_single_run(self, capsys):
        code, out = run_cli(["metrics-experiment", "--formulas", "1", "--traces", "1",
                             "--metrics", "metric2"], capsys)
        lines = out.strip().splitlines()
        counts = [int(x) for x in lines[1].split(",")[2:8]]
        assert sum(counts) == 1

    def test_deterministic_for_seed(self, capsys):
        args = ["metrics-experiment", "--formulas", "5", "--traces", "2",
                "--metrics", "metric0,metric2", "--seed", "9"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

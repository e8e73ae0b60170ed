"""Command-line surface: formats, determinism, round trips."""

import contextlib
import io
import json
import random
import time

import pytest

from ltlscope import casestudy, cli
from ltlscope.automata import Verdict
from ltlscope.cli import Refusal, main, parse_costs, read_plain_trace, read_signed_trace
from ltlscope.formula import SLit, fmt, is_atom_name

from conftest import balanced_conjunction


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
        assert read_signed_trace(str(path), frozenset({"c", "s", "[abg]"})) == [
            frozenset({SLit("c", True), SLit("s", False), SLit("[abg]", False)})]

    def test_inconsistent_signed_trace_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("c=1 c=0\n", encoding="utf-8")
        with pytest.raises(Refusal, match=r":1: inconsistent event"):
            read_signed_trace(str(path), frozenset({"c"}))

    def test_signed_token_naming_no_literal_is_refused(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("p=1\n[5]=0 p=1\n", encoding="utf-8")
        with pytest.raises(Refusal, match=r":2: '\[5\]' is neither an atom name nor a class"):
            read_signed_trace(str(path), frozenset({"p", "[5]"}))

    def test_signed_literal_of_another_name_is_refused(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("p=1\nq=0\n", encoding="utf-8")
        with pytest.raises(Refusal, match=r":2: 'q' is neither a singleton atom nor a class"):
            read_signed_trace(str(path), frozenset({"p"}))

    def test_equal_events_are_one_object(self, tmp_path):
        """Both readers hand out one object per distinct event, so the
        monitor checks each distinct event once."""
        plain, signed = tmp_path / "p.txt", tmp_path / "s.txt"
        plain.write_text("p q\nq p\n\np,q\n\n", encoding="utf-8")
        signed.write_text("p=1 [qr]=0\n[qr]=0 p=1\nq=1\n[qr]=0,p=1\n", encoding="utf-8")
        events = read_plain_trace(str(plain))
        assert [id(e) for e in events] == [id(events[k]) for k in (0, 0, 2, 0, 2)]
        events = read_signed_trace(str(signed), frozenset({"p", "q", "[qr]"}))
        assert [id(e) for e in events] == [id(events[k]) for k in (0, 0, 2, 0)]

    def test_reordered_lines_are_one_event_checked_once(self, tmp_path, monkeypatch):
        """Lines that list one event's atoms in different orders are one
        object, and each atom name is checked once however many distinct
        lines name it."""
        names = ["a", "b", "c", "d"]
        rng = random.Random(5)
        lines = set()
        while len(lines) < 20:
            rng.shuffle(names)
            lines.add(rng.choice((" ", ", ", ",")).join(names))
        path = tmp_path / "t.txt"
        path.write_text("\n".join(sorted(lines)) + "\n", encoding="utf-8")
        checked = []

        def counted(name):
            checked.append(name)
            return is_atom_name(name)
        monkeypatch.setattr(cli, "is_atom_name", counted)
        events = read_plain_trace(str(path), frozenset(names))
        assert len(events) == 20 and len({id(e) for e in events}) == 1
        assert events[0] == frozenset(names)
        assert sorted(checked) == sorted(names)

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

    @pytest.mark.parametrize("mode, text", [
        ("standard", "\nc\n"), ("imperfect", "\nc\n"), ("imperfect", "\n[cs]=1\n"),
        ("active", "\nc\n"), ("reactive", "\nc\n")],
        ids=["standard", "imperfect-plain", "imperfect-signed", "active", "reactive"])
    def test_trace_file_is_read_once(self, tmp_path, capsys, monkeypatch, mode, text):
        """The trace's form, plain or signed, is read off the text that the
        events are read from: the file is opened once in every mode."""
        path = tmp_path / "t.txt"
        path.write_text(text, encoding="utf-8")
        reads = []
        read_text = cli._read_text

        def counted(name, what):
            reads.append(what)
            return read_text(name, what)
        monkeypatch.setattr(cli, "_read_text", counted)
        code, _ = run_cli(["verify", "-f", "F c", "--trace", str(path), "--mode", mode,
                           *CASE_ARGS, "--costs", "cs=1,abg=1", "--bound", "1",
                           "--window", "1", "--omit-timing"], capsys)
        assert code == 0 and reads == ["trace"]

    def test_missing_flags_error(self, trace_file, capsys):
        message = one_line_exit(["verify", "-f", "F p", "--trace", trace_file,
                                 "--mode", "active", "--classes", "p~q"])
        assert message == "active/reactive modes need --costs"

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
    """Run the CLI, expecting it to refuse with status 2 and one line on
    stderr; the line, without its newline."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code == 2 and message.count("\n") == 1 and message.endswith("\n"), (code, message)
    return message[:-1]


class TestLongRuns:
    def test_reactive_run_past_the_recursion_limit(self, tmp_path, capsys):
        """``G p`` over 1200 events that leave ``p`` unknown: one window per
        event, each progressing the residual again."""
        trace = tmp_path / "t.txt"
        trace.write_text("p\n" * 1200, encoding="utf-8")
        code, out = run_cli(["verify", "-f", "G p", "--classes", "p~q", "--mode", "reactive",
                             "--costs", "pq=5", "--bound", "1", "--window", "1",
                             "--trace", str(trace), "--omit-timing"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["allocations"]) == 1200
        assert report["allocations"][-1] == {"broken": [], "payoffs": {"pq": 1.0}}


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

    @pytest.mark.parametrize("option, what", [("--config", "config"), ("--machine", "machine")])
    def test_deeply_nested_json_file(self, trace_file, tmp_path, option, what):
        """JSON nested past the recursion limit is refused, not a traceback."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F p", "--trace", trace_file,
                                 option, str(path)])
        assert message.startswith(f"{what} error: ")

    @pytest.mark.parametrize("token", ["1bad", "p-q", "true", "X"])
    def test_plain_token_that_is_no_atom_name(self, tmp_path, token):
        """Trace atoms follow the formula grammar's atom names."""
        trace = tmp_path / "t.txt"
        trace.write_text(f"p\nq {token}\n", encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F p", "--trace", str(trace)])
        assert message.startswith(f"{trace}:2: ") and repr(token) in message

    def test_first_bad_token_of_a_line_is_named(self, tmp_path):
        """The refusal names the line's first bad token, whatever the hash
        seed orders sets by."""
        trace = tmp_path / "t.txt"
        trace.write_text("p\nq 3bad 1bad 2bad\n", encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F p", "--trace", str(trace)])
        assert message == f"{trace}:2: '3bad' is not an atom name"

    def test_inconsistent_signed_event_via_cli(self, tmp_path):
        trace = tmp_path / "t.txt"
        trace.write_text("p=1\np=1 p=0\n", encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F p", "--trace", str(trace),
                                 "--mode", "imperfect", "--classes", "p"])
        assert message.startswith(f"{trace}:2: ")

    @pytest.mark.parametrize("command", [
        ["synthesize", "--out", "m.json"],
        ["verify", "--mode", "imperfect", "--trace", "t.txt"],
        ["verify", "--mode", "active", "--trace", "t.txt", "--costs", "pq=1", "--bound", "1"],
        ["verify", "--mode", "reactive", "--trace", "t.txt", "--costs", "pq=1", "--bound", "1",
         "--window", "1"],
    ], ids=["synthesize", "verify-imperfect", "verify-active", "verify-reactive"])
    def test_formula_atom_outside_the_classes(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("p\n", encoding="utf-8")
        message = one_line_exit([*command, "-f", "F z", "--classes", "p~q"])
        assert message.startswith("classes error: ") and "'z'" in message

    # Formulas, classes, alphabets and traces share one rule for atom names.
    CLASS_COMMANDS = pytest.mark.parametrize("command", [
        ["synthesize", "--out", "m.json"],
        ["verify", "--mode", "imperfect", "--trace", "t.txt"],
    ], ids=["synthesize", "verify-imperfect"])

    @CLASS_COMMANDS
    @pytest.mark.parametrize("alphabet, bad", [("a,,b c", "''"), ("a,b c", "'b c'"),
                                               ("a,true", "'true'")])
    def test_bad_alphabet_entry(self, tmp_path, monkeypatch, command, alphabet, bad):
        """An empty or unreadable entry is refused, not reported as a literal
        no trace can contain."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("a\n", encoding="utf-8")
        message = one_line_exit([*command, "-f", "F a", "--classes", "a",
                                 "--alphabet", alphabet])
        assert message.startswith("classes error: ") and bad in message

    @CLASS_COMMANDS
    def test_alphabet_entries_are_stripped(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("a\nb\n", encoding="utf-8")
        code, out = run_cli([*command, "-f", "F b", "--classes", "a",
                             "--alphabet", " a , b "], capsys)
        assert code == 0
        if command[0] == "verify":
            assert json.loads(out)["final"] == "TRUE"

    @CLASS_COMMANDS
    @pytest.mark.parametrize("name", ["X", "true", "1a", "p q"])
    def test_class_name_that_is_no_atom_name(self, tmp_path, monkeypatch, command, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("p\n", encoding="utf-8")
        message = one_line_exit([*command, "-f", "F p", "--classes", f"p~{name}"])
        assert message.startswith("classes error: ") and repr(name) in message

    @CLASS_COMMANDS
    def test_classes_sharing_a_witness_name(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("ab\n", encoding="utf-8")
        message = one_line_exit([*command, "-f", "F ab", "--classes", "ab~c; a~bc"])
        assert message.startswith("classes error: ") and "'[abc]'" in message

    @pytest.mark.parametrize("line, classes", [("p=1", "p~q"), ("zz=1", "p~q"),
                                               ("[pq]=1", "p; q")])
    def test_signed_literal_outside_the_classes(self, tmp_path, line, classes):
        """With classes, a signed literal names a singleton atom or a class
        witness; another one is refused, not ignored by the monitor."""
        trace = tmp_path / "t.txt"
        trace.write_text(f"\n{line}\n", encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F p", "--classes", classes,
                                 "--mode", "imperfect", "--trace", str(trace)])
        assert message.startswith(f"{trace}:2: ")
        assert repr(line.partition("=")[0]) in message

    @staticmethod
    def machine_file(tmp_path, capsys, *flags, stored=None) -> str:
        """A signed machine of ``F (p | r)`` synthesised with ``flags``; with
        ``stored``, the file's classes text is replaced by it."""
        path = tmp_path / "m.json"
        code, _ = run_cli(["synthesize", "-f", "F (p | r)", *flags, "--out", str(path)],
                          capsys)
        assert code == 0
        if stored is not None:
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["classes"] = stored[0]
            path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def run_machine(self, machine, tmp_path, lines):
        trace = tmp_path / "t.txt"
        trace.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return trace, ["verify", "--machine", machine, "--mode", "imperfect",
                       "--trace", str(trace), "--omit-timing"]

    @pytest.mark.parametrize("stored", [None, (None,)], ids=["stored-classes", "no-classes"])
    def test_signed_literal_outside_a_machine_file(self, tmp_path, capsys, stored):
        """With ``--machine`` and no ``--classes``, signed literals are checked
        against the classes text the file stores, or, with none stored,
        against the names its components read."""
        machine = self.machine_file(tmp_path, capsys, "--classes", "p~q; r", stored=stored)
        for lines, name in ((["zz=1", "p=1"], "zz"), (["[pq]=0", "p=1"], "p")):
            trace, argv = self.run_machine(machine, tmp_path, lines)
            message = one_line_exit(argv)
            assert message.startswith(f"{trace}:{lines.index(name + '=1') + 1}: ")
            assert repr(name) in message
        code, out = run_cli(self.run_machine(machine, tmp_path, ["[pq]=0 r=1"])[1], capsys)
        assert code == 0 and json.loads(out)["final"] == "TRUE"

    def test_machine_file_accepts_the_atoms_it_reads(self, tmp_path, capsys):
        """An ``--alphabet`` singleton that the stored classes text does not
        name is still a name the machine reads."""
        machine = self.machine_file(tmp_path, capsys, "--classes", "p~q",
                                    "--alphabet", "p,q,r")
        code, out = run_cli(self.run_machine(machine, tmp_path, ["r=1"])[1], capsys)
        assert code == 0 and json.loads(out)["final"] == "TRUE"

    @pytest.mark.parametrize("stored", ["p~~q", 7])
    def test_unreadable_stored_classes(self, tmp_path, capsys, stored):
        machine = self.machine_file(tmp_path, capsys, "--classes", "p~q; r",
                                    stored=(stored,))
        message = one_line_exit(self.run_machine(machine, tmp_path, ["r=1"])[1])
        assert message.startswith("machine error: ")

    @staticmethod
    def cs_machines(tmp_path, capsys) -> list[str]:
        """``F c`` synthesised over ``c~s``, a machine that reads only
        ``[cs]``: as written, and with no stored classes."""
        path, unstored = tmp_path / "m.json", tmp_path / "unstored.json"
        code, _ = run_cli(["synthesize", "-f", "F c", "--classes", "c~s", "--out", str(path)],
                          capsys)
        assert code == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["classes"] = None
        unstored.write_text(json.dumps(payload), encoding="utf-8")
        return [str(path), str(unstored)]

    @pytest.mark.parametrize("line", ["c s", "c=1"], ids=["plain", "signed"])
    def test_classes_that_disagree_with_a_machine_file(self, tmp_path, capsys, line):
        """``--classes`` under which the machine would read other literals
        than it was made for are refused with one line, whether the file
        stores its classes or not: under ``c; s`` the plain line is the
        event ``c=1, s=1`` and the signed one ``c=1``, and the machine reads
        neither literal."""
        stored, unstored = self.cs_machines(tmp_path, capsys)
        for machine in (stored, unstored):
            _, argv = self.run_machine(machine, tmp_path, [line])
            message = one_line_exit(argv + ["--classes", "c; s"])
            assert message.startswith("classes error: ") and "'[cs]'" in message
        # Stored classes must be matched exactly: another class with
        # several members is a conflict too.
        _, argv = self.run_machine(stored, tmp_path, [line])
        message = one_line_exit(argv + ["--classes", "c~s; a~b"])
        assert message.startswith("classes error: ") and "'[ab]'" in message

    def test_classes_that_agree_with_a_machine_file(self, tmp_path, capsys):
        """The classes a machine was made with verify it, and singleton
        classes never conflict: ``--alphabet`` adds them."""
        for machine in self.cs_machines(tmp_path, capsys):
            for line in ("c s", "[cs]=1"):
                _, argv = self.run_machine(machine, tmp_path, [line])
                for flags in (["--classes", "c~s"], ["--classes", "c~s; w", "--alphabet", "c,s,w"]):
                    code, out = run_cli(argv + flags, capsys)
                    assert code == 0 and json.loads(out)["final"] == "TRUE", (line, flags)

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

    def test_huge_bound_completes(self, tmp_path, capsys):
        """The knapsack table is sized by what the classes can cost, not by
        the bound."""
        trace = tmp_path / "t.txt"
        trace.write_text("q\np\n", encoding="utf-8")
        code, out = run_cli(["verify", "-f", "F p", "--classes", "p~q", "--mode", "reactive",
                             "--costs", "pq=1", "--bound", "100000000", "--window", "1",
                             "--trace", str(trace), "--omit-timing"], capsys)
        assert code == 0 and json.loads(out)["final"] == "TRUE"

    def test_huge_costs_complete(self, tmp_path, capsys):
        """The knapsack keeps one step per reachable cost sum, so a class
        cost of 10^8 is as cheap as a cost of 1."""
        trace = tmp_path / "t.txt"
        trace.write_text("q\np\n", encoding="utf-8")
        start = time.perf_counter()
        code, out = run_cli(["verify", "-f", "F p", "--classes", "p~q", "--mode", "reactive",
                             "--costs", "pq=100000000", "--bound", "100000000", "--window", "1",
                             "--trace", str(trace), "--omit-timing"], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 0 and json.loads(out)["final"] == "TRUE"

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
        ({"costs": {"cs": 1.5, "abg": 3}}, [], "got 1.5"),
        ({"bound": 1.7}, [], "got 1.7"),
        ({"costs": {"cs": True, "abg": 3}}, [], "got True"),
        ({"window": 1.5}, [], "got 1.5"),
        ({"seed": False}, [], "got False"),
    ], ids=["cost-text", "costs-list", "bound-text", "bound-negative", "window-text",
            "window-zero", "window-flag-zero", "metric", "seed-text", "cost-negative",
            "cost-unknown-class", "cost-fraction", "bound-fraction", "cost-bool",
            "window-fraction", "seed-bool"])
    def test_refused_rational_setting(self, trace_file, tmp_path, config, flags, needle):
        """Values the visibility spec, the rational config or the session
        refuse end ``verify`` with one line; none is truncated to an
        integer first."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"costs": {"cs": 2, "abg": 3}, "bound": 3, "window": 2,
                                    **config}), encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F (c & X w)", "--trace", trace_file,
                                 "--mode", "reactive", *CASE_ARGS, "--config", str(path),
                                 *flags])
        assert message.startswith("config error: ") and needle in message

    def test_null_window_is_no_window(self, trace_file, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"costs": {"cs": 2, "abg": 3}, "bound": 3, "window": None}),
                        encoding="utf-8")
        message = one_line_exit(["verify", "-f", "F (c & X w)", "--trace", trace_file,
                                 "--mode", "reactive", *CASE_ARGS, "--config", str(path)])
        assert message == "reactive mode needs --window"


    @pytest.mark.parametrize("count, command, classes", [
        (1200, ["synthesize", "--out", "m.json"], False),
        (24, ["synthesize", "--out", "m.json"], True),
        (1200, ["verify", "--mode", "standard"], False),
        (24, ["verify", "--mode", "imperfect"], True),
        (1200, ["verify", "--mode", "active", "--costs", "p0=1", "--bound", "1"], True),
        (24, ["verify", "--mode", "reactive", "--costs", "p0=1", "--bound", "1",
              "--window", "1"], True),
    ], ids=["synthesize-1200", "synthesize-imperfect-24", "verify-standard-1200",
            "verify-imperfect-24", "verify-active-1200", "verify-reactive-24"])
    def test_wide_conjunction_is_a_formula_error(self, tmp_path, monkeypatch, count,
                                                 command, classes):
        """A balanced conjunction of ``count`` atoms is refused, in every
        command and mode, with one line: at its tableau node for 1200 atoms,
        at its first DFA row for 24."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("p0\n", encoding="utf-8")
        if command[0] == "verify":
            command = [*command, "--trace", "t.txt"]
        if classes:
            command = [*command, "--classes", "; ".join(f"p{i}" for i in range(count))]
        start = time.perf_counter()
        message = one_line_exit([*command, "-f", fmt(balanced_conjunction(count))])
        assert time.perf_counter() - start < 5.0
        assert message.startswith("formula error: ")
        assert ("recursion limit" if count == 1200 else "reads 24 literals") in message


class TestSynthesize:
    def test_machine_too_wide_to_draw_leaves_no_file(self, tmp_path):
        """``a0 | … | a10`` over singleton classes synthesises, but its initial
        product state has 3^11 edges; ``--dot`` refuses it before either file
        is written."""
        names = [f"a{i}" for i in range(11)]
        out, dot = tmp_path / "m.json", tmp_path / "m.dot"
        message = one_line_exit(["synthesize", "-f", " | ".join(names),
                                 "--classes", "; ".join(names),
                                 "--out", str(out), "--dot", str(dot)])
        assert message.startswith("formula error: a product state reads 22 literals")
        assert not out.exists() and not dot.exists()

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
        message = one_line_exit(["verify", "--machine", str(out_path), "--trace", str(trace),
                                 "--mode", "imperfect"])
        assert message.startswith("machine error: ")

    @pytest.mark.parametrize("formula, classes, claimed", [
        ("p", [], "imperfect"),
        ("F (c & X w)", CASE_ARGS, "standard"),
    ], ids=["plain-claims-imperfect", "signed-claims-standard"])
    def test_mode_contradicting_components_is_a_one_line_error(
            self, tmp_path, capsys, formula, classes, claimed):
        """A machine file whose mode disagrees with its components' signed
        flags is refused, not run as the mode it claims."""
        out_path = tmp_path / "m.json"
        run_cli(["synthesize", "-f", formula, *classes, "--out", str(out_path)], capsys)
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["mode"] != claimed
        payload["mode"] = claimed
        out_path.write_text(json.dumps(payload), encoding="utf-8")
        trace = tmp_path / "t.txt"
        trace.write_text("\n", encoding="utf-8")
        message = one_line_exit(["verify", "--machine", str(out_path), "--trace", str(trace),
                                 "--mode", claimed])
        assert message.startswith("machine error: ") and repr(claimed) in message

    @pytest.mark.parametrize("formula, classes, mode, edit, needle", [
        ("p", [], "standard",
         lambda c: c["table"]["0"].update({"0": 99}), "mask 0 steps to 99, which is not a state"),
        ("p", [], "standard",
         lambda c: c.update(initial=7), "initial state 7 is not a state"),
        ("p", [], "standard",
         lambda c: c["table"]["1"].update({"8": 1}), "mask 8 does not fit its 0 literal(s)"),
        ("F (c & X w)", CASE_ARGS, "imperfect",
         lambda c: (c["literals"].update({"0": ["[cs]=0", "[cs]=1"]}),
                    c["table"].update({"0": {"0": 0, "1": 1, "2": 1, "3": 1}})),
         "mask 3 sets both signs of one name"),
        ("p", [], "standard",
         lambda c: c["table"]["0"].pop("1"), "mask 1 has no successor"),
        ("F p", ["--classes", "p"], "imperfect",
         lambda c: (c["literals"].update({"0": ["p=1", "p=1"]}),
                    c["table"].update({"0": {"0": 0, "1": 1, "2": 1}})),
         "state 0 repeats a literal"),
        ("p", [], "standard",
         lambda c: c["literals"].update({"0": [5]}), "plain literal 5 is not an atom name"),
        ("F p", ["--classes", "p"], "imperfect",
         lambda c: c["literals"].update({q: ["5 6=1" if l == "p=1" else l for l in row]
                                         for q, row in c["literals"].items()}),
         "signed literal '5 6=1' names neither an atom nor a class witness"),
    ], ids=["target-outside-states", "initial-outside-states", "mask-past-literals",
            "inconsistent-mask", "missing-mask", "repeated-literal", "plain-literal-no-atom",
            "signed-literal-no-name"])
    def test_broken_table_is_a_one_line_error(self, tmp_path, capsys, formula, classes,
                                               mode, edit, needle):
        """A machine file whose table cannot be stepped is refused with one
        line naming the component and the state, not a ``KeyError``."""
        out_path = tmp_path / "m.json"
        run_cli(["synthesize", "-f", formula, *classes, "--out", str(out_path)], capsys)
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        edit(payload["components"][0])
        out_path.write_text(json.dumps(payload), encoding="utf-8")
        trace = tmp_path / "t.txt"
        trace.write_text({"F (c & X w)": "c=1\n", "F p": "p=1\n"}.get(formula, "p\n"),
                         encoding="utf-8")
        message = one_line_exit(["verify", "--machine", str(out_path), "--trace", str(trace),
                                 "--mode", mode])
        assert message.startswith("machine error: component 0: ")
        assert needle in message

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
        message = one_line_exit(["synthesize", "-f", "p", "--classes", "p~~!x",
                                 "--out", str(tmp_path / "m.json")])
        assert message.startswith("classes error: ")


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

    @pytest.mark.parametrize("flag", ["--formulas", "--traces"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_runs_is_a_one_line_error(self, flag, count):
        message = one_line_exit(["metrics-experiment", flag, count, "--metrics", "metric2"])
        assert message.startswith(flag) and count in message

    def test_deterministic_for_seed(self, capsys):
        args = ["metrics-experiment", "--formulas", "5", "--traces", "2",
                "--metrics", "metric0,metric2", "--seed", "9"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

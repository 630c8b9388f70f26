import io
import itertools
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from intorder import cli
from intorder.cli import run

SINGLE_NONEDGE_JSON = json.dumps(
    {
        "n": 4,
        "edges": [[0, 1], [0, 3], [1, 2], [1, 3], [2, 3]],
        "labels": {"0": "a", "1": "b", "2": "c", "3": "d"},
    }
)
NET_JSON = json.dumps(
    {
        "n": 6,
        "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [1, 4], [2, 5]],
        "labels": {"0": "a", "1": "b", "2": "c", "3": "x", "4": "y", "5": "z"},
    }
)
C4_JSON = json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
STAR3_JSON = json.dumps({"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]})


class TestDecide:
    def test_single_nonedge4_unique_with_labels(self):
        code, out, err = run(["decide", "--json"], SINGLE_NONEDGE_JSON)
        assert code == 0
        assert json.loads(out) == {
            "unique": True,
            "order": [["a", "c"]],
            "wq_components": 2,
        }

    def test_star3_not_unique(self):
        code, out, _ = run(["decide", "--json"], STAR3_JSON)
        assert code == 1
        payload = json.loads(out)
        assert payload["unique"] is False
        assert payload["buried"] == {"B": [1, 2], "K": [0], "R": [3]}
        assert payload["wq_components"] == 6

    def test_non_interval_input_is_an_input_error(self):
        code, out, err = run(["decide", "--json"], C4_JSON)
        assert code == 2
        assert out == ""
        assert "chordless_cycle" in err

    @pytest.mark.parametrize("command", ["decide", "buried"])
    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("text,obstruction", [
        (NET_JSON, {"kind": "asteroidal_triple", "triple": ["x", "y", "z"],
                    "witness_paths": [["x", "a", "b", "y"], ["x", "a", "c", "z"], ["y", "b", "c", "z"]]}),
        (json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "labels": {"0": "a", "2": "c"}}),
         {"kind": "chordless_cycle", "cycle": ["a", 1, "c", 3]}),
        (C4_JSON, {"kind": "chordless_cycle", "cycle": [0, 1, 2, 3]}),
    ])
    def test_stderr_obstruction_names_vertices_as_recognize_does(self, command, as_json, text, obstruction):
        code, out, err = run([command] + ["--json"] * as_json, text)
        message = "not an interval graph" if command == "decide" else "find_buried requires an interval graph"
        assert (code, out) == (2, "")
        assert err == f"input error: {message} {json.dumps(obstruction)}\n"
        _, recognized, _ = run(["recognize", "--json"], text)
        assert json.loads(recognized) == obstruction

    def test_text_output(self):
        code, out, _ = run(["decide"], SINGLE_NONEDGE_JSON)
        assert code == 0
        assert "uniquely orderable: yes" in out
        assert "order: a<c" in out


class TestRecognize:
    def test_net_graph_rejected_with_triple(self):
        code, out, _ = run(["recognize", "--json"], NET_JSON)
        assert code == 1
        payload = json.loads(out)
        assert payload["kind"] == "asteroidal_triple"
        assert payload["triple"] == ["x", "y", "z"]
        assert payload["witness_paths"][0] == ["x", "a", "b", "y"]

    def test_c4_rejected_with_cycle(self):
        code, out, _ = run(["recognize", "--json"], C4_JSON)
        assert code == 1
        assert json.loads(out)["cycle"] == [0, 1, 2, 3]

    def test_single_nonedge4_accepted_with_intervals(self):
        code, out, _ = run(["recognize", "--json"], SINGLE_NONEDGE_JSON)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        assert len(payload["intervals"]) == 4


class TestOtherCommands:
    def test_wq_counts(self):
        code, out, _ = run(["wq", "--json"], SINGLE_NONEDGE_JSON)
        assert code == 0
        payload = json.loads(out)
        assert payload["component_count"] == 2
        assert payload["pairs"] == [["a", "c"], ["c", "a"]]

    def test_buried_found(self):
        code, out, _ = run(["buried", "--json"], STAR3_JSON)
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True and payload["B"] == [1, 2]

    def test_buried_none(self):
        code, out, _ = run(["buried", "--json"], SINGLE_NONEDGE_JSON)
        assert code == 1
        assert json.loads(out) == {"found": False}

    def test_orders_enumerate(self):
        p4_json = json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
        code, out, _ = run(["orders", "--enumerate", "--json"], p4_json)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2 and payload["dual_classes"] == 1
        assert payload["unique"] is True
        assert len(payload["orders"]) == 2

    def test_orders_not_unique_exit_code(self):
        code, out, _ = run(["orders", "--json"], STAR3_JSON)
        assert code == 1
        assert json.loads(out)["dual_classes"] == 3

    def test_orders_on_graph_with_no_associated_order(self):
        c5 = json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]})
        code, out, _ = run(["orders", "--json"], c5)
        assert code == 1
        assert json.loads(out) == {"count": 0, "dual_classes": 0, "unique": False}

    def test_partial_labels_fall_back_to_indices(self):
        g = json.dumps({"n": 3, "edges": [[0, 1]], "labels": {"0": "root"}})
        code, out, _ = run(["decide", "--json"], g)
        assert code == 0
        assert json.loads(out)["order"] == [["root", 2], [1, 2]]

    def test_gadget(self):
        code, out, _ = run(["gadget", "--f", "2,0,1", "--stages", "3", "--json"], None)
        assert code == 0
        payload = json.loads(out)
        assert payload["predicted_B"] == ["a", "b", "x0", "y0", "y1", "y2"]
        assert payload["predicted_K"] == ["k", "x1", "x2"]
        assert payload["predicted_R"] == ["r"]

    def test_gadget_bad_f(self):
        code, _, err = run(["gadget", "--f", "1,1"], None)
        assert code == 2 and "distinct" in err

    @pytest.mark.parametrize("f, message", [
        ("1_0", "comma-separated integers"),
        ("\u0663,0", "comma-separated integers"),  # an Arabic-Indic digit three
        (" +2,0", "comma-separated integers"),
        ("2,\t0", "comma-separated integers"),
        ("2,0\u00a0", "comma-separated integers"),
        ("--1,0", "comma-separated integers"),
        ("1.0,0", "comma-separated integers"),
        ("-1,0", "values must be nonnegative"),
    ])
    def test_gadget_f_takes_plain_ascii_decimals_only(self, f, message):
        code, out, err = run(["gadget", f"--f={f}"], None)
        assert (code, out) == (2, "") and message in err

    def test_gadget_f_strips_ascii_spaces_and_skips_empty_tokens(self):
        code, out, _ = run(["gadget", "--f", " 2 , 0 ,1,", "--stages", "3", "--json"], None)
        assert code == 0
        assert out == run(["gadget", "--f", "2,0,1", "--stages", "3", "--json"], None)[1]


class TestInputHandling:
    def test_malformed_json(self):
        code, out, err = run(["decide", "--json"], "{not json")
        assert code == 2 and out == "" and "input error" in err

    def test_edgelist_format(self):
        code, out, _ = run(
            ["decide", "--format", "edgelist", "--json"],
            "4\n0 1\n0 3\n1 2\n1 3\n2 3\n",
        )
        assert code == 0
        assert json.loads(out)["order"] == [[0, 2]]

    def test_file_input(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(SINGLE_NONEDGE_JSON)
        code, out, _ = run(["decide", str(path), "--json"], None)
        assert code == 0

    def test_missing_file(self):
        code, _, err = run(["decide", "/no/such/file.json"], None)
        assert code == 2 and "input error" in err

    def test_self_loop_rejected(self):
        code, _, err = run(["decide", "--json"], json.dumps({"n": 2, "edges": [[0, 0]]}))
        assert code == 2 and "self-loop" in err

    def test_shared_label_is_an_input_error(self):
        text = json.dumps({"n": 3, "edges": [[0, 1]], "labels": {"0": "a", "2": "a"}})
        for command in ("recognize", "decide", "buried", "wq"):
            code, out, err = run([command, "--json"], text)
            assert (code, out) == (2, ""), command
            assert err == "input error: label 'a' names both vertex 0 and vertex 2\n"

    def test_label_reading_as_another_vertex_is_an_input_error(self):
        # vertex 0 named "1" beside unnamed vertex 1 printed the order as 1<1
        text = json.dumps({"n": 2, "edges": [], "labels": {"0": "1"}})
        for command in ("recognize", "decide", "buried", "wq"):
            code, out, err = run([command], text)
            assert (code, out) == (2, ""), command
            assert err == "input error: label '1' of vertex 0 reads as unlabelled vertex 1\n"

    def test_negative_count_with_labels(self):
        text = json.dumps({"n": -1, "edges": [], "labels": {"0": "a"}})
        code, out, err = run(["decide", "--json"], text)
        assert (code, out, err) == (2, "", "input error: vertex count must be nonnegative\n")

    @pytest.mark.parametrize("fmt,text", [
        ("json", '{"n": 9223372036854775808, "edges": []}'),
        ("json", '{"n": 9223372036854775808, "edges": [[0, 1]], "labels": {"0": "a"}}'),
        ("json", '{"n": %d, "edges": []}' % 10**30),
        ("edgelist", "9223372036854775808\n"),
        ("edgelist", "9223372036854775808\n0 1\n"),
        ("edgelist", "%d\n" % 2**64),
    ])
    def test_vertex_count_past_the_index_bound_is_an_input_error(self, fmt, text):
        # a count of 2**63 or more cannot size a list of rows
        for command in ("recognize", "decide", "buried", "wq"):
            code, out, err = run([command, "--format", fmt], text)
            assert (code, out, err) == (2, "", "input error: vertex count must be at most 9223372036854775807\n"), command

    def test_undecodable_file_is_an_input_error(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"\xff\xfe3\n0 1\n")
        code, out, err = run(["recognize", "--format", "edgelist", str(path)], None)
        assert code == 2 and out == ""
        assert err.startswith("input error: cannot read") and "decode" in err

    def test_path_deeper_than_recursion_limit(self):
        n = 1100
        text = f"{n}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))
        code, out, err = run(["recognize", "--format", "edgelist"], text)
        assert code == 0 and err == ""
        assert out.splitlines()[:3] == ["interval graph: yes", "0: [0, 0]", "1: [0, 1]"]


class TestExitCodes:
    def test_unexpected_exception_exits_3_with_one_line(self, monkeypatch):
        def crash(g):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "recognize", crash)
        code, out, err = run(["recognize", "--json"], C4_JSON)
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError('boom')\n"

    def test_a_reader_that_closes_stdout_early_gets_141_and_no_message(self):
        # about 1 MB of JSON, far more than a pipe holds, so the write meets the closed end
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "intorder", "gadget", "--f", ",".join(map(str, range(200))), "--json"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(10) == b'{"graph": '
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (141, b"")

    def test_parser_is_built_once(self, monkeypatch):
        argv = ["recognize", "--js"]  # an abbreviation, which only argparse reads
        assert cli._plain_graph_args(argv) is None
        assert run(argv, C4_JSON)[0] == 1
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert run(argv, C4_JSON)[0] == 1


TOP_USAGE = "usage: intorder [-h] {recognize,decide,buried,wq,orders,gadget,selftest} ...\n"
DECIDE_USAGE = "usage: intorder decide [-h] [--format {json,edgelist}] [--json] [input]\n"
TOP_HELP = (
    TOP_USAGE
    + "\n"
    "Recognize interval graphs and decide unique orderability, emitting machine-\n"
    "checkable certificates.\n"
    "\n"
    "positional arguments:\n"
    "  {recognize,decide,buried,wq,orders,gadget,selftest}\n"
    "    recognize           interval graph or obstruction certificate\n"
    "    decide              unique orderability with certificates\n"
    "    buried              search for a buried subgraph certificate\n"
    "    wq                  pair graph on non-adjacent pairs and its components\n"
    "    orders              enumerate associated orders by brute force\n"
    "    gadget              build the staged test-family graph\n"
    "    selftest            run the built-in check corpus\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)
DECIDE_HELP = (
    DECIDE_USAGE
    + "\n"
    "positional arguments:\n"
    "  input                 input path, or '-' for stdin (default)\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --format {json,edgelist}\n"
    "                        input format (default: json)\n"
    "  --json                emit JSON instead of text\n"
)
# (argv, exit code, stdout, stderr) with COLUMNS=80 and SINGLE_NONEDGE_JSON on stdin
ARGPARSE_OUTPUT = [
    ([], 2, "", TOP_USAGE + "intorder: error: the following arguments are required: command\n"),
    (["bogus"], 2, "", TOP_USAGE + "intorder: error: argument command: invalid choice: 'bogus' "
     "(choose from 'recognize', 'decide', 'buried', 'wq', 'orders', 'gadget', 'selftest')\n"),
    (["--help"], 0, TOP_HELP, ""),
    (["decide", "-h"], 0, DECIDE_HELP, ""),
    (["decide", "--jsn"], 2, "", TOP_USAGE + "intorder: error: unrecognized arguments: --jsn\n"),
    (["decide", "--js"], 0, '{"unique": true, "order": [["a", "c"]], "wq_components": 2}\n', ""),
    (["decide", "a", "b"], 2, "", TOP_USAGE + "intorder: error: unrecognized arguments: b\n"),
    (["decide", "--format", "xml"], 2, "", DECIDE_USAGE + "intorder decide: error: argument --format: "
     "invalid choice: 'xml' (choose from 'json', 'edgelist')\n"),
    (["decide", "--format"], 2, "", DECIDE_USAGE
     + "intorder decide: error: argument --format: expected one argument\n"),
]
# the tokens the scanner is compared with argparse on, up to three after each graph command
ARGV_TOKENS = ["--json", "--format", "json", "edgelist", "x.json", "-", "--format=json",
               "--format=edgelist", "--format=bad", "--js", "-h", "--", "-1", "", "bad", "--enumerate"]


def choices_unquoted(text: str) -> str:
    """`text` without the quotes around the names in "(choose from ...)":
    newer Pythons print an invalid choice's alternatives through `str`."""
    return re.sub(r"\(choose from [^)]*\)", lambda m: m.group(0).replace("'", ""), text)


class TestArguments:
    """The graph commands' plain argv is read without argparse; argparse
    reads everything else and writes every help, usage and error text."""

    @pytest.mark.parametrize("argv,code,out,err", ARGPARSE_OUTPUT)
    def test_argparse_output(self, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        got_code, got_out, got_err = run(argv, SINGLE_NONEDGE_JSON)
        assert (got_code, got_out, choices_unquoted(got_err)) == (code, out, choices_unquoted(err))

    def test_scanner_returns_what_argparse_returns_or_none(self):
        parser = cli.build_parser()
        accepted = 0
        for command in cli._GRAPH_COMMANDS:
            for size in range(4):
                for tail in itertools.product(ARGV_TOKENS, repeat=size):
                    argv = [command, *tail]
                    sink = io.StringIO()
                    with redirect_stdout(sink), redirect_stderr(sink):
                        try:
                            expected = vars(parser.parse_args(argv))
                        except SystemExit:
                            expected = None
                    got = cli._plain_graph_args(argv)
                    if got is not None:
                        assert vars(got) == expected, argv
                        accepted += 1
        assert accepted == 1128

    @pytest.mark.parametrize("argv", [
        [], ["orders"], ["gadget", "--f", "1"], ["selftest"], ["--json", "decide"], ["decide", "--"],
        ["decide", 1], ["decide", b"--json"], ["decide", "--json", None], [b"decide"],
    ])
    def test_other_argv_goes_to_argparse(self, argv):
        assert cli._plain_graph_args(argv) is None

    def test_plain_argv_gives_the_output_argparse_gives_without_the_parser(self, monkeypatch, tmp_path):
        path = tmp_path / "star3.txt"
        path.write_text("4\n0 1\n0 2\n0 3\n", encoding="utf-8")
        cases = [
            ([command, *tail], text)
            for command in cli._GRAPH_COMMANDS
            for tail, text in [
                ([], STAR3_JSON),
                (["--json"], SINGLE_NONEDGE_JSON),
                (["-", "--json"], SINGLE_NONEDGE_JSON),
                (["--format", "json", "--json", "-"], STAR3_JSON),
                (["--format=edgelist", str(path)], None),
                ([str(path), "--format", "edgelist", "--json", "--json"], None),
                (["--format=json", "--format=edgelist"], "4\n0 1\n1 2\n2 3\n"),
            ]
        ]
        monkeypatch.setattr(cli, "_plain_graph_args", lambda argv: None)
        through_argparse = [run(argv, text) for argv, text in cases]
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_parser", lambda: pytest.fail("parser used"))
        assert [run(argv, text) for argv, text in cases] == through_argparse
        assert all(code in (0, 1) and out for code, out, _ in through_argparse)


class TestDeterminism:
    def test_byte_identical_reruns(self):
        for argv, stdin in [
            (["decide", "--json"], STAR3_JSON),
            (["recognize", "--json"], NET_JSON),
            (["gadget", "--f", "3,1,4,0", "--json"], None),
            (["orders", "--enumerate", "--json"], SINGLE_NONEDGE_JSON),
        ]:
            first = run(argv, stdin)
            second = run(argv, stdin)
            assert first == second


class TestCertificateFeedback:
    """Emitted certificates re-validate when fed back through the library."""

    def test_obstruction_json_revalidates(self):
        from intorder import Obstruction, graph_from_jsonable, validate_obstruction

        g = graph_from_jsonable(json.loads(C4_JSON))
        _, out, _ = run(["recognize", "--json"], C4_JSON)
        payload = json.loads(out)
        obs = Obstruction(kind=payload["kind"], cycle=tuple(payload["cycle"]))
        assert validate_obstruction(g, obs)

    def test_representation_json_revalidates(self):
        from intorder import graph_from_jsonable, verify_representation
        from conftest import representation_from_jsonable

        star = json.dumps({"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]})
        g = graph_from_jsonable(json.loads(star))
        _, out, _ = run(["recognize", "--json"], star)
        assert verify_representation(g, representation_from_jsonable(json.loads(out)))

    def test_order_json_revalidates(self):
        from conftest import order_from_pairs
        from intorder import graph_from_jsonable, is_associated

        p4_json = json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
        g = graph_from_jsonable(json.loads(p4_json))
        _, out, _ = run(["decide", "--json"], p4_json)
        pairs = json.loads(out)["order"]
        assert is_associated(g, order_from_pairs(4, pairs))

    def test_buried_json_revalidates(self):
        from intorder import graph_from_jsonable, is_buried

        g = graph_from_jsonable(json.loads(STAR3_JSON))
        _, out, _ = run(["buried", "--json"], STAR3_JSON)
        payload = json.loads(out)
        check = is_buried(g, payload["B"])
        assert check.buried
        assert sorted(check.separators) == payload["K"]
        assert sorted(check.outside) == payload["R"]


def test_selftest_passes():
    code, out, _ = run(["selftest", "--max-n", "4"], None)
    assert code == 0
    assert "selftest: ok" in out
    assert "FAIL" not in out


def test_selftest_json_times_every_check():
    code, out, _ = run(["selftest", "--json", "--max-n", "4"], None)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 5
    for check in payload["checks"]:
        assert check["ok"] is True, check
        assert check["seconds"] >= 0, check


def test_selftest_max_n_out_of_range_is_an_input_error():
    # the exhaustive sweep takes every labelled graph: 2^28 of them at n = 8
    for value in ("2", "8"):
        code, out, err = run(["selftest", "--max-n", value], None)
        assert code == 2, value
        assert out == ""
        assert "--max-n must be between 3 and 7" in err


def test_selftest_max_n_7_passes_the_range_check(monkeypatch):
    # the sweeps are stubbed: at n = 7 the real one takes minutes
    swept = []
    for name in ("_check_exhaustive_agreement", "_check_certificates"):
        monkeypatch.setattr(cli, name, lambda max_n, name=name: swept.append((name, max_n)))
    code, out, _ = run(["selftest", "--max-n", "7"], None)
    assert code == 0 and "selftest: ok" in out
    assert swept == [("_check_exhaustive_agreement", 7), ("_check_certificates", 5)]

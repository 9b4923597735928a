"""A classify command line parses the same with its ``--point=`` runs cut.

``cli.main`` hands argparse each run of consecutive ``--point=`` tokens as
the run's first token and fills in every value afterwards.  Hypothesis
draws classify argvs from a token grammar (exact, abbreviated and
space-form points, ``--``, ``-h``, the other options with and without
values, and ``--tol=--point=1``) and compares what ``main`` parses with
plain argparse on the full argv: the namespace, the SchemaError text or
the SystemExit code.
"""

from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import relugeom.cli as cli
from relugeom.errors import SchemaError

EXACT = ["--point=1,2,3", "--point=0.5,-1,2", "--point=x", "--point=", "--point=--tol", "--point=-1,0,1"]
# Complete options, some of them two tokens, that argparse accepts.
VALID = [
    ("--input=spec.json",), ("--input", "spec.json"), ("--tol=0.5",), ("--tol", "0.5"),
    ("--format=csv",), ("--format", "json"), ("--point", "4,5,6"), ("--poi=7,8,9",), ("--p", "1"),
]
TRICKY = [
    "--poi", "--po=1", "--point", "--pointer=1", "1,2,3", "-1,0,1", "--", "-h",
    "--input", "spec.json", "--tol", "--tol=x", "0.5", "--tol=--point=1", "--format", "--format=xml",
]
# An exact point about half the time, so most argvs hold runs, and a
# required --input in front of most, so that many of them parse.
TOKENS = st.one_of(
    st.sampled_from(EXACT).map(lambda t: (t,)),
    st.sampled_from(EXACT).map(lambda t: (t,)),
    st.sampled_from(VALID),
    st.sampled_from(TRICKY).map(lambda t: (t,)),
)
ARGV = st.builds(
    lambda head, groups: ["classify", *head, *(t for group in groups for t in group)],
    st.sampled_from([("--input=spec.json",), ("--input=spec.json",), ()]),
    st.lists(TOKENS, max_size=10),
)


def outcome(parse):
    """What a parse ends in: ("args", namespace dict), ("error", SchemaError text) or ("exit", code)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parse()
        except SchemaError as exc:
            return "error", str(exc)
        except SystemExit as exc:
            return "exit", exc.code


def main_parse(argv):
    """What ``main`` parses, with the checks and the command stubbed out."""
    seen = []
    out = io.StringIO()

    def parse():
        with mock.patch.object(cli, "_check_arguments", seen.append), \
                mock.patch.object(cli, "cmd_classify", lambda args, spec: None), contextlib.redirect_stdout(out):
            cli.main(argv)
        if seen:
            return "args", vars(seen[0])
        return "error", json.loads(out.getvalue())["message"]

    return outcome(parse)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(argv=ARGV)
def test_main_parses_like_argparse(argv):
    assert main_parse(argv) == outcome(lambda: ("args", vars(cli._parser().parse_args(argv))))


def test_a_run_reaches_argparse_as_one_token():
    points = [f"--point={k},0,{-k}" for k in range(32)]
    argv = ["classify", "--input", "spec.json", *points, "--tol=0.5"]
    received = []
    parser = cli._parser()
    parse_args = parser.parse_args
    with mock.patch.object(parser, "parse_args", lambda a: received.append(list(a)) or parse_args(a)):
        result = main_parse(argv)
    assert received == [["classify", "--input", "spec.json", points[0], "--tol=0.5"]]
    assert result[0] == "args" and result[1]["point"] == [p[len("--point="):] for p in points]
    assert result == outcome(lambda: ("args", vars(parse_args(argv))))

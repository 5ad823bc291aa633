"""The reference command set of `tools/output_digest.py` stays runnable, and
its digests do not depend on the sink a command writes to."""

import argparse
import importlib.util
import shutil
from pathlib import Path

from quenchkit import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_every_reference_command_parses(tmp_path):
    for argv, output in output_digest.commands(str(tmp_path)):
        # the file it hashes is the one the command writes
        assert cli.build_parser().parse_args(argv).output == output


def test_a_file_digests_like_stdout(tmp_path):
    argv = ["well", "coeffs", "--levels", "3"]
    path = tmp_path / "coeffs.csv"
    to_stdout = output_digest.digest(argv, None, ROOT / "src")
    to_file = output_digest.digest([*argv, "-o", str(path)], str(path), ROOT / "src")
    assert to_stdout == to_file
    assert to_stdout[0] == 0
    assert not path.exists()


def _subcommands(parser, prefix=()):
    # the argv prefix of every leaf command under ``parser``
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, (*prefix, name))
            return
    yield list(prefix)


def test_defaults_name_every_subcommand():
    registered = sorted(_subcommands(cli.build_parser()))
    assert sorted(output_digest.DEFAULTS) == registered


def test_digest_leaves_no_bytecode(tmp_path, monkeypatch):
    # a tree digested for a before/after timing must stay as clean as the other
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    code, _, _ = output_digest.digest(["well", "coeffs", "--levels", "3"], None, tmp_path / "src")
    assert code == 0
    assert list(tmp_path.rglob("__pycache__")) == []

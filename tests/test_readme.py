"""The README's command-line examples run as written."""

import pathlib
import shlex

from nerfcert.cli import EXIT_OK, main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Argument lists of the ``nerf-cert`` lines in the first sh block
    after the "Command line" heading, with backslash continuations
    joined."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("nerf-cert ")]


def test_readme_commands_succeed(tmp_path, monkeypatch):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "gen-frame", "build-net", "estimate", "oracle", "report",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == EXIT_OK, argv

"""The README's examples and the 4x12 demo run as written."""

import pathlib
import runpy
import shlex

from nerfcert.cli import EXIT_OK, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_readme_library_example(capsys):
    text = README.read_text().split("## Library example", 1)[1]
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "61\n"


def test_certify_4_12_demo(capsys):
    runpy.run_path(str(ROOT / "demos" / "certify_4_12.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.endswith(
        "\ncertified intervals contain the exact bounds at every K\n"
    )

"""README's example, config block and commands run or parse as written, so a change cannot leave them stale."""

import re
from pathlib import Path

from diffadvect.cli import _join_dash_values, build_parser
from diffadvect.config import parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_python_example_runs_as_written(capsys):
    [example] = re.findall(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
    exec(compile(example, str(README), "exec"), {})
    rounds, steps = capsys.readouterr().out.splitlines()[0].split()
    assert int(rounds) > 0 and int(steps) > 0


def test_readme_config_block_is_a_valid_config():
    [block] = re.findall(r"^`experiment\.cfg` is flat.*?^```\n(.*?)^```$", TEXT, re.S | re.M)
    assert parse_config_text(block).validate() == []


def test_readme_commands_parse():
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split("#", 1)[0].split()
            if words[:1] == ["diffadvect"]:
                commands.append(words[1:])
    assert {argv[0] for argv in commands} == {"run", "sweep", "compare", "export-curves"}
    for argv in commands:
        build_parser().parse_args(_join_dash_values(argv))

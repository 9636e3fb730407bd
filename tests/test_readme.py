"""README's one Python example runs exactly as written, so an API change cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs_as_written(capsys):
    [example] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    exec(compile(example, str(README), "exec"), {})
    rounds, steps = capsys.readouterr().out.splitlines()[0].split()
    assert int(rounds) > 0 and int(steps) > 0

"""README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start_runs(capsys):
    section = README.read_text().split("## Quick start, Python", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()

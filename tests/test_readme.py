"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    *_, total = capsys.readouterr().out.split()
    assert float(total) == pytest.approx(1.0, abs=2e-3)

"""The README's quick start runs as printed and returns the values its
comments state, so an API change that breaks the documented example fails
here rather than in a reader's session."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_matches_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # a line `expr  # 2.0 ...` states a value; `0.2443...` states its leading digits
    stated = [re.match(r"(\S.*?)\s+# (\d+\.\d+)(\.\.\.)?(\s|$)", line)
              for line in block.splitlines()]
    stated = [m for m in stated if m]
    assert [m.group(2) for m in stated] == ["2.0", "0.2443", "2.5"]
    for m in stated:
        got, digits = eval(m.group(1), namespace), m.group(2)
        if m.group(3):
            unit = 10.0 ** -len(digits.split(".")[1])
            assert 0.0 <= got - float(digits) < unit
        else:
            assert got == pytest.approx(float(digits), abs=1e-12)

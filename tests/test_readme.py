"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:quick-start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # One certificate line, then one line per swept array size.
    assert len(lines) == 5
    errors = [float(line.split()[1]) for line in lines[1:]]
    assert errors == sorted(errors, reverse=True)

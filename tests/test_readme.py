"""The README's Quick start runs as written against the top-level package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README has no python block"
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme"})
    # the block prints the best cost, the evaluation count and result.events
    assert "'in_band':" in capsys.readouterr().out

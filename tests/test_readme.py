"""The README's library example runs as written, so an export it imports cannot
be removed while the README still shows it."""
from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_at_a_glance_runs():
    section = README.read_text().split("## Library at a glance", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "from dickesim import" in block
    exec(compile(block, f"{README.name} (Library at a glance)", "exec"), {})

"""README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    """The first ``python`` block of README runs in a fresh directory and
    writes its report under ``out/`` there."""
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "phase_deltas.csv", "plot_data.json", "weekly_summary.csv", "welch_tests.csv"]

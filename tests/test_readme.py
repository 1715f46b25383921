"""The README's examples run as written, so a change to the public API
cannot leave them stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} (Library quick start)", "exec"), namespace)
    assert namespace["grid"].values.shape == (101, 101)

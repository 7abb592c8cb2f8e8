"""README's library sketch runs as written, so the documented API cannot drift."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    sketch = re.search(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                       re.M | re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(sketch, str(README), "exec"), {})
    # one line per group's summand of round 1, cell 0, then that broadcast's payload
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["1 1 1 5", "1 5 5 2"] and len(lines) == 3
    assert re.fullmatch("[0-9a-f]{128}", lines[2])

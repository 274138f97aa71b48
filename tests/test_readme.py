"""The README's library sketch runs as written against the public API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    termination, value, pairs = capsys.readouterr().out.split()
    assert termination in ("threshold", "max_steps", "certificate_or_feasible_empty", "stalled")
    assert float(value) >= 0.0 and int(pairs) >= 1

"""The README's "Library" example runs as written: its python blocks, in
order, as one script in a fresh interpreter that imports ``envlines`` from
this checkout's ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _library_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)


def test_library_example_runs():
    blocks = _library_blocks()
    assert len(blocks) == 2
    script = "\n".join(blocks) + "\nprint(report.verdict, len(singulars))\n"
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "creative unique"
    assert lines[2].startswith("4001 True ")
    assert lines[3] == "whole_line"
    assert lines[-1] == "creative 7"

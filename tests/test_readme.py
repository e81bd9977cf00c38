"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    auc, accuracy, margin, divergence = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 <= auc <= 1.0 and 0.0 <= accuracy <= 1.0 and divergence >= 0.0
    assert margin < 0.0  # the probe is drawn like the positive bags

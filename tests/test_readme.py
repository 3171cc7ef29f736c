"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    section = section.split("\n## ", 1)[0]
    examples = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(examples) >= 2
    for code in examples:
        namespace: dict = {}
        exec(compile(code, str(README), "exec"), namespace)
        assert capsys.readouterr().out
        reports = namespace["reports"]
        assert reports
        for r in reports:
            assert r.measured_error <= r.bound1 <= r.bound2

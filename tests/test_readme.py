"""The README's library examples run as written, its CLI section names the parser's flags,
and every constant it names is defined in the package."""

import ast
import re
from pathlib import Path

import bmtrunc
from bmtrunc.cli import build_parser

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


def test_cli_section_names_every_flag_and_no_other():
    # A flag the parser drops must leave the README, and a new one must enter it.
    section = README.read_text(encoding="utf-8").split("\n## CLI", 1)[1]
    section = section.split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    defined = {
        flag
        for action in build_parser()._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }
    assert named == defined


def test_named_constants_are_defined_at_module_level():
    # A constant that moves to another module or goes must be renamed or
    # dropped in the README too; a name a module only imports does not count.
    named = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", README.read_text(encoding="utf-8")))
    defined = set()
    for path in Path(bmtrunc.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert named
    assert named <= defined, sorted(named - defined)

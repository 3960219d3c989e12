import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""A module docstring
on two lines."""
# a comment line

import os  # a trailing comment


def f():
    """A function docstring."""
    x = os.sep
    return x


TEXT = """two
lines"""
'''


def _tool():
    # tools/ is not a package, so the tool is loaded by its path.
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code(tmp_path):
    """Docstrings, comments and blank lines are left out; the import, the
    def line, the body's two lines and both lines of the string count."""
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert _tool().code_lines(path) == 6


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    _tool().main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.split() == ["empty.py", "0", "sample.py", "6", "total", "6"]

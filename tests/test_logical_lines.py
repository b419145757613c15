"""The logical-line counter in tools/: lines that are not blank, not a
comment and not inside a docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "logical_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


def area(r):
    """One-line docstring."""
    # a comment line
    text = """a string that is not a docstring
spans two counted lines"""
    return math.pi * r * r, text


class Shape:
    """Class
    docstring."""

    sides = 0
'''


def _tool():
    spec = importlib.util.spec_from_file_location("logical_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, def, the two lines of the string, return, class, sides
    assert _tool().logical_lines(SOURCE) == 7


def test_main_prints_each_module_largest_first_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert _tool().main(["logical_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     7 a.py\n     2 sub/b.py\n     9 total\n"

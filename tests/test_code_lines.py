import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    # counted: the import, the class and def lines, the 2 lines of the
    # assignment with a multi-line string, the return and the call
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # a comment line
        text = """not a
docstring"""
        return text


A().f()
'''
    path = tmp_path / "sample.py"
    path.write_text(source)
    assert load_tool().code_lines(path) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert load_tool().main(["code_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["2", "a.py"], ["1", "b.py"], ["3", "total"]]

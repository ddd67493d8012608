import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SYNTHETIC = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment counts as code


class A:
    """One-line class docstring."""

    x = """not a docstring:
    both lines are code"""

    def f(self):
        """A method docstring.

        Three lines."""
        return (1 +
                2)


def g():
    # only a comment, then a string that is not first
    y = 1
    "a bare string after code is code"
    return y
'''


def test_counts_a_synthetic_module():
    # code: import, class, x (2 lines), def f, return (2 lines), def g,
    # y = 1, the bare string, return y
    assert src_lines.count_lines(SYNTHETIC) == (26, 11)


def test_a_module_of_only_docstring_comments_and_blanks_has_no_code():
    assert src_lines.count_lines('"""Doc."""\n\n# note\n') == (3, 0)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SYNTHETIC)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    src_lines.main(tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["26", "11", "pkg/a.py"]
    assert out[1].split() == ["2", "1", "pkg/b.py"]
    assert out[2].split()[:2] == ["28", "12"]

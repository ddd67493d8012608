import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "unexecuted.py"
_SPEC = importlib.util.spec_from_file_location("unexecuted", _PATH)
unexecuted = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unexecuted)

SYNTHETIC = '''"""A module docstring."""

COUNT = 0


class A:
    """A class docstring."""

    def f(self, x):
        """A method docstring."""
        global COUNT
        if x < 0:
            raise ValueError(
                "negative")
        for _ in range(2):
            COUNT += 1
        try:
            y = (x +
                 1)
        except TypeError:
            y = None
        return y


def g(x):
    while x:
        x -= 1
    return x
'''


def test_statements_skip_docstrings_definitions_and_global_lines():
    got = unexecuted.statements(SYNTHETIC)
    assert sorted(got) == [3, 12, 13, 15, 16, 17, 18, 21, 22, 26, 27, 28]
    assert list(got[13]) == [13, 14]   # a simple statement: all its lines
    assert list(got[12]) == [12]       # a compound one: its header
    assert list(got[17]) == [17]       # try: the header line


def test_a_traced_run_lists_only_what_did_not_run(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "synthetic.py").write_text(SYNTHETIC)
    (pkg / "unused.py").write_text("X = 1\n")
    sys.path.insert(0, str(pkg))
    try:
        def run():
            import synthetic
            return synthetic.A().f(2)
        result, hits = unexecuted.trace(pkg, run)
    finally:
        sys.path.remove(str(pkg))
        sys.modules.pop("synthetic", None)
    assert result == 3
    hit = hits[str(pkg.resolve() / "synthetic.py")]
    assert unexecuted.unexecuted(SYNTHETIC, hit) == [13, 21, 26, 27, 28]
    assert unexecuted.report(pkg, hits) == 6
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pkg/synthetic.py:13: raise ValueError("
    assert out[2] == "pkg/synthetic.py:26: while x:"
    assert out[5] == "pkg/unused.py:1: X = 1"
    assert out[-3].split() == ["5", "pkg/synthetic.py"]
    assert out[-1].split()[0] == "6"


def test_tracing_restores_the_previous_tracer():
    before = sys.gettrace()
    unexecuted.trace(Path(__file__).parent, lambda: None)
    assert sys.gettrace() is before

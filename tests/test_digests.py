import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digests = _load("digests", _ROOT / "tools" / "digests.py")
GOLDEN = _load("cli_golden", _ROOT / "tests" / "test_cli_golden.py").GOLDEN

SMALL = ["check", "ambiguities", "--bound", "1"]


def test_main_prints_one_line_per_command_and_format(monkeypatch, capsys):
    monkeypatch.setattr(digests, "COMMANDS", [SMALL])
    digests.main()
    lines = capsys.readouterr().out.splitlines()
    code, json_digest, text_digest = next(row[1:] for row in GOLDEN
                                          if row[0] == SMALL)
    assert lines == [f"{code} {json_digest}  json check ambiguities --bound 1",
                     f"{code} {text_digest}  text check ambiguities --bound 1"]

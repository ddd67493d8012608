import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "limits.py"
_SPEC = importlib.util.spec_from_file_location("limits", _PATH)
limits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(limits)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _fields(line: str):
    numbers, command = line.split("  ", 1)
    code, wall, peak = numbers.split()
    return int(code), float(wall), int(peak), command


def test_main_prints_the_exit_code_wall_time_and_peak_of_one_run(
        capsys, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", _SRC)
    assert limits.main(["check", "ambiguities", "--bound", "1"]) == 0
    code, wall, peak, command = _fields(capsys.readouterr().out.rstrip("\n"))
    assert (code, command) == (0, "check ambiguities --bound 1")
    assert wall > 0 and peak > 0


def test_the_script_reports_a_refused_size_with_its_exit_code():
    # run as its own process, its peak is that of its one child: an
    # interpreter that refused the size before any work
    out = subprocess.run(
        [sys.executable, str(_PATH), "check", "ambiguities", "--bound", "13"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC})
    assert out.returncode == 2
    code, wall, peak, command = _fields(out.stdout.rstrip("\n"))
    assert (code, command) == (2, "check ambiguities --bound 13")
    assert wall > 0 and 0 < peak < 200

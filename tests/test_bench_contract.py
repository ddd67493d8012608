"""The benchmark's tracer patches kernel attributes by name; these checks
keep a kernel refactor from breaking traced runs while tier-1 passes."""

import importlib
import importlib.util
from pathlib import Path

from qonsager import qfield, series, words

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(names, namespace):
    return [n for n in names if n not in namespace.__dict__]


def test_traced_operators_are_defined_on_their_classes():
    # Tracer.install wraps cls.__dict__[name]: an operator inherited from a
    # base class would raise KeyError there
    tracing = _tracing()
    assert _missing(tracing.QRAT_OPERATORS, qfield.QRat) == []
    assert _missing(tracing.NCPOLY_OPERATORS, words.NCPoly) == []
    assert _missing(tracing.SERIES_OPERATORS, series.TruncSeries) == []


def test_traced_functions_exist():
    tracing = _tracing()
    for layer, names in tracing.SPAN_FUNCTIONS.items():
        module = importlib.import_module(f"qonsager.{layer}")
        assert _missing(names, module) == [], layer


def test_mono_cache_can_be_cleared():
    # each benchmark pass empties the _mono cache
    assert callable(qfield._mono.cache_clear)

"""The benchmark's tracer patches kernel attributes by name; these checks
keep a kernel refactor from breaking traced runs while tier-1 passes."""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import qonsager
from qonsager import cli, qfield, rewrite, series, words

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


def test_bench_steps_lie_inside_the_cli_limits():
    # a cap below a bench size would turn that bench step into a usage error
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", TRACING.parent / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for suites in child.SUITES.values():
        for step in (s for steps in suites.values() for s in steps):
            i = next(k for k, w in enumerate(step) if w.startswith("--"))
            params = {o[2:].replace("-", "_"): int(v)
                      for o, v in zip(step[i::2], step[i + 1::2])}
            assert cli._check_limits(" ".join(step[:i]), params) == params


def test_mono_cache_can_be_cleared():
    # each benchmark pass empties the _mono cache
    assert callable(qfield._mono.cache_clear)


def _memo_sizes():
    return (qfield._shape.cache_info().currsize,
            qfield._mono.cache_info().currsize,
            sum(map(len, qfield._PRODUCTS.values())),
            len(qfield._SUMS))


def _qdot(cs, xs):
    """sum(c * x) over zip(cs, xs), accumulated in one `lincomb` call."""
    return qfield.lincomb([(c, {0: x}) for c, x in zip(cs, xs)
                           if c.p and x.p]).get(0, qfield.QZERO)


def _interned(*values):
    """Whether each value is the one live object for its fields."""
    return all(qfield._VALUES[(x.p, x.r, x.a, x.b, x.c, x.d, x.u, x.v)] is x
               for x in values)


def test_values_above_the_memo_cap_leave_the_memos_alone():
    # from empty memos: a full one would keep its size whatever entered
    rewrite.clear_caches()
    w = qfield.q_pow(2) + qfield.q_pow(-2)
    inv = w.inverse()
    # the small steps of [n]q and of the two sums below, and the small
    # values they pass through
    qfield.Q - qfield.q_pow(-1) + 1, qfield.Q - 1
    (qfield.Q - qfield.q_pow(-1)).inverse(), (qfield.Q - 1) ** 70
    qfield.q_pow(5000), -qfield.q_pow(-5000), qfield.q_pow(6000)
    # factors of a product above the cap: [19]q and [21]q have 38 and 42
    # coefficients in U and V, their product 78
    c19, c21 = qfield.q_int(19), qfield.q_int(21)
    # [40]q has 78 coefficients in U and V, just above the cap
    c40 = qfield.q_int(40)
    before = _memo_sizes()
    # q^5000 - q^-5000 and q^6000 + 1 expand q^10000 and q^6000, and the
    # numerator of (q - 1)^70 expands (q - 1)^70
    big = qfield.q_int.__wrapped__(5000)
    assert len((qfield.q_pow(6000) + 1).u) == 6001
    assert len(((qfield.Q - 1) ** 70).numerator()) == 71
    x = big * inv
    num = x.numerator()   # U has about 10,000 coefficients
    # sums in `lincomb` whose summands exceed the cap: one shape, big
    # summands with a small sum, and two shapes that meet
    one = qfield.QONE
    assert _qdot([one, one], [big, big]) == big + big
    assert _qdot([one] * 3, [big, one, -big]) == one
    assert _qdot([one] * 3, [c40, one, -c40]) == one
    wide = _qdot([one] * 3, [big, qfield.q_pow(6000), big])
    assert len(wide.u) > qfield._MEMO_CAP
    # products in `lincomb` above the cap: of a big x, of a big c, and of a
    # small c and x
    prods = _qdot([qfield.Q, big, c21], [big, qfield.Q, c19])
    assert _memo_sizes() == before
    # the value table has no cap: the big values are interned like any other
    assert _interned(big, x, wide, prods)
    assert max((len(y.u) + len(y.v)
                for terms, s in qfield._SUMS.items()
                for y in terms + (s,)), default=0) <= qfield._MEMO_CAP
    assert wide == big + big + qfield.q_pow(6000)
    assert prods == 2 * qfield.Q * big + c21 * c19
    assert len(x.u) > qfield._MEMO_CAP
    # exact: the pair round-trips, w cancels, and the value is right at a point
    assert qfield.from_num_den(num, x.denominator()) == x
    assert x * w == big
    t = Fraction(3, 2)
    assert x.evaluate(t) == big.evaluate(t) * inv.evaluate(t)


def test_clear_caches_empties_the_polynomial_memos():
    rewrite.clear_caches()
    poly = cli.parse_to_poly(
        "1/(q^2 + q^-2)*[3]q*W[1]*G[2] + Gt[1]*W[1]*W[0]*G[1]")
    held = rewrite.normal_form(poly)
    words.render_poly(held)
    assert min(_memo_sizes()) > 0
    rewrite.clear_caches()
    assert _memo_sizes() == (0, 0, 0, 0)
    # the value table is no memo: a value held across the clear stays the
    # one object for its fields
    assert _interned(*held.terms.values(), qfield.QONE)


# Caches whose entries are fixed values of Q(q), the same in every run: they
# may outlive clear_caches.
_CONSTANT_CACHES = {"qfield.q_int"}


def _kernel_lru_caches():
    caches = {}
    for info in pkgutil.iter_modules(qonsager.__path__):
        if info.name == "__main__":
            continue   # importing it runs the CLI
        module = importlib.import_module(f"qonsager.{info.name}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == module.__name__):
                caches[f"{info.name}.{name}"] = obj
    return caches


def test_clear_caches_empties_every_kernel_memo():
    # each benchmark step runs from empty caches after rewrite.clear_caches
    caches = _kernel_lru_caches()
    assert _CONSTANT_CACHES | {"qfield._shape", "qfield._mono"} <= set(caches)
    poly = cli.parse_to_poly("1/(q^2 + q^-2)*W[1]*G[2] + Gt[1]*W[1]*W[0]*G[1]")
    words.render_poly(rewrite.normal_form(poly))
    live = len(qfield._VALUES)
    rewrite.clear_caches()
    left = {name: cache.cache_info().currsize
            for name, cache in caches.items()
            if name not in _CONSTANT_CACHES}
    assert left == dict.fromkeys(left, 0)
    assert rewrite._NF_CACHE == {} and rewrite._RULE_CACHE == {}
    assert qfield._PRODUCTS == {} and qfield._SUMS == {}
    assert words._WORD_TEXT == {}
    # the value table holds only live values: those only the caches held
    # are gone with them, and the module constants stay
    assert len(qfield._VALUES) < live
    assert _interned(qfield.QZERO, qfield.QONE, qfield.Q)


# Module-level tables that the work of a suite step fills and that
# rewrite.clear_caches leaves: only tables of fixed values, the same in every
# run, may stay.  q_int and _LETTER_WEIGHT hold the quantum integers and the
# letter weights, _ATOMS the terms of parsed atoms, and _VALUE_REFS is the
# value table, which holds only live values.
_SURVIVING_TABLES = {"qfield.q_int", "words._LETTER_WEIGHT", "cli._ATOMS",
                     "qfield._VALUE_REFS"}

# In a fresh interpreter: every kernel module-level dict and lru_cache that
# is non-empty after one small step of each suite and a clear_caches, and
# differs from what the import left there.
_SURVIVORS = """
import contextlib, importlib, io, json, pkgutil
import qonsager
from qonsager import cli, rewrite

modules = [importlib.import_module(f"qonsager.{info.name}")
           for info in pkgutil.iter_modules(qonsager.__path__)
           if info.name != "__main__"]

def tables():
    out = {}
    for module in modules:
        layer = module.__name__.split(".")[-1]
        for name, obj in vars(module).items():
            if type(obj) is dict:
                out[f"{layer}.{name}"] = dict(obj)
            elif (hasattr(obj, "cache_info")
                  and getattr(obj, "__module__", None) == module.__name__):
                out[f"{layer}.{name}"] = obj.cache_info().currsize
    return out

imported = tables()
for argv in STEPS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--format", "json", *argv]) == 0, argv
rewrite.clear_caches()
print(json.dumps(sorted(name for name, t in tables().items()
                        if t and t != imported[name])))
"""


def test_no_rule_or_sum_table_outlives_clear_caches():
    # each benchmark step runs from empty caches after rewrite.clear_caches,
    # so a table of rules, normal forms, sums or products that survived it
    # would warm the next step
    steps = [("zn", "--n", "2"), ("check", "gf", "--order", "3"),
             ("check", "prop41", "--order", "2"),
             ("check", "matrix", "--order", "2"),
             ("check", "central", "--n", "2", "--bound", "2"),
             ("recover", "--n", "2"), ("dims", "--max-degree", "6"),
             ("check", "ambiguities", "--bound", "1"),
             ("check", "relations", "--bound", "1"),
             ("series", "E", "--order", "2"),
             ("normalize", "[3]q*W[1]*G[2] + 1/(q^2 + q^-2)*Gt[2]*W[-1]")]
    src = Path(qonsager.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", f"STEPS = {steps!r}\n" + _SURVIVORS],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    survivors = json.loads(out.stdout.splitlines()[-1])
    # the run reached the tables the allowlist names
    assert {"qfield.q_int", "words._LETTER_WEIGHT"} <= set(survivors)
    assert set(survivors) <= _SURVIVING_TABLES


def test_normal_forms_hold_one_object_per_coefficient_value():
    rewrite.clear_caches()
    for w in rewrite.enumerate_overlaps(2):
        assert rewrite.check_overlap(w).agrees
    coeffs = [c for terms in rewrite._NF_CACHE.values()
              for c in terms.values()]
    values = set(coeffs)
    assert len(coeffs) > 10 * len(values)   # the values repeat
    assert len({id(c) for c in coeffs}) == len(values)

"""Runtime tracing of the qonsager layers, installed from the benchmark only.

`Tracer.install()` replaces each layer's public entry points, and the
operators of `QRat`, `NCPoly` and `TruncSeries`, with timing wrappers;
`uninstall()` puts the originals back.  Nothing under `src/` changes.

Two kinds of wrapper share one stack of child-time accumulators, so every
layer's self time is its own time minus the time of whatever it called:

* a *span* wraps a boundary call (a public function or a `TruncSeries`
  operator) and is recorded as (name, start, end, parent) in memory;
* a *leaf* wraps `QRat` and `NCPoly` arithmetic (about 10^6 calls a run)
  and only adds to counters and accumulated time.

`write()` stores the spans and counters as JSON once the pass is over.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

LAYERS = ("qfield", "words", "rewrite", "series", "central", "dims", "cli")

# Functions whose calls become spans, by layer (= module of the package).
SPAN_FUNCTIONS = {
    "words": ("commutator", "q_commutator", "sigma", "dagger"),
    "rewrite": ("normal_form", "check_overlap", "apply_rule", "rule_application",
                "enumerate_overlaps"),
    "series": ("exact_divide", "gf", "appendixA_series", "bracket", "q_bracket",
               "check_gf_relations", "check_prop41_decompositions"),
    "central": ("subst_ST", "st_series", "z_series", "z_series_alt",
                "z_series_pbw_form", "z_n", "z_n_direct_poly", "z_bar",
                "z_bar_expanded_poly", "down_transform", "ddown_transform",
                "w_ddown", "g_down", "gt_down", "check_central",
                "recover_generators", "check_recovery",
                "check_matrix_factorization"),
    "dims": ("enumerate_irreducible", "hilbert_Aq", "hilbert_Oq",
             "partition_series", "check_dim_identity", "check_word_counts"),
    "cli": ("parse_to_poly", "run_ambiguity_suite"),
}

SERIES_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                    "shift", "normal_form")
QRAT_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
                  "__pow__", "inverse")
NCPOLY_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                    "_scaled")

# Inclusive time of the outermost call, reported as <metric>.
TIMED_SPANS = {
    "rewrite.normal_form": "rewrite.nf_s",
    "rewrite.check_overlap": "rewrite.check_overlap_s",
    "series.exact_divide": "series.exact_divide_s",
    "series.TruncSeries.normal_form": "series.normal_form_s",
    "series.TruncSeries.__mul__": "series.mul_s",
    "series.TruncSeries.__rmul__": "series.mul_s",
    "central.z_series": "central.z_series_s",
    "central.z_n": "central.z_n_s",
    "central.check_central": "central.check_central_s",
    "central.check_matrix_factorization": "central.matrix_s",
    "central.recover_generators": "central.recover_s",
    "dims.enumerate_irreducible": "dims.enumerate_s",
    "cli.parse_to_poly": "cli.parse_s",
    "cli.render_poly": "cli.render_s",
}
COUNTED_SPANS = {
    "rewrite.normal_form": "rewrite.nf_calls",
    "series.TruncSeries.__mul__": "series.mul_calls",
    "series.TruncSeries.__rmul__": "series.mul_calls",
    "central.subst_ST": "central.subst_st_calls",
}

STEPS = ("ambiguities", "zn", "gf", "prop41", "matrix", "central", "recover",
         "dims")


def metric_names():
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = ["qfield.mul_calls", "qfield.add_calls", "qfield.arith_s",
             "qfield.mul_monomial_share", "qfield.add_monomial_share",
             "words.ncpoly_mul_calls", "words.ncpoly_mul_s",
             "rewrite.nf_calls", "rewrite.nf_words_in", "rewrite.nf_s",
             "rewrite.check_overlap_s", "rewrite.nf_cache_entries",
             "rewrite.rule_cache_entries", "rewrite.nf_fill_per_word",
             "series.mul_calls", "series.mul_s", "series.exact_divide_s",
             "series.normal_form_s", "central.subst_st_calls",
             "central.z_series_s", "central.z_n_s", "central.check_central_s",
             "central.matrix_s", "central.recover_s", "dims.enumerate_s",
             "cli.parse_s", "cli.render_s"]
    names += [f"cli.step_s.{step}" for step in STEPS]
    names += [f"{layer}.self_s" for layer in LAYERS]
    return names


def _is_monomial(x):
    # factor-basis monomial: u == v == (1,); an int embeds as one
    return not hasattr(x, "u") or (x.u == (1,) and x.v == (1,))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []            # [name, start, end, parent index]
        self.open_spans = []       # indices of the spans now running
        self.child_time = []       # one accumulator per running wrapper
        self.self_s = defaultdict(float)
        self.time_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.depth = defaultdict(int)
        self.t0 = time.perf_counter()
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _leaf(self, fn, layer, on_call=None):
        # on_call(args) may return a metric that also gets this call's time
        stack = self.child_time
        self_s, time_s = self.self_s, self.time_s
        perf = time.perf_counter

        def wrapper(*args):
            key = on_call(args) if on_call is not None else None
            stack.append(0.0)
            t = perf()
            try:
                return fn(*args)
            finally:
                d = perf() - t
                self_s[layer] += d - stack.pop()
                if stack:
                    stack[-1] += d
                if key is not None:
                    time_s[key] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, fn, layer, name, on_call=None, on_return=None,
              time_key=None):
        stack = self.child_time
        open_spans = self.open_spans
        spans = self.spans
        self_s, time_s, depth = self.self_s, self.time_s, self.depth
        time_key = time_key or TIMED_SPANS.get(name)
        count_key = COUNTED_SPANS.get(name)
        counts = self.counts
        perf = time.perf_counter
        t0 = self.t0

        def wrapper(*args, **kwargs):
            if count_key is not None:
                counts[count_key] += 1
            state = on_call(args) if on_call is not None else None
            index = len(spans)
            t = perf()
            spans.append([name, t - t0, None, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            stack.append(0.0)
            depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                d = end - t
                depth[name] -= 1
                if time_key is not None and depth[name] == 0:
                    time_s[time_key] += d
                self_s[layer] += d - stack.pop()
                if stack:
                    stack[-1] += d
                open_spans.pop()
                spans[index][2] = end - t0
                if on_return is not None:
                    on_return(state)

        wrapper.__wrapped__ = fn
        return wrapper

    def step(self, step: str, fn, *args):
        """Run fn(*args), one CLI call made by the benchmark, as a span."""
        return self._span(fn, "cli", f"cli.step.{step}",
                          time_key=f"cli.step_s.{step}")(*args)

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, modules, original, attr, new):
        # `from x import f` copies the binding, so patch every module holding it
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self._replace(mod, attr, new)

    def install(self):
        import qonsager
        from qonsager import central, cli, dims, qfield, rewrite, series, words

        modules = (qonsager, qfield, words, rewrite, series, central, dims, cli)
        by_name = {"words": words, "rewrite": rewrite, "series": series,
                   "central": central, "dims": dims, "cli": cli}
        counts = self.counts

        def count_qrat(kind):
            def on_call(args):
                x, y = args
                if hasattr(y, "u") or isinstance(y, int):
                    counts[f"qfield.{kind}_calls"] += 1
                    if _is_monomial(x) and _is_monomial(y):
                        counts[f"qfield.{kind}_monomial"] += 1
                return None
            return on_call

        for attr in QRAT_OPERATORS:
            hook = None
            if attr in ("__mul__", "__rmul__"):
                hook = count_qrat("mul")
            elif attr in ("__add__", "__radd__"):
                hook = count_qrat("add")
            self._replace(qfield.QRat, attr,
                          self._leaf(qfield.QRat.__dict__[attr], "qfield", hook))

        ncpoly = words.NCPoly

        def ncpoly_product(args):
            if isinstance(args[1], ncpoly):
                counts["words.ncpoly_mul_calls"] += 1
                return "words.ncpoly_mul_s"
            return None

        for attr in NCPOLY_OPERATORS:
            hook = ncpoly_product if attr == "__mul__" else None
            self._replace(ncpoly, attr, self._leaf(ncpoly.__dict__[attr], "words", hook))

        for attr in SERIES_OPERATORS:
            fn = series.TruncSeries.__dict__[attr]
            self._replace(series.TruncSeries, attr,
                          self._span(fn, "series", f"series.TruncSeries.{attr}"))

        nf_cache = rewrite._NF_CACHE

        def nf_call(args):
            counts["rewrite.nf_words_in"] += len(args[0].terms)
            return len(nf_cache)

        def nf_return(before):
            counts["rewrite.nf_cache_fill"] += len(nf_cache) - before

        for layer, names in SPAN_FUNCTIONS.items():
            mod = by_name[layer]
            for fname in names:
                original = mod.__dict__[fname]
                name = f"{layer}.{fname}"
                if name == "rewrite.normal_form":
                    new = self._span(original, layer, name, nf_call, nf_return)
                else:
                    new = self._span(original, layer, name)
                self._replace_everywhere(modules, original, fname, new)

        render = words.render_poly
        self._replace_everywhere(modules, render, "render_poly",
                                 self._span(render, "cli", "cli.render_poly"))
        self._rewrite = rewrite

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def sample_caches(self):
        """Record the cache sizes; called before each cache reset and at the end."""
        rewrite = self._rewrite
        c = self.counts
        c["rewrite.nf_cache_entries"] = max(c["rewrite.nf_cache_entries"],
                                            len(rewrite._NF_CACHE))
        c["rewrite.rule_cache_entries"] = max(c["rewrite.rule_cache_entries"],
                                              len(rewrite._RULE_CACHE))

    # -- results --------------------------------------------------------------

    def counters(self):
        """Exact counts: they must repeat between two traced passes."""
        out = {k: v for k, v in self.counts.items()}
        span_counts = defaultdict(int)
        for name, *_ in self.spans:
            span_counts[name] += 1
        out.update({f"spans.{k}": v for k, v in span_counts.items()})
        return dict(sorted(out.items()))

    def metrics(self, factor: float):
        """Per-layer metrics; times are multiplied by the pass's speed factor."""
        c = self.counts
        out = {name: 0.0 for name in metric_names()}
        out.update({k: v * factor for k, v in self.time_s.items() if k in out})
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] * factor
        out["qfield.arith_s"] = self.self_s["qfield"] * factor
        for kind in ("mul", "add"):
            calls = c[f"qfield.{kind}_calls"]
            out[f"qfield.{kind}_calls"] = calls
            out[f"qfield.{kind}_monomial_share"] = (
                c[f"qfield.{kind}_monomial"] / calls if calls else 0.0)
        for key in ("words.ncpoly_mul_calls", "rewrite.nf_calls",
                    "rewrite.nf_words_in", "rewrite.nf_cache_entries",
                    "rewrite.rule_cache_entries", "series.mul_calls",
                    "central.subst_st_calls"):
            out[key] = c[key]
        words_in = c["rewrite.nf_words_in"]
        out["rewrite.nf_fill_per_word"] = (
            c["rewrite.nf_cache_fill"] / words_in if words_in else 0.0)
        return out

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [[n, round(s, 7), round(e, 7), p]
                                 for n, s, e, p in self.spans],
                       "counters": self.counters()}, fh)

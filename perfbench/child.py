"""One pass of a benchmark workload, in a fresh interpreter started by run.py.

Usage: python3 perfbench/child.py WORKLOAD SEED PASS MODE SCALE [TRACE_PATH]

MODE is `setup` (set up, report ready and the set-up's timing), `pass` (a timed pass with
one timer around `rewrite.normal_form`) or `traced` (a pass with every
layer wrapped by tracing.Tracer, which writes its spans to TRACE_PATH).
SCALE is `full` or `smoke`.

The child prints `ready` once imports and input generation (and, for
`normalize`, the warm-up pass over the pool) are done; run.py counts the
time to that line as set-up.  The last line is one JSON object with the
pass's timings and everything its checks need.  Timings are in seconds at
the reference speed (see `Clock`).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time

# Each suite step is one CLI call, run from empty kernel caches.
SUITES = {
    "full": {
        "confluence": [("check", "ambiguities", "--bound", "4")],
        "central": [("zn", "--n", "6"), ("check", "gf", "--order", "7"),
                    ("check", "prop41", "--order", "5"),
                    ("check", "matrix", "--order", "5"),
                    ("check", "central", "--n", "6", "--bound", "6"),
                    ("recover", "--n", "5"), ("dims", "--max-degree", "16")],
    },
    "smoke": {
        "confluence": [("check", "ambiguities", "--bound", "1")],
        "central": [("zn", "--n", "2"), ("check", "gf", "--order", "3"),
                    ("check", "prop41", "--order", "2"),
                    ("check", "matrix", "--order", "2"),
                    ("check", "central", "--n", "2", "--bound", "2"),
                    ("recover", "--n", "2"), ("dims", "--max-degree", "6")],
    },
}

# The normalize stream.  A word's total degree is capped so that one miss
# stays within tens of milliseconds: uncapped 4-letter words with index-4
# letters take seconds each, and a handful of them would decide the run.
NORMALIZE = {
    "full": {"pool": 200, "requests": 5000, "new_share": 0.04,
             "max_degree": 12, "oracle_sample": 12},
    "smoke": {"pool": 8, "requests": 40, "new_share": 0.1,
              "max_degree": 8, "oracle_sample": 3},
}

# letters with W indices -3..4 and G/Gt indices 1..4, with their degrees
LETTERS = ([(f"W[{n}]", 1 - 2 * n if n <= 0 else 2 * n - 1) for n in range(-3, 5)]
           + [(f"{fam}[{n}]", 2 * n) for fam in ("G", "Gt") for n in range(1, 5)])
SCALARS = ("{i}", "q^{k}", "[{n}]q", "(q - q^-1)", "1/(q^2 + q^-2)")


# -- timing -----------------------------------------------------------------
# Other tenants of the machine change how fast its CPUs run, from one second
# to the next and over minutes: the same `central` pass took 3.1 s and, a
# few minutes later, 5.3 s.  So a timer signal runs a fixed chunk of
# pure-Python arithmetic every CALIBRATION_PERIOD_S inside the measured
# process.  The chunk's working set is a few cache lines, so its time follows
# the CPU's speed, not the program's memory use.  Chunk time is left out of
# every timing, and each timing is multiplied by REFERENCE_CHUNK_S over the
# mean time of the chunks run around it.
CALIBRATION_PERIOD_S = 0.1
REFERENCE_CHUNK_S = 0.0008   # the chunk's usual time on the 2-vCPU Xeon VM
MIN_CHUNKS = 8               # a factor rests on at least this many chunks
LOCAL_CHUNKS = 4             # one request's factor: the chunks nearest to it
CHUNK_CLIP = 3               # a chunk counts as at most 3 times the median one
_OUTER = tuple((i * 7919) % 100003 for i in range(256))
_INNER = _OUTER[:40]


def _chunk() -> int:
    s = 0
    for x in _OUTER:
        for y in _INNER:
            s += (x * y) % 7
    return s


class Clock:
    """Calibration chunks, the `ready` line and scaled seconds for one child."""

    def __init__(self):
        self.started = time.perf_counter()
        self.ends = []       # perf_counter() at the end of each chunk
        self.times = []      # each chunk's duration
        self.spent = 0.0     # seconds spent in chunks so far
        self.setup = {}

    def run_chunk(self, *_):
        t = time.perf_counter()
        _chunk()
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - t)
        self.spent += end - t

    def start(self):
        signal.signal(signal.SIGALRM, self.run_chunk)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def top_up(self, since: float):
        """Run chunks until MIN_CHUNKS have ended after `since`."""
        while len(self.ends) - bisect.bisect_left(self.ends, since) < MIN_CHUNKS:
            self.run_chunk()

    def factor(self, start: float, end: float, least: int = MIN_CHUNKS) -> float:
        """REFERENCE_CHUNK_S over the mean time of the chunks that ended
        between start and end, widened to the `least` nearest ones."""
        ends = self.ends
        lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
        while hi - lo < least and (lo > 0 or hi < len(ends)):
            if hi == len(ends) or (lo > 0 and start - ends[lo - 1] < ends[hi] - end):
                lo -= 1
            else:
                hi += 1
        times = self.times[lo:hi]
        # a rare stall of the whole machine costs a 1-ms chunk as much as it
        # costs the seconds of work around it, so clip each chunk's weight
        cap = CHUNK_CLIP * statistics.median(times)
        return REFERENCE_CHUNK_S / statistics.fmean(min(t, cap) for t in times)

    def ready(self):
        """Record the set-up's chunk time and factor, then print `ready`."""
        self.top_up(self.started)
        now = time.perf_counter()
        self.setup = {"setup_chunks_s": self.spent,
                      "setup_factor": self.factor(self.started, now)}
        print("ready", flush=True)

    def timings(self, t0: float, end: float, chunk_s: float, requests):
        """Scaled wall time and request latencies of one timed region.

        `chunk_s` is the chunk time inside the region; `requests` holds
        (start, end, chunk seconds inside) per request."""
        self.top_up(t0)
        wall = end - t0 - chunk_s
        factor = self.factor(t0, end)
        latencies = [round((e - s - c) * self.factor(s, e, LOCAL_CHUNKS) * 1e3, 5)
                     for s, e, c in requests]
        return {"wall_s": wall * factor, "wall_raw_s": wall, "factor": factor,
                "latencies_ms": latencies}


def step_name(argv) -> str:
    return argv[1] if argv[0] == "check" else argv[0]


def _expression(rng: random.Random, i: int, max_degree: int) -> str:
    # term count and word lengths cycle with i, so every seed gets the same
    # mix of shapes and only the letters and scalars are random
    terms = []
    for j in range(1 + i % 3):
        scalar = SCALARS[(i + j) % len(SCALARS)].format(
            i=rng.randint(1, 9), k=rng.randint(-3, 3), n=rng.randint(2, 4))
        length = 2 + (i // 3 + j) % 3
        while True:
            letters = [rng.choice(LETTERS) for _ in range(length)]
            if sum(d for _, d in letters) <= max_degree:
                break
        terms.append(scalar + "*" + "*".join(text for text, _ in letters))
    return " + ".join(terms)


def normalize_inputs(seed: int, pass_index: int, params: dict):
    """The pool, the new expressions and the request order for one pass."""
    rng = random.Random(f"normalize:{seed}:{pass_index}")
    pool = [_expression(rng, i, params["max_degree"]) for i in range(params["pool"])]
    n_new = round(params["requests"] * params["new_share"])
    new = [_expression(rng, i, params["max_degree"]) for i in range(n_new)]
    # indices below len(pool) are repeats of pool entries, the rest are new;
    # every pool entry repeats equally often, so that the pass's cost does
    # not depend on which entries a random draw happened to favour
    stream = [j % len(pool) for j in range(params["requests"] - n_new)]
    stream += range(len(pool), len(pool) + n_new)
    rng.shuffle(stream)
    oracle = rng.sample(range(len(stream)), params["oracle_sample"])
    return pool + new, stream, oracle


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def suite_pass(steps, mode, tracer, clock):
    from qonsager import cli, qfield, rewrite

    def run_step(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--format", "json", *argv])
        return code, buf.getvalue()

    requests = []    # (start, end, chunk seconds inside) per normal_form call
    perf = time.perf_counter
    if mode == "pass":
        normal_form = rewrite.normal_form

        def timed_normal_form(p):
            t, spent = perf(), clock.spent
            try:
                return normal_form(p)
            finally:
                chunk_s = clock.spent - spent
                requests.append((t, perf(), chunk_s))

        rewrite.normal_form = timed_normal_form
    elif tracer is not None:
        tracer.install()
    clock.ready()
    outputs = []
    t0, spent0 = perf(), clock.spent
    for argv in steps:
        # each step starts as cold as its own CLI process would
        if tracer is not None:
            tracer.sample_caches()
        rewrite.clear_caches()
        qfield._mono.cache_clear()
        if tracer is not None:
            outputs.append(tracer.step(step_name(argv), run_step, argv))
        else:
            outputs.append(run_step(argv))
    clock.stop()
    end = perf()
    timings = clock.timings(t0, end, clock.spent - spent0, requests)
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.sample_caches()
        tracer.uninstall()
    steps_out = []
    for argv, (code, out) in zip(steps, outputs):
        try:
            results = json.loads(out)["results"]
        except (ValueError, KeyError, TypeError):
            results = []
        steps_out.append({
            "step": " ".join(argv), "code": code,
            "sha256": hashlib.sha256(out.encode()).hexdigest(),
            "verdicts": len(results),
            "passed": sum(1 for r in results if r.get("pass") is True)})
    return {"peak_rss_mb": peak, "ops": len(requests), "steps": steps_out, **timings}


def normalize_pass(seed, pass_index, params, mode, tracer, clock):
    from qonsager import cli, rewrite, words

    texts, stream, oracle = normalize_inputs(seed, pass_index, params)
    n_pool = params["pool"]
    warm = [words.render_poly(rewrite.normal_form(cli.parse_to_poly(t)))
            for t in texts[:n_pool]]
    if mode == "setup":
        clock.ready()
        return None
    if tracer is not None:
        tracer.install()
    clock.ready()
    # looked up after install(), so a traced pass calls the wrappers
    parse, normal_form, render = cli.parse_to_poly, rewrite.normal_form, words.render_poly
    perf = time.perf_counter
    requests = []    # (start, end, chunk seconds inside) per request
    results = []
    t0, spent0 = perf(), clock.spent
    for i in stream:
        t, spent = perf(), clock.spent
        nf = normal_form(parse(texts[i]))
        text = render(nf)
        chunk_s = clock.spent - spent
        requests.append((t, perf(), chunk_s))
        results.append((nf, text))
    clock.stop()
    end = perf()
    timings = clock.timings(t0, end, clock.spent - spent0, requests)
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.sample_caches()
        tracer.uninstall()

    # checks, outside the timed region
    problems = []
    failed = 0
    digest = hashlib.sha256()
    for i, (nf, text) in zip(stream, results):
        digest.update(text.encode() + b"\n")
        bad = not all(words.is_irreducible(w) for w in nf.terms)
        if i < n_pool and text != warm[i]:
            bad = True   # a cache read disagrees with the pass that filled it
        if bad:
            failed += 1
            if len(problems) < 5:
                problems.append(f"request {texts[i]!r} gave {text[:80]!r}")
    oracle_rng = random.Random(f"oracle:{seed}:{pass_index}")
    for k in oracle:
        poly = cli.parse_to_poly(texts[stream[k]])
        if rewrite.reduce_with_strategy(poly, oracle_rng) != results[k][0]:
            failed += 1
            problems.append(f"oracle disagrees on {texts[stream[k]]!r}")
    return {"peak_rss_mb": peak, "ops": len(stream), **timings,
            "attempted": len(stream) + len(oracle), "failed": failed,
            "problems": problems, "output_sha256": digest.hexdigest()}


def main(argv) -> int:
    workload, seed, pass_index, mode, scale = argv[:5]
    seed, pass_index = int(seed), int(pass_index)
    trace_path = argv[5] if len(argv) > 5 else None
    clock = Clock()
    clock.start()
    tracer = None
    if mode == "traced":
        from tracing import Tracer
        tracer = Tracer(f"{workload}-{seed}-{pass_index}")
    if workload == "normalize":
        result = normalize_pass(seed, pass_index, NORMALIZE[scale], mode, tracer, clock)
    else:
        import qonsager.cli  # noqa: F401  (imports are part of set-up)
        if mode == "setup":
            clock.ready()
            result = None
        else:
            result = suite_pass(SUITES[scale][workload], mode, tracer, clock)
    clock.stop()
    result = {**(result or {}), **clock.setup}
    if tracer is not None:
        result["counters"] = tracer.counters()
        result["layers"] = tracer.metrics(result["factor"])
        tracer.write(trace_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

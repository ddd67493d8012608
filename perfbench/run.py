"""The qonsager benchmark: cold verification suites and a warm normalize stream.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the kernel from
`src/`.  Workloads (see README.md in this directory for the metric map):

* `confluence`: cold `check ambiguities --bound 4`, 1,140 overlap verdicts;
* `central`: the seven central-element and series steps, 250 verdicts,
  each step from empty kernel caches;
* `normalize`: a closed loop, one client, warm caches: a seeded stream of
  CLI expressions, mostly repeats of a pool (cache hits) and a few new ones.

Every pass runs in a fresh interpreter (perfbench/child.py) with
`ONSAGER_WORKERS` removed, so each suite pass is cold.  Passes repeat until
`--seconds` is used up (at least two).  Set-up is timed from process
start to the child's `ready` line, at least five times a run.  All times
are seconds at a reference CPU speed, calibrated inside each child (see
`Clock` in child.py); the stderr report also gives the raw pass times.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of two traced passes, whose
counters must repeat exactly, and the tracing overhead against one
untraced pass.  A human-readable report goes to stderr.

`--smoke` runs tiny parameters (used by selftest.py); `--reference FILE`
checks against other digests; `--record-reference` rewrites reference.json
from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
MIN_PASSES = 2
WORKLOADS = ("confluence", "central", "normalize")


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, seed, scale):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.started = time.perf_counter()
        env = {k: v for k, v in os.environ.items() if k != "ONSAGER_WORKERS"}
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, pass_index, mode):
        """Start one child; return (scaled set-up seconds, its result)."""
        argv = [sys.executable, os.path.join(HERE, "child.py"), self.workload,
                str(self.seed), str(pass_index), mode, self.scale]
        if mode == "traced":
            argv.append(os.path.join(
                OUT_DIR, f"trace-{self.workload}-{self.seed}-{pass_index}.json"))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, text=True,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            # read the first line from the pipe itself: communicate() would
            # not see what a buffered readline() took beyond it
            first = b""
            while not first.endswith(b"\n"):
                if not select.select([proc.stdout], [], [], max(self.remaining(), 1.0))[0]:
                    raise subprocess.TimeoutExpired(argv, self.remaining())
                byte = os.read(proc.stdout.fileno(), 1)
                if not byte:
                    break
                first += byte
            setup = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} pass {pass_index} ran past the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if first.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"{self.workload} child ({mode}) exited with "
                             f"{proc.returncode} before finishing")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{self.workload} child ({mode}) printed no result")
        result = json.loads(lines[-1])
        # the child's calibration chunks are not set-up work
        return (setup - result["setup_chunks_s"]) * result["setup_factor"], result


# -- checks ---------------------------------------------------------------


def check_suite_pass(result, reference, problems):
    """(attempted, failed) for one suite pass against the recorded digests."""
    attempted = failed = 0
    for step in result["steps"]:
        ref = reference.get(step["step"])
        expected = ref["verdicts"] if ref else max(step["verdicts"], 1)
        attempted += expected
        step_failed = (step["verdicts"] - step["passed"]
                       + max(0, expected - step["verdicts"]))
        reason = None
        if ref is None:
            reason = "no reference digest"
        elif step["sha256"] != ref["sha256"]:
            reason = "output differs from the reference digest"
        elif step["code"] != 0:
            reason = f"exit code {step['code']}"
        elif step["verdicts"] == 0:
            reason = "no verdicts compared"
        if reason is not None:
            step_failed = expected   # the step's output cannot be trusted
            problems.append(f"{step['step']}: {reason}")
        elif step_failed:
            problems.append(f"{step['step']}: {step_failed} verdicts failed")
        failed += step_failed
    if not result["steps"]:
        attempted, failed = 1, 1
        problems.append("no suite steps ran")
    return attempted, failed


def check_pass(workload, result, reference, problems):
    if workload == "normalize":
        problems.extend(result["problems"])
        if result["ops"] == 0:
            problems.append("no requests compared")
            return 1, 1
        return result["attempted"], result["failed"]
    return check_suite_pass(result, reference, problems)


# -- aggregation ------------------------------------------------------------


def end_to_end(passes, setups):
    """Medians over the passes; latency percentiles over all their requests."""
    def median_of(key):
        return statistics.median(p[key] for p in passes)

    latencies = [x for p in passes for x in p["latencies_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": median_of("wall_s"),
        "peak_rss_mb": median_of("peak_rss_mb"),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": statistics.quantiles(latencies, n=100)[98],
        "requests_per_s": statistics.median(p["ops"] / p["wall_s"] for p in passes),
    }


def run_untraced(runner, seconds, reference, problems):
    passes, setups = [], []
    attempted = failed = 0
    while True:
        t = time.perf_counter()
        setup, result = runner.child(len(passes), "pass")
        cost = time.perf_counter() - t
        setups.append(setup)
        passes.append(result)
        a, f = check_pass(runner.workload, result, reference, problems)
        attempted += a
        failed += f
        spent = time.perf_counter() - runner.started
        extra_setups = max(0, SETUP_SAMPLES - len(setups) - 1) * setup
        if len(passes) >= MIN_PASSES and spent + cost + extra_setups > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child(len(setups), "setup")[0])
    metrics = end_to_end(passes, setups)
    info = {"passes": len(passes), "latency_samples": sum(p["ops"] for p in passes),
            "setup_samples_s": setups,
            "wall_samples_s": [p["wall_s"] for p in passes],
            "wall_raw_samples_s": [p["wall_raw_s"] for p in passes],
            "speed_factors": [p["factor"] for p in passes]}
    if runner.workload == "normalize":
        info["output_sha256"] = [p["output_sha256"] for p in passes]
    else:
        info["steps"] = passes[0]["steps"]
    return metrics, attempted, failed, info


def run_traced(runner, reference, problems):
    """One untraced pass, then two traced passes of the same inputs."""
    _, plain = runner.child(0, "pass")
    traced = [runner.child(0, "traced")[1] for _ in range(2)]
    attempted = failed = 0
    for result in [plain] + traced:
        a, f = check_pass(runner.workload, result, reference, problems)
        attempted += a
        failed += f
    attempted += 1
    if traced[0]["counters"] != traced[1]["counters"]:
        failed += 1
        diff = sorted(k for k in set(traced[0]["counters"]) | set(traced[1]["counters"])
                      if traced[0]["counters"].get(k) != traced[1]["counters"].get(k))
        problems.append(f"counters differ between traced passes: {diff[:8]}")
    if runner.workload == "normalize":
        attempted += 1
        digests = {r["output_sha256"] for r in [plain] + traced}
        if len(digests) != 1:
            failed += 1
            problems.append("traced and untraced passes rendered different outputs")
    # counts are equal in both passes, so the mean only averages the times
    metrics = {name: statistics.mean(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    traced_wall = statistics.mean(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_wall - plain["wall_s"]
    info = {"untraced_wall_s": plain["wall_s"],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "counters": traced[0]["counters"]}
    return metrics, attempted, failed, info


# -- environment ------------------------------------------------------------


def environment():
    src = os.path.join(ROOT, "src", "qonsager")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "src_lines": lines}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def record_reference(path):
    """Write the digests and verdict counts of every suite step, both scales."""
    reference = {}
    for scale in ("full", "smoke"):
        for workload in ("confluence", "central"):
            _, result = Runner(workload, 0, scale).child(0, "pass")
            for step in result["steps"]:
                if step["code"] != 0 or step["passed"] != step["verdicts"]:
                    raise BenchError(f"{step['step']} does not pass; not recording")
                reference[step["step"]] = {"sha256": step["sha256"],
                                           "verdicts": step["verdicts"]}
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qonsager", "__init__.py")):
        print("error: no qonsager sources under src/; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference(args.reference)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = load_spec()
        with open(args.reference) as fh:
            reference = json.load(fh)
        runner = Runner(args.workload, args.seed, "smoke" if args.smoke else "full")
        problems = []
        if args.trace:
            values, attempted, failed, info = run_traced(runner, reference, problems)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, info = run_untraced(
                runner, args.seconds, reference, problems)
            wanted = spec["end_to_end"]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "failed_frac": failed / attempted, "problems": problems,
              "environment": environment(), **info,
              "elapsed_s": time.perf_counter() - runner.started}
    print(json.dumps(report, indent=1), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

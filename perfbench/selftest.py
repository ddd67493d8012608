"""Smoke self-test of the benchmark, with tiny parameters (about 15 seconds).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that:

* every workload prints exactly the end-to-end metrics of BENCHMARK.json,
  with their units, all nonzero, and passes its correctness gate;
* every traced run prints every per-layer metric with its unit, its two
  traced passes agree on every counter, and `confluence` makes no series
  calls;
* a corrupted reference digest is counted as failed, not passed;
* the same seed gives the same normalize stream and another seed does not;
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench-out", "selftest")

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=175)
    result = report = None
    if proc.returncode == 0:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads(proc.stderr[proc.stderr.index("{\n"):])
    return proc, result, report


def smoke(workload, seed=3, trace=0, *extra):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra)


def metrics_match(result, wanted):
    got = result["metrics"]
    return (list(got) == [m["name"] for m in wanted]
            and all(got[m["name"]]["unit"] == m["unit"] for m in wanted))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        proc, result, report = smoke(workload)
        check(proc.returncode == 0, f"{workload}: exits 0")
        if result is None:
            continue
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"{workload}: result has exactly the four keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{workload}: correct with {result['attempted']} compared")
        check(metrics_match(result, spec["end_to_end"]),
              f"{workload}: every end-to-end metric, with its unit")
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              f"{workload}: every end-to-end metric is nonzero")
        check(report["failed_frac"] == 0.0, f"{workload}: failed_frac is 0")

        proc, result, report = smoke(workload, 3, 1)
        check(result is not None and result["correct"],
              f"{workload} traced: exits 0, counters repeat, outputs unchanged")
        if result is None:
            continue
        check(metrics_match(result, spec["per_layer"]),
              f"{workload} traced: every per-layer metric, with its unit,"
              " trace.overhead_s included")
        if workload == "confluence":
            series_calls = {k: v["value"] for k, v in result["metrics"].items()
                            if k.startswith("series.")}
            check(not any(series_calls.values()), "confluence traced: series.* all 0")

    # a wrong digest must be a failure, not a pass
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    reference["check ambiguities --bound 1"]["sha256"] = "0" * 64
    corrupted = os.path.join(SCRATCH, "reference-corrupted.json")
    with open(corrupted, "w") as fh:
        json.dump(reference, fh)
    proc, result, report = smoke("confluence", 3, 0, "--reference", corrupted)
    check(result is not None and not result["correct"] and result["failed"] > 0
          and report["failed_frac"] > 0,
          "corrupted digest is counted in failed_frac")

    # the seed drives the normalize inputs
    runs = [smoke("normalize", seed)[2] for seed in (5, 5, 6)]
    if all(runs):
        digests = [r["output_sha256"][:2] for r in runs]
        check(digests[0] == digests[1], "normalize: same seed, same outputs")
        check(digests[0] != digests[2], "normalize: another seed, other outputs")
    else:
        check(False, "normalize: seeded runs exit 0")

    # without the sources there is nothing to measure
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _, _ = bench("--workload", workloads[0], "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/: exits nonzero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

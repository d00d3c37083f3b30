#!/usr/bin/env python3
"""AIM benchmark: builds the aim library and the driver from this checkout,
runs one workload, and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload htap_10k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Workloads (BENCHMARK.json says why each exists): htap_200k, htap_10k,
ingest_durable. With --trace 0 the result holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run. The build lives in
.bench_build/ at the checkout root; durable data goes to
.bench_build/work/ and span logs of traced runs to .bench_build/out/.
Exits non-zero when the build fails, the run fails, or any answer or
recovery digest is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "aim_perfbench")
WORKLOADS = ("htap_200k", "htap_10k", "ingest_durable")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no AIM sources (CMakeLists.txt, src/) next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "aim_perfbench",
                   "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    """HEAD's sha, with "-dirty" when the tree has uncommitted changes."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_driver(args, echo=True):
    """Runs the driver; returns (exit code, parsed last line or None,
    the lines before it)."""
    cmd = [DRIVER, "--work-dir", os.path.join(BUILD, "work"),
           "--out-dir", os.path.join(BUILD, "out")] + args
    env = dict(os.environ, AIM_PERFBENCH_GIT_SHA=git_sha())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("driver timed out after %d s" % RUN_TIMEOUT_S)
        return 1, None, []
    lines = out.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None and echo and lines:
        print(lines[-1])
    return proc.returncode, result, lines[:-1]


def self_test():
    """Tiny-scale check: every metric of BENCHMARK.json is printed with its
    unit on every workload, and each planted wrong answer is reported as a
    mismatch of its own kind and makes the run exit 1."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    tiny = ["--seed", "7", "--seconds", "2", "--entities", "3000"]
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, _ = run_driver(
                ["--workload", workload, "--trace", str(trace)] + tiny,
                echo=False)
            where = "%s trace %d" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                problems.append(where + ": run failed (exit %d)" % code)
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in got
                               if k in want[trace] and got[k] != want[trace][k])
                problems.append("%s: missing %s, extra %s, wrong unit %s" %
                                (where, missing, extra, wrong))
        plants = ["oracle"] + (["digest"] if workload == "ingest_durable"
                               else [])
        for plant in plants:
            code, result, lines = run_driver(
                ["--workload", workload, "--trace", "0", "--plant", plant] +
                tiny, echo=False)
            reported = [l for l in lines if l.startswith("MISMATCH [")]
            caught = (code == 1 and result is not None and
                      result.get("correct") is False and reported and
                      all(l.startswith("MISMATCH [%s]" % plant)
                          for l in reported))
            if not caught:
                problems.append("%s: planted %s mismatch not reported as such "
                                "(exit %d, mismatches %s)" %
                                (workload, plant, code, reported))
        log("self-test: %s checked" % workload)
    for p in problems:
        log("FAIL " + p)
    log("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return self_test()
    code, result, _ = run_driver(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)])
    if result is None:
        log("driver printed no result")
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

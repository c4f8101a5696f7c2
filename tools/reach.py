#!/usr/bin/env python3
"""reach: which src/ lines the repository's own runs execute.

Builds the library, every bench and every example with gcc's --coverage
into .bench_build/reach/, links perfbench/bench_suite.cc against the same
instrumented library (perfbench/ itself is not touched), and runs each
binary once:

  - every bench at ASPEN_BENCH_RUNS=1: a bench with a --smoke mode at its
    smoke defaults, the learning benches at their default lengths, every
    other bench at ASPEN_BENCH_CYCLES=30;
  - the knob variants CI runs: ASPEN_SHARDS=4 ASPEN_PIPELINE=2 and
    ASPEN_TREE_MODE=shared, over the benches CI gates under them;
  - the four examples;
  - bench_suite --smoke, once per perfbench workload.

It runs no test: code that only tests reach counts as unreached, which is
the point — such code is a candidate for deletion, or a test oracle that
should say so. It then merges gcov's JSON reports of every object file and
prints the share of instrumented src/ lines executed and every src/
function that never ran. An inline or template function that no
translation unit instantiates is not instrumented, so it is in neither
count; a call the optimizer folds to a constant leaves no count either
(BloomSummary::SizeBytes, which bench_appg_mobility reads, is listed), so
grep for callers before deleting a listed function.

Usage:
  tools/reach.py [--jobs N] [--no-build] [--timeout SECONDS]

Needs gcc and gcov 9 or newer (gcov --json-format). Takes a few minutes on
4 cores, build included. Exit status: 0 on success, 1 when a build step or
a run fails (the report is still printed after a failed run).
"""

import argparse
import concurrent.futures
import gzip
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "reach"
SRC = ROOT / "src"
OPT_FLAGS = ["-O1", "-g"]

# Section 6 learning needs its default length before estimates drift past
# the threshold; CI runs these three at their defaults too.
LEARNING_BENCHES = {"bench_fig10_learning", "bench_fig12_skew_temporal",
                    "bench_ablation_threshold"}
# (environment, benches): the knob variants of CI's determinism gate.
KNOB_VARIANTS = [
    ({"ASPEN_SHARDS": "4", "ASPEN_PIPELINE": "2"},
     ["bench_fig02_query1", "bench_fig14_failure", "bench_mesh_10k",
      "bench_mesh_100k", "bench_service_churn", "bench_reopt"]),
    ({"ASPEN_TREE_MODE": "shared"},
     ["bench_mesh_10k", "bench_service_churn", "bench_service_sharing"]),
]
PERFBENCH_WORKLOADS = ["mesh10k", "mesh100k_4t", "churn_shared",
                       "paper_sweep"]
ASPEN_ENV = re.compile(r"^ASPEN_")


def names(directory, suffix):
    return sorted(p.stem for p in (ROOT / directory).glob("*" + suffix))


def has_smoke_mode(bench):
    return "ConsumeSmokeFlag" in (ROOT / "bench" / (bench + ".cc")).read_text()


def check(cmd, **kwargs):
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   **kwargs)


def build(jobs):
    flags = " ".join(OPT_FLAGS + ["--coverage"])
    check(["cmake", "-S", str(ROOT), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=None", "-DCMAKE_CXX_FLAGS=" + flags,
           "-DCMAKE_EXE_LINKER_FLAGS=--coverage"])
    targets = ["aspen"] + names("bench", ".cc") + names("examples", ".cpp")
    check(["cmake", "--build", str(BUILD), "-j", str(jobs), "--target"] +
          targets)
    cache = (BUILD / "CMakeCache.txt").read_text()
    cxx = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M).group(1)
    check([cxx, "-std=c++17"] + OPT_FLAGS + ["--coverage",
          "-I" + str(SRC), "-I" + str(ROOT),
          str(ROOT / "perfbench" / "bench_suite.cc"),
          str(BUILD / "libaspen.a"), "-pthread",
          "-o", str(BUILD / "bench_suite")])


def runs():
    """(label, argv, extra environment) of every run."""
    out = []
    for bench in names("bench", ".cc"):
        env = {"ASPEN_BENCH_RUNS": "1"}
        argv = [str(BUILD / bench)]
        if has_smoke_mode(bench):
            argv.append("--smoke")
        elif bench not in LEARNING_BENCHES:
            env["ASPEN_BENCH_CYCLES"] = "30"
        out.append((bench, argv, env))
    for variant, benches in KNOB_VARIANTS:
        for bench in benches:
            label, argv, env = next(r for r in out if r[0] == bench)
            tag = " ".join("%s=%s" % kv for kv in sorted(variant.items()))
            out.append(("%s [%s]" % (label, tag), argv, {**env, **variant}))
    for example in names("examples", ".cpp"):
        out.append((example, [str(BUILD / example)], {}))
    for workload in PERFBENCH_WORKLOADS:
        out.append(("bench_suite --smoke " + workload,
                    [str(BUILD / "bench_suite"), "--workload", workload,
                     "--seed", "1", "--seconds", "0.2", "--smoke"], {}))
    return out


def run_one(label, argv, extra, timeout):
    # Benches write their BENCH_*.json reports into the working directory:
    # keep them in the build tree, and start from a clean ASPEN_* env.
    env = {k: v for k, v in os.environ.items() if not ASPEN_ENV.match(k)}
    env.update(extra)
    try:
        proc = subprocess.run(argv, cwd=BUILD, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        return label, proc.returncode
    except subprocess.TimeoutExpired:
        return label, "timeout"


def gcov_reports(gcda_files):
    """One gcov JSON document per .gcda file."""
    for gcda in gcda_files:
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names",
             "--object-directory", str(gcda.parent), str(gcda)],
            cwd=BUILD, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True)
        data = proc.stdout
        if data[:2] == b"\x1f\x8b":
            data = gzip.decompress(data)
        for line in data.decode().splitlines():
            if line.strip():
                yield json.loads(line)


def src_path(path):
    """`path` relative to the repository when it lies under src/, else
    None."""
    full = Path(path)
    if not full.is_absolute():
        full = BUILD / full
    full = Path(os.path.normpath(full))
    try:
        full.relative_to(SRC)
    except ValueError:
        return None
    return str(full.relative_to(ROOT))


def merge(reports):
    """Line hits per (file, line), executions per (file, start line), and
    the first name seen for each function start."""
    lines, functions, function_names = {}, {}, {}
    for report in reports:
        for f in report.get("files", []):
            path = src_path(f["file"])
            if path is None:
                continue
            for ln in f.get("lines", []):
                key = (path, ln["line_number"])
                lines[key] = lines.get(key, 0) + ln["count"]
            for fn in f.get("functions", []):
                key = (path, fn["start_line"])
                functions[key] = functions.get(key, 0) + fn["execution_count"]
                function_names.setdefault(
                    key, fn.get("demangled_name") or fn["name"])
    return lines, functions, function_names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int,
                    default=max(1, min(4, os.cpu_count() or 1)))
    ap.add_argument("--no-build", action="store_true",
                    help="reuse the instrumented build as it is")
    ap.add_argument("--timeout", type=float, default=1800.0,
                    help="seconds allowed per run")
    args = ap.parse_args()

    if not args.no_build:
        try:
            build(args.jobs)
        except subprocess.CalledProcessError as e:
            print("reach: build failed: %s" % " ".join(e.cmd), file=sys.stderr)
            return 1
    for stale in BUILD.rglob("*.gcda"):
        stale.unlink()

    failed = []
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(run_one, label, argv, env, args.timeout)
                   for label, argv, env in runs()]
        for fut in concurrent.futures.as_completed(futures):
            label, status = fut.result()
            print("ran %-60s %s" % (label, status), file=sys.stderr,
                  flush=True)
            if status != 0:
                failed.append("%s (%s)" % (label, status))

    lines, functions, function_names = merge(
        gcov_reports(sorted(BUILD.rglob("*.gcda"))))
    reached = sum(1 for hits in lines.values() if hits > 0)
    total = len(lines)
    print("src/ lines reached: %d of %d (%.1f%%)" %
          (reached, total, 100.0 * reached / max(total, 1)))
    never = sorted(key for key, hits in functions.items() if hits == 0)
    print("src/ functions never run: %d of %d" % (len(never), len(functions)))
    for path, line in never:
        print("  %s:%d  %s" % (path, line, function_names[(path, line)]))
    if failed:
        print("reach: runs failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

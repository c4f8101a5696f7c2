#!/usr/bin/env python3
"""The repository benchmark: builds the suite binary and runs its workloads.

One measured run (the form BENCHMARK.json names):

    python3 perfbench/run_benchmark.py --workload mesh10k --seed 1 \
        --seconds 10 --trace 0

  prints, as its last stdout line, one JSON object with the keys
  correct, attempted, failed and metrics: every end-to-end metric with
  --trace 0, every per-layer metric with --trace 1.

Whole-suite modes:

    --suite [--out FILE]                every workload, repeated, with
                                        median and quartiles per metric;
                                        --trace 1 adds one traced run per
                                        workload and the per-layer table
    --smoke                             every workload shrunk, traced, once
    --compare OLD.json NEW.json         verdict per (metric, workload)

The suite is built from source into .bench_build/ under the repository
root; traces and suite results are written there too. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "bench_suite"

WORKLOADS = ["mesh10k", "mesh100k_4t", "churn_shared", "paper_sweep"]
# Repetitions per workload in --suite mode (run length is --seconds).
SUITE_REPEATS = {"mesh10k": 5, "mesh100k_4t": 3, "churn_shared": 3,
                 "paper_sweep": 5}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures once, then brings the suite binary up to date. Build
    output goes to stderr so stdout carries only results."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "bench_suite", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_suite_binary(workload, seed, seconds, trace, smoke=False):
    """One process, one run; returns the binary's result object."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--trace-out",
                str(OUT_DIR / (workload + ".trace.json"))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("%s exited %d without a result"
                         % (workload, proc.returncode))
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def contract_line(spec, result, trace):
    """The one-line result: end-to-end metrics untraced, per-layer traced."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    correct = (result["correct"] and result["failed"] == 0
               and result["exit_code"] == 0)
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            log("missing metric", m["name"])
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for failure in result.get("failures", []):
        log("FAILED:", failure)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# ---- statistics ---------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def fmt(v):
    if v == 0:
        return "0"
    mag = abs(v)
    if mag >= 1e5 or mag < 1e-3:
        return "%.4g" % v
    return "%.4f" % v if mag < 10 else "%.2f" % v


# ---- suite mode -----------------------------------------------------------------


def run_set(spec, args):
    results = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    failed = False
    for w in WORKLOADS:
        runs = []
        repeats = SUITE_REPEATS[w]
        for i in range(repeats):
            log("[%s] run %d/%d" % (w, i + 1, repeats))
            r = run_suite_binary(w, args.seed, args.seconds, trace=False)
            failed |= not contract_line(spec, r, False)["correct"]
            runs.append(r)
        entry = {"runs": runs}
        if args.trace == 1:
            log("[%s] traced run" % w)
            entry["traced"] = run_suite_binary(w, args.seed, args.seconds,
                                               trace=True)
            failed |= not contract_line(spec, entry["traced"],
                                        True)["correct"]
        results["workloads"][w] = entry
    return results, failed


def print_e2e_table(spec, results):
    print("%-14s %-22s %-6s %12s %12s %12s %8s" %
          ("workload", "metric", "unit", "median", "q1", "q3", "spread"))
    for w, entry in results["workloads"].items():
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in entry["runs"]]
            s = summarize(vals)
            print("%-14s %-22s %-6s %12s %12s %12s %7.1f%%" %
                  (w, m["name"], m["unit"], fmt(s["median"]), fmt(s["q1"]),
                   fmt(s["q3"]), 100 * s["spread"]))


def print_layer_table(spec, workload, result):
    print("per-layer split, %s (traced run; phase times are self time per "
          "cycle)" % workload)
    for m in spec["per_layer"]:
        print("  %-28s %12s %s" % (m["name"],
                                    fmt(result["metrics"][m["name"]]),
                                    m["unit"]))
    print("  trace: %s" % (OUT_DIR / (workload + ".trace.json")))


def check_digests(results):
    """Runs of one workload with one seed must agree bit for bit, traced or
    not. Returns False on any mismatch."""
    ok = True
    for w, entry in results["workloads"].items():
        digests = {r["digest"] for r in entry["runs"]}
        if "traced" in entry:
            digests.add(entry["traced"]["digest"])
        same = len(digests) == 1
        print("%-14s digest %s" % (w, ", ".join(sorted(digests))
                                   + ("" if same else "  MISMATCH")))
        ok &= same
    return ok


def suite(spec, args):
    results, failed = run_set(spec, args)
    print_e2e_table(spec, results)
    for w, entry in results["workloads"].items():
        if "traced" in entry:
            print_layer_table(spec, w, entry["traced"])
    digests_ok = check_digests(results)
    out = Path(args.out) if args.out else (
        OUT_DIR / ("suite-%d.json" % int(time.time())))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print("results: %s" % out)
    return 0 if digests_ok and not failed else 1


def smoke(spec, args):
    """Every workload shrunk, one traced run each: every probe and every
    correctness check runs."""
    failed = False
    start = time.monotonic()
    for w in WORKLOADS:
        r = run_suite_binary(w, args.seed, 0.2, trace=True, smoke=True)
        line = contract_line(spec, r, True)
        print("%-14s correct=%s attempted=%d failed=%d digest=%s" %
              (w, line["correct"], line["attempted"], line["failed"],
               r["digest"]))
        failed |= not line["correct"]
        untraced = contract_line(spec, r, False)
        failed |= not untraced["correct"]
    print("smoke: %s in %.1f s" % ("FAIL" if failed else "PASS",
                                   time.monotonic() - start))
    return 1 if failed else 0


# ---- compare ------------------------------------------------------------------------


def verdict(metric, old, new):
    """better / worse / unchanged, or unresolved when the run-to-run spread
    is wider than the bound and the runs do not separate completely."""
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    so, sn = summarize(old), summarize(new)
    m0, m1 = so["median"], sn["median"]
    if m0 == 0:
        return "unchanged" if m1 == 0 else "unresolved", 0.0
    worse_by = (m1 - m0) / m0 if lower else (m0 - m1) / m0
    if max(so["spread"], sn["spread"]) > bound:
        separated = (max(new) < min(old)) if lower else (min(new) > max(old))
        return ("better" if separated else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > bound:
        return "better", worse_by
    return "unchanged", worse_by


def compare(spec, old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    print("%-14s %-22s %-6s %25s %25s %8s %6s  %s" %
          ("workload", "metric", "unit", "old median [q1, q3]",
           "new median [q1, q3]", "worse by", "bound", "verdict"))
    worse = 0
    for w in WORKLOADS:
        if w not in old["workloads"] or w not in new["workloads"]:
            continue
        o_runs = old["workloads"][w]["runs"]
        n_runs = new["workloads"][w]["runs"]
        for m in spec["end_to_end"]:
            ov = [r["metrics"][m["name"]] for r in o_runs]
            nv = [r["metrics"][m["name"]] for r in n_runs]
            v, worse_by = verdict(m, ov, nv)
            so, sn = summarize(ov), summarize(nv)
            print("%-14s %-22s %-6s %25s %25s %+7.1f%% %5.0f%%  %s" %
                  (w, m["name"], m["unit"],
                   "%s [%s, %s]" % (fmt(so["median"]), fmt(so["q1"]),
                                    fmt(so["q3"])),
                   "%s [%s, %s]" % (fmt(sn["median"]), fmt(sn["q1"]),
                                    fmt(sn["q3"])),
                   100 * worse_by, 100 * m["bound"], v))
            worse += v == "worse"
        od = {r["digest"] for r in o_runs}
        nd = {r["digest"] for r in n_runs}
        print("%-14s digest %s" % (w, "identical" if od == nd and
                                   len(od) == 1 else
                                   "differs: %s -> %s" % (sorted(od),
                                                          sorted(nd))))
    return 1 if worse else 0


# ---- entry point -----------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--suite", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    if args.smoke:
        return smoke(spec, args)
    if args.suite:
        return suite(spec, args)
    if not args.workload:
        ap.error("--workload, --suite, --smoke or --compare is required")
    result = run_suite_binary(args.workload, args.seed, args.seconds,
                              trace=args.trace == 1)
    line = contract_line(spec, result, args.trace == 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        log("benchmark error:", e)
        sys.exit(2)

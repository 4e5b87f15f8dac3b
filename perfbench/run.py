#!/usr/bin/env python3
"""OSPREY end-to-end benchmark driver.

Builds the C++ harness (perfbench/CMakeLists.txt, from the repository's
sources) into .bench_build/, runs one workload and prints the result as the
last line of stdout:

    python3 perfbench/run.py --workload deep_backlog --seed 1 --seconds 15 --trace 0

Other modes:

    run.py all [--seed N] [--seconds S] [--trace 0|1]
        every workload, every metric printed with its unit; exit 1 on a
        failed correctness check
    run.py sweep --seeds 1-10 [--workloads a,b] [--seconds S] [--trace 0|1]
                 [--save DIR]
        one run per (workload, seed); prints each metric's median, quartiles
        and spread (IQR / median), the gated ones against their bound
    run.py compare DIR_A DIR_B
        two saved sweeps: per workload, each metric's median and quartiles
        per side; flags gated metrics worse than their bound
    run.py determinism [--seed N]
        two traced deep_backlog runs with one seed; prints every per-layer
        count that differs and exits 1 if any does
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "osprey_perfbench"
OUT_DIR = BUILD_ROOT / "perfbench-out"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build the harness; False when it cannot."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("perfbench: repository sources (src/) not found; cannot build")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0 and BINARY.exists()


def environment():
    compiler = "unknown"
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                try:
                    out = subprocess.run([path, "--version"], capture_output=True,
                                         text=True, timeout=10).stdout
                    compiler = out.splitlines()[0] if out else path
                except (OSError, subprocess.SubprocessError):
                    compiler = path
    return {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "compiler": compiler, "machine": platform.machine(),
            "kernel": platform.release()}


def run_once(workload, seed, seconds, trace):
    """Run the harness once. Returns (result_line_dict, raw_dict) or None."""
    work_dir = BUILD_ROOT / ("run-%d" % os.getpid())
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # Write back dirty pages (a fresh build leaves hundreds of MB) first, so
    # the run's per-commit fsyncs do not queue behind them.
    os.sync()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work_dir), "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log("perfbench: harness printed no result (exit %d)" % proc.returncode)
        return None
    raw = json.loads(lines[-1])
    wanted = spec()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            raw["violations"].append("metric %s missing" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for v in raw["violations"]:
        log("perfbench: CHECK FAILED: " + v)
    correct = raw["correct"] and not raw["violations"] and proc.returncode == 0
    line = {"correct": correct, "attempted": max(1, raw["attempted"]),
            "failed": raw["failed"], "metrics": metrics}
    return line, raw


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def workload_names(text):
    names = [w["name"] for w in spec()["workloads"]]
    if text in (None, "", "all"):
        return names
    chosen = text.split(",")
    for w in chosen:
        if w not in names:
            sys.exit("unknown workload %s (have %s)" % (w, ", ".join(names)))
    return chosen


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_single(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    workload_names(args.workload)
    if not build():
        return 2
    out = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    if out is None:
        return 3
    line, _ = out
    print("env " + json.dumps(environment()))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def cmd_all(argv):
    ap = argparse.ArgumentParser(prog="run.py all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    if not build():
        return 2
    print("env " + json.dumps(environment()))
    status = 0
    for w in workload_names("all"):
        out = run_once(w, args.seed, args.seconds, bool(args.trace))
        if out is None:
            print("%s: no result" % w)
            status = 1
            continue
        line, raw = out
        print("%s: correct=%s attempted=%d failed=%d" % (
            w, line["correct"], line["attempted"], line["failed"]))
        for name, m in line["metrics"].items():
            print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
        for name, m in sorted(raw["metrics"].items()):
            if not args.trace and name not in line["metrics"]:
                print("  %-40s %16.6g %s  (not gated)" % (name, m["value"],
                                                         m["unit"]))
        if not line["correct"]:
            status = 1
    return status


def cmd_sweep(argv):
    ap = argparse.ArgumentParser(prog="run.py sweep")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", default=None)
    args = ap.parse_args(argv)
    if not build():
        return 2
    env = environment()
    save = Path(args.save) if args.save else None
    if save:
        save.mkdir(parents=True, exist_ok=True)
    status = 0
    results = {}
    for w in workload_names(args.workloads):
        for seed in parse_seeds(args.seeds):
            t0 = time.time()
            out = run_once(w, seed, args.seconds, bool(args.trace))
            if out is None or not out[0]["correct"]:
                log("%s seed %d: FAILED" % (w, seed))
                status = 1
                continue
            line, raw = out
            log("%s seed %d: ok in %.1f s" % (w, seed, time.time() - t0))
            results.setdefault(w, []).append(raw["metrics"])
            if save:
                doc = {"workload": w, "seed": seed, "trace": args.trace,
                       "env": env, "result": line, "metrics": raw["metrics"],
                       "counts": raw["counts"]}
                (save / ("%s-%d-t%d.json" % (w, seed, args.trace))).write_text(
                    json.dumps(doc, indent=1))
    if not args.trace:
        report_spreads(results)
    return status


def bounds():
    return {m["name"]: m["bound"] for m in spec()["end_to_end"]}


def report_spreads(results):
    """Spread (IQR / median) of every metric; gated ones against their bound."""
    b = bounds()
    for w, runs in results.items():
        print("%s (%d runs)" % (w, len(runs)))
        print("  %-22s %12s %12s %12s %8s %8s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name in sorted(set().union(*runs)):
            vals = [r[name]["value"] for r in runs if name in r]
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            if name not in b:
                note, bound = "  (not gated)", "-"
            else:
                bound = "%.3f" % b[name]
                note = ""
                if name != "setup_s" and spread > b[name]:
                    note = "  <-- past bound"
                elif name != "setup_s" and spread > b[name] / 3:
                    note = "  <-- past bound/3"
            print("  %-22s %12.6g %12.6g %12.6g %8.3f %8s%s" % (
                name, q1, q2, q3, spread, bound, note))


def load_set(directory):
    sets = {}
    for p in sorted(Path(directory).glob("*.json")):
        doc = json.loads(p.read_text())
        if doc.get("trace"):
            continue
        sets.setdefault(doc["workload"], []).append(doc["metrics"])
    return sets


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    base, new = load_set(args.base), load_set(args.new)
    b = bounds()
    higher_better = {m["name"] for m in spec()["end_to_end"]
                     if m["better"] == "higher"}
    flagged = 0
    for w in sorted(set(base) | set(new)):
        print("%s: %d vs %d runs" % (w, len(base.get(w, [])), len(new.get(w, []))))
        print("  %-22s %30s %30s %8s" % ("metric", "A median [q1, q3]",
                                          "B median [q1, q3]", "change"))
        names = sorted(set().union(*base.get(w, [{}]), *new.get(w, [{}])))
        for name in names:
            a = [r[name]["value"] for r in base.get(w, []) if name in r]
            c = [r[name]["value"] for r in new.get(w, []) if name in r]
            if not a or not c:
                continue
            qa, qc = quartiles(a), quartiles(c)
            change = (qc[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = -change if name in higher_better else change
            if name not in b:
                flag = "  (not gated)"
            elif worse > b[name]:
                flag = "  WORSE past bound %.2f" % b[name]
                flagged += 1
            else:
                flag = ""
            print("  %-22s %12.5g [%7.4g, %7.4g] %12.5g [%7.4g, %7.4g] %+7.1f%%%s"
                  % (name, qa[1], qa[0], qa[2], qc[1], qc[0], qc[2],
                     100 * change, flag))
    return 1 if flagged else 0


def cmd_determinism(argv):
    ap = argparse.ArgumentParser(prog="run.py determinism")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if not build():
        return 2
    counts = []
    for _ in range(2):
        out = run_once("deep_backlog", args.seed, spec()["run_seconds"], True)
        if out is None or not out[0]["correct"]:
            print("deep_backlog traced run failed")
            return 1
        counts.append(out[1]["counts"])
    a, b = counts
    differ = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    for k in differ:
        print("count differs: %-40s %s vs %s" % (k, a.get(k), b.get(k)))
    print("%d per-layer counts compared, %d differ" % (len(set(a) | set(b)),
                                                       len(differ)))
    return 1 if differ else 0


def main():
    argv = sys.argv[1:]
    modes = {"all": cmd_all, "sweep": cmd_sweep, "compare": cmd_compare,
             "determinism": cmd_determinism}
    if argv and argv[0] in modes:
        return modes[argv[0]](argv[1:])
    return cmd_single(argv)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the bench suite (python3 standard library only).

One run (the result object is the last line printed):

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Other commands:

    run.py sets [--sets N] [--seed N] [--seconds S] [--workloads ...]
                [--traced-sets N] [--json PATH]
        N sets, every workload in its own process, serially; prints each
        end-to-end metric per workload with its median and quartiles.
    run.py determinism [--seed N] [--seconds S] [--workloads ...]
        Runs every workload twice per mode and asserts that each sim-time
        and count metric (end-to-end and per-layer) is byte-identical.
    run.py ab --base BIN --change BIN [--pairs 10] [--seed N] ...
        Interleaved A/B of two bench_suite binaries with a verdict per
        (workload, end-to-end metric) and per (workload, outcome).
    run.py smoke
        bench_suite --smoke: every workload at ~2% size, the traced run's
        self-checks, and the check that BENCHMARK.json matches the compiled
        catalog.
    run.py findings [--sets N] [--seed N] [--seconds S]
        churn_faults without its guards (churn_findings): wrong records and
        failed share per seed, with examples.

Every command except ab first configures and builds the suite from source
into .bench_build/ at the repository root (cmake, Release; a no-op once
the build is current).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SUITE_DIR = os.path.join(ROOT, "bench", "suite")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench_suite")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds bench_suite; False on any failure. Both steps
    are no-ops (well under a second) once the build is current."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", SUITE_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "bench_suite",
              "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, check=False)
        except OSError as err:
            log("run.py: cannot run", step[0], "-", err)
            return False
        if done.returncode != 0:
            log("run.py: build step failed:", " ".join(step))
            return False
    return os.path.exists(BINARY)


def run_bench(binary, args):
    """Runs one bench_suite process; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, cwd=ROOT, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("run.py: bench_suite exceeded", RUN_TIMEOUT_S, "s:", " ".join(args))
        return 1, []
    return done.returncode, done.stdout.splitlines()


def measure(binary, workload, seed, seconds, trace):
    """One workload run: {"result", "detail", "exact"}, or None on failure."""
    code, lines = run_bench(binary, ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds),
                                     "--trace", "1" if trace else "0"])
    if code != 0 or len(lines) < 2:
        log("run.py: run failed:", workload, "seed", seed)
        return None
    head = json.loads(lines[-2])
    return {"result": json.loads(lines[-1]), "detail": head["detail"],
            "exact": head["exact"]}


def benchmark():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def value_of(run, name):
    return run["result"]["metrics"][name]["value"]


# --- commands -------------------------------------------------------------


def cmd_single(args):
    if not build():
        return 1
    code, lines = run_bench(BINARY, ["--workload", args.workload,
                                     "--seed", str(args.seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)])
    for line in lines:
        print(line)
    return code


def collect_sets(args, bench):
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(args.sets):
        for w in workloads:
            run = measure(BINARY, w, args.seed + i, args.seconds, False)
            if run is None:
                return None, None
            runs[w].append(run)
    for i in range(args.traced_sets):
        for w in workloads:
            run = measure(BINARY, w, args.seed + i, args.seconds, True)
            if run is None:
                return None, None
            traced[w].append(run)
    return runs, traced


def outcome_of(run, name):
    return run["detail"]["outcomes"][name]["value"]


def gated(bench, run):
    """(kind, metric, value getter) for every gated number of one run: the
    end-to-end metrics from BENCHMARK.json, then the workload's outcomes
    with the bounds the run printed."""
    rows = [("e2e", m, value_of) for m in bench["end_to_end"]]
    for name, o in run["detail"]["outcomes"].items():
        rows.append(("outcome", dict(o, name=name), outcome_of))
    return rows


def samples_note(wruns, name):
    pct = wruns[0]["detail"]["percentiles"].get(name)
    if not pct:
        return ""
    note = f"n={pct['n']}"
    if not all(r["detail"]["percentiles"][name]["supported"] for r in wruns):
        note += " (fewer than 10 beyond)"
    return note


def print_sets(bench, runs):
    for w, wruns in runs.items():
        fails = sum(r["result"]["failed"] for r in wruns)
        tried = sum(r["result"]["attempted"] for r in wruns)
        print(f"\n{w}: {len(wruns)} runs, failed {fails} of {tried} operations")
        print(f"  {'metric':<22} {'unit':<6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'bound':>6}  samples")
        for kind, m, get in gated(bench, wruns[0]):
            vals = [get(r, m["name"]) for r in wruns]
            q1, med, q3 = quartiles(vals)
            label = m["name"] if kind == "e2e" else m["name"] + "*"
            print(f"  {label:<22} {m['unit']:<6} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread(vals):>8.4f} {m['bound']:>6}  "
                  f"{samples_note(wruns, m['name'])}")
    print("\n* workload outcome (detail line; judged by run.py ab, not in "
          "BENCHMARK.json)")


def machine():
    compiler = ""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    build_type = ""
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"], capture_output=True,
                                         text=True, check=False).stdout
                    compiler = out.splitlines()[0] if out else path
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "compiler": compiler, "build_type": build_type}


def cmd_sets(args):
    if not build():
        return 1
    bench = benchmark()
    runs, traced = collect_sets(args, bench)
    if runs is None:
        return 1
    print_sets(bench, runs)
    if args.json:
        out = {"machine": machine(), "seconds": args.seconds,
               "seeds": [args.seed + i for i in range(args.sets)],
               "untraced": runs, "traced": traced}
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


def cmd_determinism(args):
    if not build():
        return 1
    bench = benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    status = 0
    for w in workloads:
        for trace in (False, True):
            a = measure(BINARY, w, args.seed, args.seconds, trace)
            b = measure(BINARY, w, args.seed, args.seconds, trace)
            if a is None or b is None:
                return 1
            exact = a["exact"]
            diff = [n for n in exact
                    if repr(value_of(a, n)) != repr(value_of(b, n))]
            diff += [n for n in a["detail"]["outcomes"]
                     if repr(outcome_of(a, n)) != repr(outcome_of(b, n))]
            for key in ("correct", "attempted", "failed"):
                if a["result"][key] != b["result"][key]:
                    diff.append(key)
            mode = "traced" if trace else "untraced"
            if diff:
                status = 1
                print(f"{w} {mode}: NOT deterministic: {', '.join(diff)}")
            else:
                print(f"{w} {mode}: {len(exact)} exact metrics and "
                      f"{len(a['detail']['outcomes'])} outcomes byte-identical")
    return status


def verdict(metric, base, change):
    """improved / unchanged / worse / unresolved for one (workload, metric)."""
    if base == change:  # exact metrics repeat at equal seeds
        return "unchanged"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    bq1, bmed, bq3 = quartiles(base)
    cmed = statistics.median(change)
    gap = sign * (bmed - cmed)  # > 0: the change is better
    iqr = bq3 - bq1
    if bmed and -gap > metric["bound"] * abs(bmed):
        return "worse"
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if bmed and iqr / abs(bmed) > metric["bound"] and not all_better:
        return "unresolved"
    if wins >= 0.9 * len(base) and gap > iqr:
        return "improved"
    return "unchanged"


def cmd_ab(args):
    bench = benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sides = {"base": args.base, "change": args.change}
    runs = {w: {"base": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for w in workloads:
            for side in order:
                run = measure(sides[side], w, args.seed + i, args.seconds, False)
                if run is None:
                    return 1
                runs[w][side].append(run)
    status = 0
    for w in workloads:
        print(f"\n{w}: {args.pairs} interleaved pairs")
        fail = {s: sum(r["result"]["failed"] for r in runs[w][s]) /
                max(1, sum(r["result"]["attempted"] for r in runs[w][s]))
                for s in sides}
        if fail["change"] > fail["base"]:
            status = 1
            print(f"  FAILED OPERATIONS ROSE: fail_frac {fail['base']:.6g} -> "
                  f"{fail['change']:.6g}")
        # Outcome bounds come from the base side: the parent's yardstick.
        for kind, m, get in gated(bench, runs[w]["base"][0]):
            if kind == "outcome" and any(m["name"] not in r["detail"]["outcomes"]
                                         for r in runs[w]["change"]):
                print(f"  {m['name']:<22} missing on the change side")
                status = 1
                continue
            base = [get(r, m["name"]) for r in runs[w]["base"]]
            change = [get(r, m["name"]) for r in runs[w]["change"]]
            v = verdict(m, base, change)
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            label = m["name"] if kind == "e2e" else m["name"] + "*"
            print(f"  {label:<22} base {bmed:>11.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"change {cmed:>11.6g} [{cq1:.6g}, {cq3:.6g}]  {v}")
            if v == "worse":
                status = 1
    print("\n* workload outcome, bound from the base side's detail line")
    return status


def cmd_smoke(_args):
    if not build():
        return 1
    code, lines = run_bench(BINARY, ["--smoke", "--benchmark", BENCHMARK_JSON])
    for line in lines:
        print(line)
    return code


def cmd_findings(args):
    if not build():
        return 1
    wrong_seeds = 0
    for i in range(args.sets):
        run = measure(BINARY, "churn_findings", args.seed + i, args.seconds, False)
        if run is None:
            return 1
        res, counts = run["result"], run["detail"]["counts"]
        wrong_seeds += counts["wrong_records"] > 0
        print(f"seed {args.seed + i}: {counts['wrong_records']} wrong records, "
              f"fail_frac {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']} of {res['attempted']})")
        for ex in run["detail"]["wrong_examples"]:
            print(f"  {json.dumps(ex, sort_keys=True)}")
    print(f"{wrong_seeds} of {args.sets} seeds end with wrong records")
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("sets", "determinism", "ab", "smoke", "findings"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=10)
        parser.add_argument("--workloads", nargs="*")
        if argv[0] in ("sets", "findings"):
            parser.add_argument("--sets", type=int, default=3 if argv[0] == "sets" else 10)
        if argv[0] == "sets":
            parser.add_argument("--traced-sets", type=int, default=0)
            parser.add_argument("--json")
        if argv[0] == "ab":
            parser.add_argument("--base", required=True)
            parser.add_argument("--change", required=True)
            parser.add_argument("--pairs", type=int, default=10)
        args = parser.parse_args(argv[1:])
        command = {"sets": cmd_sets, "determinism": cmd_determinism,
                   "ab": cmd_ab, "smoke": cmd_smoke,
                   "findings": cmd_findings}[argv[0]]
        return command(args)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_single(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Records one trajectory point of jtc-bench.

Usage (from the root of a checkout):

    python3 jtcbench/trajectory.py --runs 10 --out jtcbench/trajectory/NAME.json

Runs every workload of BENCHMARK.json --runs times untraced, each run
with another seed (1..runs), then once traced (seed 1), through run.py.
Writes, per workload, every end-to-end metric's values with their median,
quartiles (statistics.quantiles, n=4) and spread (interquartile distance
over median), the traced run's per-layer metrics, and the machine facts
the numbers depend on: nproc, build type, compiler, JTC_TELEMETRY.
Prints each spread beside its bound; exits 1 if a run failed or was
incorrect.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def one_run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return None
    return json.loads(out.stdout.strip().split("\n")[-1])


def cmake_cache():
    cache = {}
    path = run.build_dir() / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":")[0]] = value
    return cache


def machine_facts():
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.split("\n")[0]
    return {
        "nproc": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": version,
        "JTC_TELEMETRY": cache.get("JTC_TELEMETRY", "ON"),
    }


def summarize(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--commit", default="", help="commit the point measures")
    args = ap.parse_args()

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    if run.build() is None:
        return 1
    point = {"commit": args.commit,
             "date": datetime.date.today().isoformat(),
             "run_seconds": seconds, "runs": args.runs,
             "machine": machine_facts(), "workloads": {}}
    ok = True
    for w in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            r = one_run(w, seed, seconds, 0)
            ok = ok and r is not None and r["correct"]
            if r is not None:
                results.append(r)
                print(f"{w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
        traced = one_run(w, 1, seconds, 1)
        ok = ok and traced is not None and traced["correct"]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}, "per_layer": {}}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results
                    if name in r["metrics"]]
            if not vals:
                continue
            s = summarize(vals)
            entry["end_to_end"][name] = s
            print(f"  {w:13s} {name:20s} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]})")
        if traced is not None:
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        point["workloads"][w] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

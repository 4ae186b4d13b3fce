#!/usr/bin/env python3
"""jtc-bench entry point: builds the benchmark from source, runs one workload.

Usage (from the root of a checkout):

    python3 jtcbench/run.py --workload batch-interp|batch-jit|serve-mix \
        --seed N --seconds S --trace 0|1

The first run configures and builds jtcbench/ (the repository's src/
libraries, the jtc-fleet tool and the jtc-bench program) into
$CARGO_TARGET_DIR, or .bench_build when unset; later runs rebuild only
what changed. Build output goes to stderr.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list; the
script refuses to print a result whose metric names differ from that
list. Spans of a traced run are written to <build>/spans/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-interp", "batch-jit", "serve-mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"jtc-bench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds jtc-bench and jtc-fleet; returns the
    jtc-bench path, or None when the build failed."""
    bd = build_dir()
    if not (bd / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bd),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bd / "CMakeFiles", ignore_errors=True)
            (bd / "CMakeCache.txt").unlink(missing_ok=True)
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", str(bd), "--target", "jtc-bench", "jtc-fleet",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = bd / "jtc-bench"
    return exe if exe.exists() else None


def run_child(cmd, timeout):
    """Runs cmd in its own process group; on timeout kills the whole group
    (the fleet's shard processes included) and waits for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout} s")
        return None, 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return out, proc.returncode


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    exe = build()
    if exe is None:
        log("build failed")
        return 1
    log(f"build ready in {time.monotonic() - t0:.1f} s")

    spans = build_dir() / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(HERE / "reference.tsv"),
           "--spans", str(spans / f"{args.workload}-{args.seed}.json")]
    out, code = run_child(cmd, RUN_TIMEOUT_S)
    if out is None or code != 0:
        log(f"jtc-bench exited with {code}")
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    want = expected_metrics(args.trace)
    got = set(result["metrics"])
    if got != want:
        log(f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(want - got)}, unexpected {sorted(got - want)}")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

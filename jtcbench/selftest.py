#!/usr/bin/env python3
"""jtc-bench self-test: counter exactness and spec consistency.

Usage (from the root of a checkout):

    python3 jtcbench/selftest.py

Builds the benchmark like run.py does, then for every workload:

  - runs `jtc-bench --counters` twice with one seed and once with
    another; the deterministic per-program counters (instructions,
    hooks, block and trace dispatches, traces constructed, jit
    dispatches, code bytes, compile fallbacks, VmStats digest) must
    repeat exactly in all three, and the seed may change only the input
    order (batch pass order, serve request sequence);
  - checks that the counters' cold-session VmStats digests and
    instruction counts match reference.tsv.

It also checks that spec.json maps every per-layer metric of
BENCHMARK.json to the metrics and workloads it should move,
and that its serve ladder is the one jtc-bench runs.
Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def counters(exe, workload, seed):
    out = subprocess.run([str(exe), "--counters", "--workload", workload,
                          "--seed", str(seed)], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().split("\n")[-1])


def reference_rows():
    rows = {}
    for line in (run.HERE / "reference.tsv").read_text().splitlines():
        if line and not line.startswith("#"):
            name, _scale, instr, _out, _heap, stats = line.split("\t")
            rows.setdefault(name, []).append((int(instr), stats))
    return rows


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((run.HERE / "spec.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    names = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    for m in bench["per_layer"]:
        entry = spec["per_layer"].get(m["name"])
        check(entry is not None and set(entry["moves"]) <= names
              and set(entry["on"]) <= workloads,
              f"spec.json maps {m['name']}")

    exe = run.build()
    check(exe is not None, "build")
    if exe is None:
        return 1
    refs = reference_rows()
    for w in run.WORKLOADS:
        a, b, c = counters(exe, w, 1), counters(exe, w, 1), counters(exe, w, 2)
        check(a == b, f"{w}: counters and order repeat exactly for one seed")
        check(a["programs"] == c["programs"],
              f"{w}: another seed leaves every per-program counter unchanged")
        check(a["order"] != c["order"], f"{w}: another seed changes the order")
        if "ladder" in a:
            want = {k: spec["serve_ladder"][k] for k in a["ladder"]}
            check(a["ladder"] == want, f"{w}: spec.json describes the ladder")
        for name, p in a["programs"].items():
            check((p["instructions"], p["stats_digest"]) in refs.get(name, []),
                  f"{w}: {name} matches its reference row")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

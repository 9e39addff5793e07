#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
  * every metric name matches [A-Za-z0-9_.-]+ and the catalogue the
    program prints is the one BENCHMARK.json declares;
  * every workload, untraced and traced, emits exactly the catalogue's
    metrics with a correct result (one-second runs);
  * the seed changes the check-cold corpus and the edit-serve script, and
    the same seed reproduces them byte for byte.
Exits non-zero on the first failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = ["check-cold", "edit-serve", "dynamic"]


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def bench(binary, *args):
    p = subprocess.run([binary, *args], cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        fail(f"{' '.join(args)} exited {p.returncode}: {p.stderr.strip()}")
    return p.stdout


def catalogue(binary):
    cat = {"end_to_end": [], "per_layer": []}
    for line in bench(binary, "--list-metrics").splitlines():
        kind, name, unit = line.split()
        cat[kind].append(name)
    for name in cat["end_to_end"] + cat["per_layer"]:
        if not NAME.match(name):
            fail(f"metric name {name!r} does not match {NAME.pattern}")
    declared = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(declared):
        with open(declared) as f:
            spec = json.load(f)
        for kind in cat:
            names = [m["name"] for m in spec[kind]]
            if names != cat[kind]:
                fail(f"BENCHMARK.json {kind} differs from the program's: "
                     f"{sorted(set(names) ^ set(cat[kind]))}")
        if spec["paths"] != ["perfbench"]:
            fail("BENCHMARK.json paths changed")
    print(f"ok: {len(cat['end_to_end'])} end-to-end and "
          f"{len(cat['per_layer'])} per-layer metric names")
    return cat


def emitted(binary, cat):
    for wl in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            out = bench(binary, "--workload", wl, "--seed", "7", "--seconds", "1",
                        "--trace", trace, "--trace-out",
                        os.path.join(".bench_run", "selftest-trace.json"))
            result = json.loads(out.strip().splitlines()[-1])
            got = list(result["metrics"])
            if got != cat[kind]:
                fail(f"{wl} trace={trace}: metrics {sorted(set(got) ^ set(cat[kind]))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{wl} trace={trace}: result not correct: {result}")
            print(f"ok: {wl} trace={trace} emits all {len(got)} metrics, "
                  f"{result['attempted']} operations correct")


def seeded(binary):
    a = bench(binary, "--digest", "--seed", "1")
    b = bench(binary, "--digest", "--seed", "2")
    if a != bench(binary, "--digest", "--seed", "1"):
        fail("the same seed gave a different corpus or script")
    for la, lb in zip(a.splitlines(), b.splitlines()):
        if la == lb:
            fail(f"seeds 1 and 2 give the same {la.split()[0]}")
    print("ok: the seed changes the corpus and the edit script; "
          "the same seed reproduces them")


def main():
    binary = run.build()
    cat = catalogue(binary)
    seeded(binary)
    emitted(binary, cat)
    print("selftest: all passed")


if __name__ == "__main__":
    main()

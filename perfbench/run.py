#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) that depends on the repository's crates by path; it
is built here in release mode, offline, into $CARGO_TARGET_DIR (default:
.bench_build at the root). The binary's last output line is the result
object; before passing it on, this script checks it against BENCHMARK.json:
every metric the mode promises must be present, finite and in its unit.
Any build failure or malformed result exits non-zero without a result line.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BINARY = "clover-perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    if "--trace" not in args or args.index("--trace") + 1 >= len(args):
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    traced = args[args.index("--trace") + 1] == "1"
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(ROOT, "perfbench", "manifest.json")) as f:
            layer_map = json.load(f)["layer_map"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json or perfbench/manifest.json: {e}")
    mapped = {m["metric"] for m in layer_map}
    if mapped != {m["name"] for m in spec["per_layer"]}:
        fail("perfbench/manifest.json's layer_map and BENCHMARK.json's per_layer name different metrics")

    # Cargo resolves a relative target directory against its working
    # directory, which is the root here.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    binary = os.path.join(target, "release", BINARY)
    run = subprocess.run([binary] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited {run.returncode}")

    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("last output line is not a JSON result")
    promised = spec["per_layer" if traced else "end_to_end"]
    got = result.get("metrics", {})
    for m in promised:
        entry = got.get(m["name"])
        if entry is None:
            fail(f"metric {m['name']} missing")
        if entry.get("unit") != m["unit"]:
            fail(f"metric {m['name']} in {entry.get('unit')}, expected {m['unit']}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            fail(f"metric {m['name']} is not a finite number")
    extra = set(got) - {m["name"] for m in promised}
    if extra:
        fail(f"metrics not in BENCHMARK.json: {sorted(extra)}")

    print(run.stdout, end="")


if __name__ == "__main__":
    main()

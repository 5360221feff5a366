#!/usr/bin/env python3
"""Build and run the tuning benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `bintuner` worker binary and
the `perfbench` binary from the checkout's sources (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs one workload; the
binary's last stdout line is the JSON result. `--workload all` runs every
workload in turn and prints one table of every workload's metrics.
Build output goes to stderr. Exits non-zero if the sources are missing,
the build fails, or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["cold_inproc", "warm_retune", "farm_tune", "daemon_2tenant"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in [
        ("crates/bintuner/Cargo.toml", ["--bin", "bintuner"]),
        ("perfbench/Cargo.toml", []),
    ]:
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        rc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode
        if rc != 0:
            fail(f"build failed: {' '.join(cmd)}", rc)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ["crates/bintuner/Cargo.toml", "perfbench/Cargo.toml"]:
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found under {root}: run from a full checkout")
    target_dir = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    build(root, target_dir)

    bench_bin = os.path.join(target_dir, "release", "perfbench")
    common = [
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--worker-binary", os.path.join(target_dir, "release", "bintuner"),
        "--state-dir", ".bench_state",
    ]
    os.chdir(root)
    if args.workload != "all":
        os.execv(bench_bin, [bench_bin, "--workload", args.workload] + common)

    results = {}
    for w in WORKLOADS:
        proc = subprocess.run([bench_bin, "--workload", w] + common, stdout=subprocess.PIPE, text=True)
        sys.stderr.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[w] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        results[w]["exit"] = proc.returncode
    print(f"{'workload':<16} {'metric':<22} {'value':>14}  unit")
    for w, r in results.items():
        attempted, failed = r["attempted"], r["failed"]
        rate = failed / attempted if attempted else 1.0
        print(f"{w:<16} {'error_rate':<22} {rate:>14.6g}  ratio")
        for name, m in sorted(r["metrics"].items()):
            print(f"{w:<16} {name:<22} {m['value']:>14.6g}  {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    ok = all(r["correct"] and r["exit"] == 0 for r in results.values())
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

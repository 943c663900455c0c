#!/usr/bin/env python3
"""Build and run the zkperf benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it with every ZKPERF_* variable
removed from its environment, so the defaults are measured. The last line
of standard output is the result as one JSON object; it is printed only
when its metrics are exactly the ones BENCHMARK.json lists for the mode.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def commit_id():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/**/*")) + sorted(BENCH.glob("src/*")):
        if path.is_file() and path.suffix in (".rs", ".toml"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def run(cmd, timeout, **kw):
    """Runs `cmd` to completion, killing it if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}

    env = {k: v for k, v in os.environ.items() if not k.startswith("ZKPERF_")}
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed")

    code, out = run(
        [str(target / "release" / "zkperf-perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--commit", commit_id(), "--out", str(BENCH / "out")],
        RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if code != 0:
        fail(f"benchmark exited with {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("no result line")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(expected)}")
    print(lines[-1])


if __name__ == "__main__":
    main()

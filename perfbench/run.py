#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload engine-mix --seed 1 --seconds 10 --trace 0

The script builds cmd/klsmd and the perfbench program from the sources in
the current directory into .bench_build/ (or $CARGO_TARGET_DIR), with the Go
build cache and every other file the toolchain writes kept there too, then
runs the workload and prints its JSON result as the last line of standard
output. Progress and diagnostics go to standard error.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env(build):
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def build(root, build_dir, env):
    bins = os.path.join(build_dir, "bin")
    steps = [
        (root, ["go", "build", "-o", os.path.join(bins, "klsmd"), "./cmd/klsmd"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bins, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if res.returncode != 0:
            fail("build failed: %s" % " ".join(cmd))
    return os.path.join(bins, "klsmd"), os.path.join(bins, "perfbench")


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def check_result(line, spec, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(res))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != want:
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(got.items()), sorted(want.items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("go.mod", os.path.join("cmd", "klsmd"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            fail("%s not found: run from the root of a klsm source checkout" % need)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("reading BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = go_env(build_dir)
    klsmd, bench = build(root, build_dir, env)

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [bench, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-klsmd", klsmd, "-workdir", workdir]
    env["GOMAXPROCS"] = "2"
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        fail("workload did not finish within %ds" % RUN_TIMEOUT_S)
    stop_group(proc.pid)
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail("workload exited with status %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("workload printed no result")
    check_result(lines[-1], spec, args.trace == 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()

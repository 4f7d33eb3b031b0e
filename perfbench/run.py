#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload smallbank-closed --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout. The script builds
perfbench/perfbench.exe with dune, runs it, and checks that the last
line of its output is the JSON summary carrying exactly the metrics
BENCHMARK.json names for the mode (end_to_end for --trace 0, per_layer
for --trace 1). It exits non-zero, without a summary line of its own,
if the checkout is incomplete, the build fails, a correctness check
fails, or the run overruns.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd from the checkout root; kill and reap it on timeout or
    when this script is terminated."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)

    def stop(signum, _frame):
        proc.kill()
        proc.communicate()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("%s did not finish within %d s" % (cmd[0], timeout))
    return proc.returncode, out, err


def check_summary(line, expected):
    try:
        summary = json.loads(line)
    except ValueError:
        return "last line is not JSON: %r" % line[:200]
    if sorted(summary) != ["attempted", "correct", "failed", "metrics"]:
        return "summary keys %s" % sorted(summary)
    got = summary["metrics"]
    if sorted(got) != sorted(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            missing, extra)
    for name, unit in expected.items():
        m = got[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            return "metric %s: %r (expected unit %s)" % (name, m, unit)
    if not summary["correct"]:
        return "correctness check failed"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %s" % args.workload)
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("incomplete source checkout: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")

    code, _, _ = run([dune, "build", "--root", ".", "./perfbench/perfbench.exe"],
                     BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        die("build failed")

    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    env.pop("XENIC_DOMAINS", None)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))), "--out-dir", OUT_DIR]
    code, out, _ = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, env=env,
                       text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        print("perfbench: benchmark exited with code %d" % code, file=sys.stderr)
        sys.exit(1)
    lines = out.strip().splitlines()
    kind = "per_layer" if args.trace else "end_to_end"
    problem = check_summary(lines[-1] if lines else "",
                            {m["name"]: m["unit"] for m in spec[kind]})
    if problem:
        print("perfbench: " + problem, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""popsim's benchmark: build from source, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sims --seed 1 --seconds 20 --trace 0

builds perfbench (a Go module of its own, perfbench/go.mod) and popsimd
into .bench_build/, runs the workload in a fresh process, and relays its
stdout, whose last line is the JSON result. --trace 1 runs the traced
variant, which prints the per-layer metrics instead of the end-to-end ones.

    python3 perfbench/run.py --steady 10 [--workload W] [--seconds 20]

is the steadiness report: it runs each workload (or W) ten times, seeds
1..10, each in a fresh process, and prints every end-to-end metric's median
and quartile spread against its bound in BENCHMARK.json.

Everything the build and the runs write stays under .bench_build/ in the
repository root; the Go toolchain is the only thing read from outside it.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
WORKLOADS = ["paper-sims", "counts-consensus", "popsimd-jobs"]
RUN_LIMIT_S = 175  # every run must end within 180 s
BUILD_LIMIT_S = 850  # the first build in a checkout compiles the standard library


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    """Builds perfbench and popsimd from the checkout's sources."""
    for need in ("go.mod", os.path.join("cmd", "popsimd"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found under %s: run from the root of a popsim checkout" % (need, ROOT))
    env = go_env()
    for d in ("GOCACHE", "GOMODCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[d], exist_ok=True)
    os.makedirs(BIN, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "popsimd"), "./cmd/popsimd"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=cwd, env=env, timeout=BUILD_LIMIT_S,
                               stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e, 1)
        if r.returncode != 0:
            fail("build failed: %s" % " ".join(cmd), 1)


def run_once(workload, seed, seconds, trace, quiet=False):
    """Runs one workload in a fresh process; returns (exit code, stdout lines)."""
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [os.path.join(BIN, "perfbench"), "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace), "-root", ROOT,
           "-popsimd", os.path.join(BIN, "popsimd"),
           "-spans", os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    # A session of its own, so a timeout can stop the whole process group
    # (the benchmark and the popsimd it drives).
    p = subprocess.Popen(cmd, cwd=BUILD, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL if quiet else None,
                         start_new_session=True, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("%s seed %d did not finish within %d s" % (workload, seed, RUN_LIMIT_S), 1)
    # The benchmark stops its popsimd itself; this only reaps a server left
    # behind by a benchmark that crashed.
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return p.returncode, out.splitlines()


def parse_result(lines):
    """Checks the last stdout line is a well-formed result."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def single(args):
    build()
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    res = parse_result(lines)
    if res is None:
        fail("%s printed no result line" % args.workload, 1)
    for line in lines:
        print(line)
    sys.exit(code)


def steady(args):
    """Runs each workload K times and prints median and quartile spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    build()
    noisy = 0
    for wl in [args.workload] if args.workload else WORKLOADS:
        values = {}
        for seed in range(1, args.steady + 1):
            t0 = time.time()
            code, lines = run_once(wl, seed, args.seconds, 0, quiet=True)
            res = parse_result(lines)
            if code != 0 or res is None or not res["correct"]:
                fail("%s seed %d failed (exit %d)" % (wl, seed, code), 1)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %.0f s" % (wl, seed, time.time() - t0), file=sys.stderr)
        print("== %s: %d runs" % (wl, args.steady))
        for name in sorted(values):
            xs = values[name]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                noisy += not ok
                flag = "ok" if ok else "NOISY"
            print("   %-22s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.2f%%  bound %s  %s"
                  % (name, med, q1, q3, 100 * spread,
                     "-" if bound is None else "%.0f%%" % (100 * bound), flag))
    sys.exit(1 if noisy else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="K",
                    help="steadiness report over K runs per workload")
    args = ap.parse_args()
    if args.steady:
        if args.steady < 2:
            fail("--steady needs K >= 2")
        steady(args)
    if not args.workload:
        fail("--workload is required")
    single(args)


if __name__ == "__main__":
    main()

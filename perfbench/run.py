#!/usr/bin/env python3
"""Build the perfbench binary from source and run the benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --repeat 10 --workload rack_alltoall [--seed 1]

A normal run builds perfbench/ (a Go module that uses the simulator's
packages from the enclosing checkout) into the build directory and
replaces this process with it; its last output line is the JSON result.
Repeat mode runs the benchmark N times, each in fresh processes and
each with the next seed, and prints every metric's median,
quartiles and IQR/median, computed as statistics.quantiles(n=4) does,
and the same for the unscaled times (raw.*) of each run's info line.

Everything the build and the runs write stays in the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, under the checkout root.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def go_env(build):
    env = dict(os.environ)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    return env


def build(build, env):
    binary = os.path.join(build, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def arg(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def without(args, name, takes_value):
    out, skip = [], False
    for a in args:
        if skip:
            skip = False
        elif a == name:
            skip = takes_value
        else:
            out.append(a)
    return out


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return str(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return "10"


def repeat(args):
    n = int(arg(args, "--repeat"))
    rest = without(args, "--repeat", True)
    seed = int(arg(rest, "--seed", "1"))
    rest = without(rest, "--seed", True)
    if "--seconds" not in rest:
        rest += ["--seconds", default_seconds()]
    if "--trace" not in rest:
        rest += ["--trace", "0"]
    values, units, bad = {}, {}, 0
    for i in range(n):
        s = seed + i
        proc = subprocess.run([sys.executable, os.path.abspath(__file__)] + rest + ["--seed", str(s)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("run %d (seed %d) failed with exit code %d" % (i, s, proc.returncode), file=sys.stderr)
            bad += 1
            continue
        res = json.loads(lines[-1])
        if not res["correct"]:
            bad += 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        info = json.loads(lines[-2]).get("info", {}) if len(lines) > 1 else {}
        for name, v in (info.get("raw") or {}).items():
            values.setdefault("raw." + name, []).append(v)
            units["raw." + name] = "s"
        print("run %d seed %d: %s" % (i, s, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in sorted(res["metrics"].items()))), file=sys.stderr)
    summary = {}
    print("%-24s %6s %14s %14s %14s %10s" % ("metric", "n", "median", "q1", "q3", "iqr/med"))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": spread,
                         "unit": units[name], "n": len(v)}
        print("%-24s %6d %14.6g %14.6g %14.6g %9.2f%%" % (name, len(v), med, q1, q3, 100 * spread))
    print(json.dumps({"runs": n, "failed_runs": bad, "metrics": summary}))
    return 1 if bad else 0


def main():
    args = sys.argv[1:]
    if "--repeat" in args:
        sys.exit(repeat(args))
    b = build_dir()
    env = go_env(b)
    binary = build(b, env)
    os.chdir(ROOT)
    argv = [binary] + args + ["--outdir", os.path.join(b, "trace")]
    os.execve(binary, argv, env)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

The Go program is compiled into .bench_build/ with its build cache there
too, so the run reads and writes only inside the checkout. Every argument
is passed to the program; its standard output (ending with the JSON
result line) and exit code are passed through. A failed build exits 1
without printing a result, and so does a result line that lacks a metric
BENCHMARK.json names for the run's --trace mode.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_build")


def source_hash():
    """Digest of the Go sources and module files of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return r.stdout.strip() if r.returncode == 0 else ""


def trace_mode(args):
    """The --trace value among the program's arguments, as Go's flag
    package reads it: "--trace 1", "-trace 1" or "--trace=1"."""
    mode = "0"
    for i, a in enumerate(args):
        name, eq, val = a.lstrip("-").partition("=")
        if a.startswith("-") and name == "trace":
            mode = val if eq else (args[i + 1] if i + 1 < len(args) else mode)
    return mode


def missing_metrics(line, trace):
    """Names of the manifest's metrics for this --trace mode that the
    result line does not carry, with the unit the manifest gives."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["per_layer" if trace == "1" else "end_to_end"]
    try:
        got = json.loads(line)["metrics"]
    except (ValueError, KeyError, TypeError):
        return [m["name"] for m in want]
    return [m["name"] for m in want
            if m["name"] not in got or got[m["name"]].get("unit") != m["unit"]]


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOMODCACHE": os.path.join(OUT, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_SOURCE_HASH"] = source_hash()
    env["PERFBENCH_COMMIT"] = commit()
    sys.stdout.flush()
    p = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                       stdout=subprocess.PIPE, text=True)
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        return p.returncode
    missing = missing_metrics(lines[-1], trace_mode(sys.argv[1:]))
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: result lacks metrics " + ", ".join(missing), file=sys.stderr)
        return 1
    sys.stdout.write(p.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

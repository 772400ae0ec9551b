#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Build output goes to stderr; the binary's stdout, whose
last line is the JSON result, is passed through unchanged. A failed build,
e.g. in a directory without the repository's crates, exits non-zero
without printing a result. A traced run also writes its raw spans to
`<target dir>/perfbench-trace-<workload>.csv`.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Sources the benchmark builds from, hashed into the header's revision
# when no git metadata is available.
SOURCE_DIRS = ("crates", "shims", "src", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")
SOURCE_SUFFIXES = (".rs", ".toml", ".lock")


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(base, f) for f in files]
    for p in sorted(paths):
        if os.path.isfile(p) and p.endswith(SOURCE_SUFFIXES):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def revision():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    return source_digest()


def flag(args, name):
    """The value following `name` in `args`, or None."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    args = sys.argv[1:]
    if flag(args, "--trace") == "1":
        name = "perfbench-trace-%s.csv" % (flag(args, "--workload") or "run")
        args += ["--trace-out", os.path.join(target, name)]
    binary = os.path.join(target, "release", "perfbench")
    extra = ["--rustc", rustc.stdout.strip() or "unknown", "--rev", revision()]
    return subprocess.run([binary] + args + extra, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

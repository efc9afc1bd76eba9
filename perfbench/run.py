#!/usr/bin/env python3
"""Build the cluster benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload write-heavy --seed 1 --seconds 20 --trace 0

The Go program in this directory is a module of its own that imports the
repository's packages through a `replace` of the root module. It is built
into .bench_build/ (or $CARGO_TARGET_DIR when set) with the Go build cache
kept there too, so nothing is written outside the checkout. The binary is
rebuilt only when a Go source file or go.mod changes. Every argument is
passed through to the program; its exit code is this script's.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def source_digest(build_dir):
    """Hash every Go source and module file the binary is built from."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and os.path.join(dirpath, d) != build_dir
        )
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def build(build_dir):
    """Return the benchmark binary's path, building it when stale."""
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench-" + source_digest(build_dir))
    if os.path.exists(binary):
        return binary
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    partial = binary + ".partial"
    result = subprocess.run(
        ["go", "build", "-o", partial, "."], cwd=BENCH, env=env,
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(result.returncode or 1)
    os.replace(partial, binary)
    return binary


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    work = os.path.join(build_dir, "perfbench")
    proc = subprocess.run([binary, "--work", work] + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

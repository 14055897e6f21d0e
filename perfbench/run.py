#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload kv --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays inside the checkout: the Go
build cache, the binary, the on-disk backends and the span files all go
under the build directory ($CARGO_TARGET_DIR, else .bench_build). The
arguments are passed on to the benchmark; its exit code is returned.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """SHA-256 over the Go sources and module files outside the build dir."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(top, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTMPDIR=os.path.join(build, "tmp"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOTOOLCHAIN="local",
               GOPROXY="off",
               GOFLAGS="-mod=mod",
               GOWORK="off",
               CGO_ENABLED="0")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # The go command rebuilds only what changed, so a warm build is a
    # cache lookup; it must still run every time to pick up edits.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary,
            "--data", os.path.join(build, "data"),
            "--spans", os.path.join(build, "spans"),
            "--commit", commit(),
            "--source", source_digest()] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

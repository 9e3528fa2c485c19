#!/usr/bin/env python3
"""Build the pipeline benchmark and the rajaperf CLI from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload host-exec --seed 1 --seconds 15 --trace 0

Every argument is passed on to the harness (perfbench/main.go). Builds and
scratch outputs stay inside the checkout, under .bench_build/. The harness
prints its result as the last line of standard output; build output goes
to standard error.
"""
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # The go command's config and local telemetry live under the user
        # config directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "rajaperf"), "./cmd/rajaperf"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build failed: %s (in %s)" % (" ".join(cmd), cwd))


def source_identity():
    """Hash of the Go sources and module files: the checkout is not always
    a git repository, so this stands in for the commit."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s; run from a checkout of the repository" % ROOT)
    env = go_env()
    build(env)
    exe = os.path.join(BIN, "perfbench")
    args = [exe] + sys.argv[1:] + [
        "-rajaperf", os.path.join(BIN, "rajaperf"),
        "-workdir", os.path.join(BUILD, "perfbench"),
        "-commit", source_identity(),
    ]
    # A child process, not exec: the harness's resource usage must not
    # inherit the build's (ru_maxrss of reaped children feeds peak_rss_mb).
    proc = subprocess.Popen(args, env=env)
    signal.signal(signal.SIGTERM, lambda *_: proc.terminate())
    sys.exit(proc.wait())


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog-cold --seed 1 --seconds 30 --trace 0

The benchmark is the Go program in this directory (its own module,
which builds the repository's packages from ../ by a replace
directive). Every build and scratch file stays in .bench_build/ under
the current directory: the Go build cache, the binary, and the
benchmark's temporary result-cache directories. The last line of
standard output is the JSON result; build output goes to stderr.
"""

import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 178


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", "config"),
        XDG_CACHE_HOME=os.path.join(build, "home", "cache"),
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", ""), "bin", "go")
    exe = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([exe] + sys.argv[1:] + ["--tmp", tmp], env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the bulkdel end-to-end benchmark (perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload purge-heap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5
    python3 perfbench/run.py --smoke

The Go program is built from source into .bench_build/ at the repository
root, with the Go build cache, temporary files and home directory kept
there too, so the benchmark reads and writes nothing outside the checkout.
Every argument is passed through to the program; its exit code is ours.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "home", ".cache"),
    }
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env.update(dirs)
    env.update({
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed (the benchmark needs the repository's Go module at ..)",
              file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

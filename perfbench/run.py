#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout of the repository.  The benchmark is an
OCaml executable (perfbench/perfbench.exe) built with dune inside the
checkout; its standard output (last line: the JSON result) passes
through unchanged, and its exit code is returned.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "dune-project")) and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: no repository sources (dune-project, lib/) around %s" % root, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"  # keep every build artefact inside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/perfbench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    run = subprocess.run([exe] + sys.argv[1:], cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

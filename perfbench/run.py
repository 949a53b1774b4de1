#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark invocation.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --reference

Every argument is passed to the program. The program, the Go build cache
and everything a run writes live in the build directory: $CARGO_TARGET_DIR
when it is set, else .bench_build. The exit code is the program's; a build
failure exits non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_env(build_dir):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOMODCACHE": os.path.join(build_dir, "gomodcache"),
        "GOTMPDIR": os.path.join(build_dir, "gotmp"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
    })
    return env


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("run.py: no go command on PATH", file=sys.stderr)
        return 2
    env = build_env(build_dir)
    for d in ("gocache", "gomodcache", "gotmp"):
        os.makedirs(os.path.join(build_dir, d), exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if build.returncode != 0:
        print("run.py: building perfbench failed:\n" + build.stderr, file=sys.stderr)
        return 1
    args = [binary, "--workdir", build_dir, "--go", go] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

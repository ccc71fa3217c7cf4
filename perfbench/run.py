#!/usr/bin/env python3
"""Build the checkout, then run one perfbench workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

The build is `dune build` of the delphic CLI and the benchmark executable
(a no-op after the first run).  The benchmark then spawns the cluster from
`_build/default/bin/main.exe`, drives it and prints its result; the last line
of standard output is the JSON result.  Build output goes to standard error.
Exit status is the benchmark's own, or 2 when the checkout is incomplete.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BENCH = "_build/default/perfbench/bin/bench.exe"
NEEDED = ["dune-project", "bin/main.ml", "lib", "perfbench/dune-project", "perfbench/bin/bench.ml"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def source_id():
    """The git commit when the checkout is a git work tree, else a digest of lib/ and bin/."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def run_group(argv, timeout, **kwargs):
    """Run argv in its own process group; kill the whole group on timeout or signal."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    old = signal.signal(signal.SIGTERM, lambda *a: (kill_group(), sys.exit(143)))
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        proc.wait()
        print(f"perfbench: {argv[0]} exceeded {timeout} s", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, old)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("perfbench: not a delphic checkout (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "bin/main.exe", "perfbench/bin/bench.exe"]
    status = run_group(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status or 1

    argv = [BENCH, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--commit", source_id()] + extra
    sys.stdout.flush()
    return run_group(argv, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())

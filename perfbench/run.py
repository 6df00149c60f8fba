#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload offline-ssb --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark binary is built from source
in release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then run
with the same arguments; its standard output is passed through, so the last
line is the JSON result. Build output goes to standard error. Exits non-zero
without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "lpa-perfbench")
    # Fixed glibc malloc thresholds: with the adaptive defaults, whether
    # freed buffers go back to the kernel (and fault in again) flips from
    # process to process, which made set-up times bimodal.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    run = subprocess.run([binary] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

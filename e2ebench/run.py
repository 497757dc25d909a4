#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds T --trace 0|1

Configures and builds this directory's CMake project (which compiles the
repository's libraries from source) into .bench_build/e2ebench at the root
of the checkout, then runs agebo_bench with the arguments given. Build output
goes to stderr, and only when the build fails; the last line of stdout is the
benchmark's JSON result. Exits with agebo_bench's code, or 1 when the build
fails.
"""
import subprocess
import sys
from pathlib import Path


def main():
    here = Path(__file__).resolve().parent
    build = here.parent / ".bench_build" / "e2ebench"
    steps = []
    if not (build / "Makefile").exists():
        steps.append(["cmake", "-S", str(here), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "agebo_bench",
                  "-j", "4"])
    for step in steps:
        built = subprocess.run(step, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        if built.returncode != 0:
            sys.stderr.write(built.stdout)
            sys.stderr.write("error: building agebo_bench failed\n")
            return 1
    return subprocess.run([str(build / "agebo_bench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

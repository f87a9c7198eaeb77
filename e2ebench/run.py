#!/usr/bin/env python3
"""End-to-end SNIP benchmark: build snip_e2e, run one workload.

Usage (from the repository root):

  python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
  python3 e2ebench/run.py --selftest
  python3 e2ebench/run.py --workload serve_fp8kv ... --kv fp32   # reference

Workloads: train_snip75, train_fp8, serve_fp8kv (see e2ebench/README.md).

The first call configures and builds e2ebench/ (the library sources in
src/ plus the snip_e2e program) into .bench_build/ with CMake; later
calls only re-run the incremental build. Build output goes to stderr,
so snip_e2e's last stdout line -- one JSON object with "correct",
"attempted", "failed" and "metrics" -- stays the last line. A traced
run (--trace 1) also writes its spans as Chrome trace events to
.bench_build/spans_<workload>.json, readable with
tools/trace_report.py.

Exit status: snip_e2e's (0 = every output check passed), or 2 when
the build fails or the sources are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "snip_e2e")


def build():
    """Configure once, then build incrementally; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "train", "trainer.h")):
        print("run.py: library sources (src/) not found next to e2ebench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--parallel", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return os.path.isfile(EXE)


def main(argv):
    if not build():
        return 2
    args = list(argv)
    opts = dict(zip(args[::2], args[1::2]))
    workload = opts.get("--workload", "")
    if opts.get("--trace") == "1" and workload.replace("_", "").isalnum():
        args += ["--trace-out", os.path.join(BUILD, f"spans_{workload}.json")]
    sys.stdout.flush()
    # snip_e2e inherits stdout; this process only waits for it.
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

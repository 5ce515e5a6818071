#!/usr/bin/env python3
"""glmixer benchmark: CLI stage times on three workloads, per-layer traced timings.

Run from the repository root:

    python3 bench/run.py --workload reference --seed 1 --seconds 40 --trace 0

Without --workload every workload runs in turn. --trace 0 times each CLI
stage as a fresh ``python -m glmixer.cli`` process and prints the
end-to-end metrics; --trace 1 runs the same pipeline in-process, plain,
with spans around the calls into each glmixer module, and plain again,
and prints the per-layer metrics. Both check every output the program wrote
(see checks.py). The last line of standard output is one JSON object,
{"correct", "attempted", "failed", "metrics"}, or for several workloads
{"workloads": {name: that object}}. Run records, span files and logs go
to bench/_work/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOAD_NAMES = ("reference", "wide-student-t", "long-trace")


class Launcher:
    """Runs commands through spawn.py, started before this process loads
    numpy so that its resident size does not mask the children's peaks."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, env, cwd, log):
        """(wall seconds, peak RSS MB of the process tree, exit code, mean
        seconds of the speed probes timed just before and after it)."""
        self.proc.stdin.write(json.dumps({"argv": [str(a) for a in argv], "env": env,
                                          "cwd": str(cwd), "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["seconds"], reply["peak_mb"], reply["code"], sum(reply["probe"]) / 2

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "glmixer" / "cli.py").is_file():
        print(f"error: no glmixer sources under {SRC}", file=sys.stderr)
        return 2
    # Thread caps go into the environment before numpy loads its BLAS; CLI
    # children inherit them, so chain workers and BLAS share the CPUs
    # without oversubscribing them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    launcher = Launcher()
    try:
        sys.path.insert(0, str(SRC))
        import pipeline

        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            res = results[name] = pipeline.run_workload(
                name, args.seed, args.seconds, bool(args.trace), launcher)
            print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']}")
            for k, m in res["metrics"].items():
                print(f"  {k} = {m['value']:.6g} {m['unit']}")
    finally:
        launcher.close()
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

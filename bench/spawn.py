"""Child-process launcher for the benchmark.

Reads one JSON request per line on stdin ({"argv", "env", "cwd", "log"}),
runs the command to completion with its output appended to the log, and
answers one JSON line: {"seconds", "peak_mb", "code", "probe"}, where
"probe" holds the seconds of a fixed pure-Python loop timed just before
and just after the command. Linux reports in
ru_maxrss the larger of a child's own peak and the resident size of the
process that forked it, so commands are started from this small process
rather than from the benchmark, which holds numpy and scipy.
"""

import json
import os
import subprocess
import sys
import time


PROBE_LOOPS = 1_000_000
# The probe's typical time on the machine the reference figures come from
# (bench/README.md); normalized times are expressed at that speed.
PROBE_REFERENCE_S = 0.065


def probe() -> float:
    """Seconds for a fixed amount of interpreter work, which involves no
    glmixer code; the benchmark uses it to track the machine's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i & 7
    return time.perf_counter() - start


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        before = probe()
        with open(req["log"], "ab") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=fh, stderr=fh)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        after = probe()
        # ru_maxrss is in KiB and covers the child's reaped descendants too
        print(json.dumps({"seconds": seconds, "peak_mb": usage.ru_maxrss / 1024.0,
                          "code": proc.returncode, "probe": [before, after]}), flush=True)


if __name__ == "__main__":
    main()

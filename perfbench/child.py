"""Run one scarflab CLI operation in a fresh interpreter.

Usage: python3 -I perfbench/child.py ROOT TRACE OP_ID ARGV_JSON

Imports scarflab.cli from ROOT/src, calls `cli.main(argv)` with the process's
real stdout, and writes one JSON record as the last line of stderr: the
CLOCK_MONOTONIC times when the CLI was imported with argv built and when
main returned, main's duration, its exit code, any exception, the process's
peak RSS and, with TRACE 1, the aggregated spans of the call.  The parent
reads CLOCK_MONOTONIC before spawning, which on Linux is one clock for all
processes, so it can subtract across the process boundary.

Untraced operations also run a speed probe.  On a shared box the CPU speed
seen by one process can change by up to 2x from one tenth of a second to the
next, which swamps the differences a benchmark must resolve.  Every
PROBE_INTERVAL_S a SIGALRM handler times a fixed arithmetic loop in the main
thread, so it samples the speed of the core the operation runs on, while it
runs.  The record carries the handler's own time, to be subtracted, and the
mean speed relative to PROBE_REF_S, to scale the times to the reference speed.
"""

import json
import os
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.01
PROBE_LOOPS = 2000
# Duration of the probe loop, inside the handler, at the reference speed:
# about its median on a 2-vCPU x86_64 box running CPython 3.11.
PROBE_REF_S = 0.0002


class SpeedProbe:
    """SIGALRM handler that records how long the probe loop takes."""

    def __init__(self) -> None:
        self.durations: list[float] = []

    def __call__(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        self.durations.append(time.perf_counter() - start)

    def speed(self) -> float:
        """Mean speed relative to the reference; samples are evenly spaced in time."""
        if not self.durations:
            return 1.0
        return sum(PROBE_REF_S / d for d in self.durations) / len(self.durations)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    root, trace, op_id, argv_json = sys.argv[1:5]
    probe = None
    if trace == "0":
        probe = SpeedProbe()
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    sys.path.insert(0, os.path.join(root, "src"))
    from scarflab import cli

    argv = json.loads(argv_json)
    ready = _now()
    probe_setup_s = sum(probe.durations) if probe else 0.0
    recorder = None
    if trace == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        recorder = spans.Recorder(int(op_id))
        spans.install(recorder)
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # reported to the parent, which counts the operation failed
        code, error = None, repr(exc)
    main_s = time.perf_counter() - start
    end = _now()
    if probe:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    sys.stdout.flush()
    record = {
        "ready": ready,
        "end": end,
        "main_s": main_s,
        "exit": code,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_setup_s": probe_setup_s,
        "probe_main_s": sum(probe.durations) - probe_setup_s if probe else 0.0,
        "speed": probe.speed() if probe else 1.0,
        "layers": spans.aggregate(recorder.spans) if recorder else None,
    }
    sys.stderr.write("\n" + json.dumps(record) + "\n")


if __name__ == "__main__":
    main()

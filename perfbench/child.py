"""One relhomalg CLI command in a fresh interpreter, timed from inside.

    python3 perfbench/child.py RESULT.json TRACE -- <relhomalg arguments>

Writes RESULT.json with:
  ready        CLOCK_MONOTONIC after `import relhomalg.cli`; the parent
               compares it with its own reading taken before it started
               this process
  setup_factor host speed right after the import (hostspeed.speed_factor)
  wall         seconds in cli.main at reference host speed
  raw_wall     the same interval as measured
  exit, error, stdout, maxrss_kb, and with TRACE=1 the span summary.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main() -> None:
    out_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT.json TRACE -- ARGS...")
    import relhomalg.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import hostspeed

    factor = hostspeed.speed_factor()
    clock = hostspeed.CorrectedClock(factor)
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stdout = io.StringIO()
    error = None
    clock.start()
    start, raw_start = clock.now(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = relhomalg.cli.main(argv)
    except Exception:  # a crash is a result to report, not to hide
        code, error = None, traceback.format_exc()
    end, raw_end = clock.now(), time.perf_counter()
    clock.stop()
    result = {
        "ready": ready,
        "setup_factor": factor,
        "wall": end - start,
        "raw_wall": raw_end - raw_start,
        "exit": code,
        "error": error,
        "stdout": stdout.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # spans read perf_counter; scale them to reference speed like wall
        "trace": tracer.summary((end - start) / (raw_end - raw_start)) if tracer else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

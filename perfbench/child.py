"""One benchmark pass, run as a fresh interpreter:

    python3 child.py <timing.json> <trace 0|1> <cli argv...>

It imports `qstarlab.cli` the way the console script does, optionally
installs the span tracer, runs `main(argv)` and writes its timings (and
spans) to timing.json.  Times come from the system-wide monotonic clock,
so the parent can subtract its own spawn time.  The exit code is main's.
"""

import json
import resource
import sys
import time

import qstarlab.cli

t_imported = time.monotonic()


def _run() -> int:
    timing_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    code = qstarlab.cli.main(argv)
    t1 = time.monotonic()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    record = {"imported": t_imported, "main_start": t0, "main_end": t1,
              "cpu_s": cpu, "package": qstarlab.cli.__file__}
    if tracer is not None:
        record["trace"] = tracer.export()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(_run())

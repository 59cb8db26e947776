"""One cold circlelab process, timed from outside the program.

Usage: python3 child.py CONFIG_JSON [--trace]

Makes the calls ``circlelab.cli.main`` makes: import ``circlelab.cli``, run
the config through ``run_config``, serialize the envelope with
``canonical_json``. Writes one JSON header line (timings, peak RSS and,
with --trace, the span trace) followed by the envelope bytes.

Peak RSS is the process's own high-water mark, VmHWM in /proc/self/status.
The ru_maxrss that wait4 returns is not used: Linux carries the spawning
process's high-water mark into the child at exec, so it reads as the size
of run.py's own process whenever the child is smaller.
"""

import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import circlelab.cli as cli
    t1 = time.perf_counter()

    import json

    config = json.loads(sys.argv[1])
    tracer = None
    if "--trace" in sys.argv[2:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    _, report, _ = cli.run_config(config)
    t3 = time.perf_counter()
    envelope = cli.canonical_json({"version": cli.__version__,
                                   "config": config, "report": report})
    t4 = time.perf_counter()
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm_kb = int(next(line for line in fh
                          if line.startswith("VmHWM:")).split()[1])
    header = {"setup_s": t1 - t0, "run_config_s": t3 - t2,
              "canonical_json_s": t4 - t3, "peak_rss_mb": hwm_kb / 1024,
              "trace": tracer.dump() if tracer is not None else None}
    out = sys.stdout.buffer
    out.write(json.dumps(header).encode("ascii") + b"\n")
    out.write(envelope)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

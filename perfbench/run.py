"""Certified-sweep benchmark for circlelab.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each round of a workload runs one cold Python process per config (seven
for verify-all), one at a time, and times the process from spawn to exit.
Inside it ``child.py`` times the import of ``circlelab.cli`` (set-up), the
``run_config`` call and ``canonical_json``. Rounds repeat until ``--seconds``
have passed; metrics are medians over rounds. Gated times are corrected
for the host's momentary speed, which ``reference_s`` measures around each
round; the uncorrected medians are printed beside them. Every process's
output is checked (see ``workloads.py``); a process that exits non-zero or
fails a check counts as failed.

With ``--trace 1`` the run alternates untraced and traced rounds, reports
per-layer numbers from the traced ones (``tracer.py``), the tracing
overhead, and, for the scans, a scaling series that is not gated. The
spans are written to ``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
# about the time of reference_s() on the machine the benchmark was defined
# on (a 2-vCPU VM, Python 3.11), so corrected times read as seconds there
REFERENCE_S = 0.045

END_TO_END = (
    ("wall_s", "s"),
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decided_frac", "ratio"),
)
PER_LAYER = (
    ("sequences.ratio_calls", "count"),
    ("sequences.decompose_calls", "count"),
    ("sequences.decompose_self_s", "s"),
    ("circle.digit_calls", "count"),
    ("circle.digit_self_s", "s"),
    ("circle.digits_per_block", "digit/block"),
    ("circle.band_verdict_calls", "count"),
    ("circle.band_verdict_self_s", "s"),
    ("circle.interval_calls", "count"),
    ("circle.interval_self_s", "s"),
    ("circle.parse_point_s", "s"),
    ("density.contains_calls", "count"),
    ("density.contains_self_s", "s"),
    ("density.lift_s", "s"),
    ("membership.scan_self_s", "s"),
    ("membership.decided_ratio", "ratio"),
    ("witness.partition_s", "s"),
    ("witness.bad_intervals_s", "s"),
    ("witness.certify_self_s", "s"),
    ("witness.to_report_s", "s"),
    ("classify.recursion_s", "s"),
    *((f"suites.{tag}_s", "s") for tag in workloads.SUITE_TAGS),
    ("cli.run_config_s", "s"),
    ("cli.canonical_json_s", "s"),
    ("cli.envelope_bytes", "B"),
    ("trace.overhead_s", "s"),
)
# reported beside the metrics, never gated
INFORMATIONAL = (("undecided_frac", "ratio"), ("failed_frac", "ratio"))
# the uncorrected medians behind the end-to-end times, never gated
RAW = (("wall_raw_s", "s"), ("rows_raw_per_s", "1/s"), ("setup_raw_s", "s"),
       ("reference_s", "s"))


def reference_s() -> float:
    """Time a fixed computation shaped like the sweep: the host's speed now.

    On a shared host the same cold process runs up to 60% slower for
    minutes at a time, in CPU time as well as wall time. This function,
    timed before and after every round, measures that speed. It rebuilds
    40-digit integer windows through a memoized ratio lookup, classifies
    rows against a band by integer comparison, and sums Fractions, as the
    certified sweep does. Any change to it changes every corrected time.
    """
    start = time.perf_counter()
    memo: dict[int, int] = {}
    inside = 0
    for k in range(1, 2000):
        num, den = 0, 1
        for j in range(k, k + 40):
            b = memo.get(j)
            if b is None:
                b = memo[j] = 3 + (j & 1)
            num = num * b + j % b
            den *= b
        for r in range(1, 30):
            p = r * num
            if (p - p // den * den) * 8 >= den:
                inside += 1
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(1, i)
    return time.perf_counter() - start


@dataclass
class Proc:
    """One cold process: its timings, peak RSS, report and check errors."""

    wall_s: float
    rss_mb: float = 0.0
    setup_s: float = 0.0
    run_config_s: float = 0.0
    envelope_bytes: int = 0
    trace: dict | None = None
    decided: int = 0
    rows: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class Round:
    procs: list[Proc]
    # reference time around the round / REFERENCE_S; above 1 on a slow host
    slowdown: float = 1.0

    @property
    def wall_s(self):
        return sum(p.wall_s for p in self.procs)

    @property
    def setup_s(self):
        return sum(p.setup_s for p in self.procs)

    @property
    def rows_per_s(self):
        busy = sum(p.run_config_s for p in self.procs)
        return sum(p.decided for p in self.procs) / busy if busy > 0 else 0.0

    @property
    def rss_mb(self):
        return max(p.rss_mb for p in self.procs)


class Bench:
    """Runs one workload at one seed and collects every process it starts."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool = False,
                 expected: dict | None = None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.expected = expected
        self.procs: list[Proc] = []
        # measured processes keep random hash seeds, so medians over rounds
        # average over the hash layouts a user's runs would get
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="random")

    def _spawn(self, argv: list[str]) -> tuple[bytes, float, int]:
        """Run argv to exit; (stdout, wall seconds, exit code)."""
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env,
                                cwd=self.root)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        return out, time.perf_counter() - start, proc.returncode

    def warm_up(self) -> None:
        """Byte-compile the package once so every timed import is alike."""
        self._spawn([sys.executable, "-c", "import circlelab.cli"])

    def run(self, config: dict, trace: bool = False) -> tuple[Proc, dict | None]:
        argv = [sys.executable, str(HERE / "child.py"), json.dumps(config)]
        if trace:
            argv.append("--trace")
        out, wall, code = self._spawn(argv)
        p = Proc(wall)
        self.procs.append(p)
        report = None
        head, _, envelope = out.partition(b"\n")
        if code != 0:
            p.errors.append(f"exit code {code}")
            return p, None
        try:
            header = json.loads(head)
            report = json.loads(envelope)["report"]
        except (ValueError, KeyError) as exc:
            p.errors.append(f"unreadable output: {exc}")
            return p, None
        p.setup_s = header["setup_s"]
        p.run_config_s = header["run_config_s"]
        p.rss_mb = header["peak_rss_mb"]
        p.envelope_bytes = len(envelope)
        p.trace = header["trace"]
        return p, report

    def run_checked(self, config: dict, trace: bool = False) -> Proc:
        p, report = self.run(config, trace)
        if report is not None:
            errors, p.decided, p.rows = workloads.check(
                self.workload, config, report, self.expected)
            p.errors.extend(errors)
        return p

    def round(self, trace: bool = False) -> Round:
        return Round([self.run_checked(c, trace)
                      for c in workloads.configs(self.workload, self.seed, self.tiny)])

    def oracle(self) -> None:
        """Row-by-row check of the first rows of a scan against the oracle."""
        if self.workload not in workloads.SCANS:
            return
        p, report = self.run(workloads.oracle_config(self.workload, self.seed))
        if report is not None:
            p.errors.extend(workloads.check_oracle(self.workload, self.seed, report))

    def scaling(self) -> list[dict]:
        """rows_per_s of single-horizon cold scans at growing N (not gated)."""
        if self.workload not in workloads.SCANS:
            return []
        s = workloads.SCANS[self.workload]
        series = []
        for N in (s.tiny_scaling if self.tiny else s.scaling):
            cfg = workloads.scan_config(self.workload,
                                        workloads.scan_eps(self.seed), (N,))
            p = self.run_checked(cfg)
            series.append({"N": N, "run_config_s": p.run_config_s,
                           "rows_per_s": p.decided / p.run_config_s
                           if p.run_config_s > 0 else 0.0})
        return series


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    decided = sum(p.decided for r in rounds for p in r.procs)
    rows = sum(p.rows for r in rounds for p in r.procs)
    return {
        "wall_s": _median([r.wall_s / r.slowdown for r in rounds]),
        "rows_per_s": _median([r.rows_per_s * r.slowdown for r in rounds]),
        "setup_s": _median([r.setup_s / r.slowdown for r in rounds]),
        "peak_rss_mb": _median([r.rss_mb for r in rounds]),
        "decided_frac": decided / rows if rows else 0.0,
    }


def raw_times(rounds: list[Round], refs: list[float]) -> dict[str, float]:
    """Medians without the host-speed correction."""
    return {
        "wall_raw_s": _median([r.wall_s for r in rounds]),
        "rows_raw_per_s": _median([r.rows_per_s for r in rounds]),
        "setup_raw_s": _median([r.setup_s for r in rounds]),
        "reference_s": _median(refs),
    }


def per_layer(untraced: list[Round], traced: list[Round]) -> tuple[dict, list[str]]:
    """Medians over traced rounds; counts must repeat exactly between rounds."""
    summaries = []
    for r in traced:
        s = tracer.summarize([p.trace for p in r.procs if p.trace is not None],
                              workloads.SUITE_TAGS)
        s["cli.envelope_bytes"] = sum(p.envelope_bytes for p in r.procs)
        summaries.append(s)
    errors = []
    out = {}
    for name in summaries[0]:
        values = [s[name] for s in summaries]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                errors.append(f"{name} differs between traced rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = _median(values)
    out["trace.overhead_s"] = (_median([r.wall_s for r in traced])
                               - _median([r.wall_s for r in untraced]))
    return out, errors


def source_lines(root: Path) -> int:
    return sum(len(f.read_bytes().splitlines())
               for f in sorted((root / "src" / "circlelab").rglob("*.py")))


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload; (metrics, informational fields)."""
    bench.warm_up()
    bench.oracle()
    deadline = time.perf_counter() + seconds
    info: dict = {}
    if not trace:
        rounds, refs = [], [reference_s()]
        while not rounds or time.perf_counter() < deadline:
            r = bench.round()
            refs.append(reference_s())
            r.slowdown = (refs[-2] + refs[-1]) / (2 * REFERENCE_S)
            rounds.append(r)
        metrics = end_to_end(rounds)
        info.update(raw_times(rounds, refs))
        info["rounds"] = len(rounds)
    else:
        info["scaling"] = bench.scaling()
        untraced, traced = [], []
        while not traced or time.perf_counter() < deadline:
            untraced.append(bench.round())
            traced.append(bench.round(trace=True))
        metrics, errors = per_layer(untraced, traced)
        if errors:
            traced[-1].procs[-1].errors.extend(errors)
        info["rounds"] = len(traced)
        write_trace(bench, traced, metrics)
    rows = sum(p.rows for p in bench.procs)
    decided = sum(p.decided for p in bench.procs)
    info["undecided_frac"] = (rows - decided) / rows if rows else 0.0
    failed = sum(1 for p in bench.procs if p.errors)
    info["failed_frac"] = failed / len(bench.procs)
    return metrics, info


def write_trace(bench: Bench, traced: list[Round], metrics: dict) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    doc = {"workload": bench.workload, "seed": bench.seed,
           "per_layer": metrics,
           "rounds": [[{"request": f"round{i}.proc{j}", "trace": p.trace}
                       for j, p in enumerate(r.procs)]
                      for i, r in enumerate(traced)]}
    path = out_dir / f"trace-{bench.workload}-seed{bench.seed}.json"
    path.write_text(json.dumps(doc))


def main(argv=None, *, tiny: bool = False, expected: dict | None = None) -> int:
    """Entry point. ``tiny`` shrinks the inputs and ``expected`` replaces the
    recorded seed-0 outputs; both exist for the benchmark's own smoke test."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "circlelab" / "cli.py").is_file():
        print(f"error: {root / 'src' / 'circlelab'} not found; nothing to measure",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, tiny, expected)
    metrics, info = measure(bench, args.seconds, bool(args.trace))

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {info['rounds']}  processes {len(bench.procs)}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:<14.6g} {unit}")
    for name, unit in INFORMATIONAL + (() if args.trace else RAW):
        print(f"  {name:32s} {info[name]:<14.6g} {unit}  (informational)")
    for p in bench.procs:
        for err in p.errors:
            print(f"  FAILED: {err}")
    info.update({"python": platform.python_version(), "nproc": os.cpu_count(),
                 "src_lines": source_lines(root)})
    print("info " + json.dumps(info))
    failed = sum(1 for p in bench.procs if p.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.procs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    # reference_s() runs in this process. Its speed varies by about 15% with
    # the hash seed's layout, so this process fixes the seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())

"""Span tracer that wraps circlelab's public functions from outside the program.

``Tracer.install`` replaces each target in ``TARGETS`` (and every alias of it
in the loaded ``circlelab`` modules) with a wrapper that records a span:
name, start, end, parent and the time covered by child spans. Calls made
once per row or per digit read (the hot targets) are aggregated per parent
span into one record of calls, total and child time, so a million-row scan
keeps a bounded trace. Everything stays in memory until ``dump``.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, span name, hot)
TARGETS = (
    ("sequences", "ArithSeq.ratio", "sequences.ratio", True),
    ("sequences", "DerivedSeq.decompose", "sequences.decompose", True),
    ("circle", "CirclePoint.digit", "circle.digit", True),
    ("circle", "EnclosureCache.band_verdict", "circle.band_verdict", True),
    ("circle", "EnclosureCache.interval", "circle.interval", True),
    ("circle", "parse_point", "circle.parse_point", False),
    ("density", "lift", "density.lift", False),
    ("membership", "statistical_scan", "membership.scan", False),
    ("witness", "nonmembership_partition", "witness.partition", False),
    ("witness", "bad_interval_family", "witness.bad_intervals", False),
    ("witness", "certify_nonmembership", "witness.certify", False),
    ("witness", "WitnessReport.to_report", "witness.to_report", False),
    ("classify", "witness_recursion", "classify.recursion", False),
    ("cli", "run_config", "cli.run_config", False),
    ("cli", "canonical_json", "cli.canonical_json", False),
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        # full span: [id, name, parent, start, end, child_s, nested]
        self.spans: list[list] = []
        # aggregate: [id, name, parent, calls, total_s, child_s]
        self.aggs: dict[tuple[int, str], list] = {}
        self.next_id = 1
        self.stack = [[0, 0.0]]  # frames: [span id, child time so far]
        self.blocks: set[int] = set()  # distinct k returned by decompose
        self.scan_rows = [0, 0]        # decided, attempted over outermost scans

    def _new_id(self) -> int:
        sid = self.next_id
        self.next_id += 1
        return sid

    def _wrap_hot(self, fn, name: str, on_return=None):
        stack, clock, aggs = self.stack, self.clock, self.aggs

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            rec = aggs.get((parent[0], name))
            if rec is None:
                rec = aggs[(parent[0], name)] = [self._new_id(), name,
                                                 parent[0], 0, 0.0, 0.0]
            frame = [rec[0], 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                rec[3] += 1
                rec[4] += dt
                rec[5] += frame[1]
                parent[1] += dt
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _wrap_full(self, fn, name: str, on_return=None):
        stack, clock, spans, t0 = self.stack, self.clock, self.spans, self.t0
        active = [0]  # calls of this target currently on the stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = [self._new_id(), name, parent[0], 0.0, 0.0, 0.0, active[0] > 0]
            spans.append(span)
            frame = [span[0], 0.0]
            stack.append(frame)
            active[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[0] -= 1
                stack.pop()
                span[3], span[4], span[5] = start - t0, end - t0, frame[1]
                parent[1] += end - start
            if on_return is not None and not span[6]:
                on_return(result)
            return result

        return wrapper

    def _on_decompose(self, result):
        self.blocks.add(result[0])

    def _on_scan(self, result):
        last = result.estimates[-1]
        self.scan_rows[0] += last.in_count + last.out_count
        self.scan_rows[1] += last.N

    def install(self) -> None:
        """Wrap every target; call after ``circlelab.cli`` is imported."""
        import circlelab
        from circlelab import density, suites

        modules = [m for n, m in sys.modules.items()
                   if n == "circlelab" or n.startswith("circlelab.")]
        hooks = {"sequences.decompose": self._on_decompose,
                 "membership.scan": self._on_scan}
        for mod_name, path, name, hot in TARGETS:
            owner = getattr(circlelab, mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrap = self._wrap_hot if hot else self._wrap_full
            wrapped = wrap(orig, name, hooks.get(name))
            setattr(owner, attr, wrapped)
            if not outer:
                _replace_aliases(modules, orig, wrapped)
        for cls in vars(density).values():
            if (isinstance(cls, type) and issubclass(cls, density.NatSet)
                    and "__contains__" in cls.__dict__):
                cls.__contains__ = self._wrap_hot(cls.__dict__["__contains__"],
                                                  "density.contains")
        for tag, fn in list(suites.SUITES.items()):
            wrapped = self._wrap_full(fn, f"suites.{tag}")
            suites.SUITES[tag] = wrapped
            _replace_aliases(modules, fn, wrapped)

    def dump(self) -> dict:
        """Plain-data copy of the trace for serialization."""
        return {"spans": self.spans, "aggregates": list(self.aggs.values()),
                "blocks": len(self.blocks), "scan_rows": self.scan_rows}


def _replace_aliases(modules, orig, wrapped) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def summarize(dumps: list[dict], suite_tags) -> dict[str, float]:
    """Per-layer numbers from the traces of one round's processes.

    ``*_calls`` count calls; ``*_self_s`` is self time; a plain ``*_s`` is
    inclusive time of the outermost calls (nested calls of the same target
    are not counted twice).
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    blocks = decided = attempted = 0
    for dump in dumps:
        for _, name, _, n, total, child in dump["aggregates"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + total - child
        for _, name, _, start, end, child, nested in dump["spans"]:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + end - start - child
            if not nested:
                incl_s[name] = incl_s.get(name, 0.0) + end - start
        blocks += dump["blocks"]
        decided += dump["scan_rows"][0]
        attempted += dump["scan_rows"][1]
    out = {
        "sequences.ratio_calls": calls.get("sequences.ratio", 0),
        "sequences.decompose_calls": calls.get("sequences.decompose", 0),
        "sequences.decompose_self_s": self_s.get("sequences.decompose", 0.0),
        "circle.digit_calls": calls.get("circle.digit", 0),
        "circle.digit_self_s": self_s.get("circle.digit", 0.0),
        "circle.digits_per_block": (calls.get("circle.digit", 0) / blocks
                                    if blocks else 0.0),
        "circle.band_verdict_calls": calls.get("circle.band_verdict", 0),
        "circle.band_verdict_self_s": self_s.get("circle.band_verdict", 0.0),
        "circle.interval_calls": calls.get("circle.interval", 0),
        "circle.interval_self_s": self_s.get("circle.interval", 0.0),
        "circle.parse_point_s": incl_s.get("circle.parse_point", 0.0),
        "density.contains_calls": calls.get("density.contains", 0),
        "density.contains_self_s": self_s.get("density.contains", 0.0),
        "density.lift_s": incl_s.get("density.lift", 0.0),
        "membership.scan_self_s": self_s.get("membership.scan", 0.0),
        "membership.decided_ratio": decided / attempted if attempted else 0.0,
        "witness.partition_s": incl_s.get("witness.partition", 0.0),
        "witness.bad_intervals_s": incl_s.get("witness.bad_intervals", 0.0),
        "witness.certify_self_s": self_s.get("witness.certify", 0.0),
        "witness.to_report_s": incl_s.get("witness.to_report", 0.0),
        "classify.recursion_s": incl_s.get("classify.recursion", 0.0),
    }
    for tag in suite_tags:
        out[f"suites.{tag}_s"] = incl_s.get(f"suites.{tag}", 0.0)
    out["cli.run_config_s"] = incl_s.get("cli.run_config", 0.0)
    out["cli.canonical_json_s"] = incl_s.get("cli.canonical_json", 0.0)
    return out

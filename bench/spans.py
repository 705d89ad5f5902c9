"""In-memory span tracing installed from the benchmark's side.

`install` wraps the public functions of the package's modules, everywhere
they are bound (a name imported with ``from .x import y`` is rebound in the
importing module too), plus a few methods at class level.  Each wrapped
call records a span ``(name, start, end, parent, op)``; spans stay in
memory and are written out when the run ends.  `csvio.format_value` runs
once per output cell, so its calls are tallied per parent span (count and
busy time) instead of stored one by one.

A span's self time is its duration minus the part of it covered by its
child spans and by tallied calls made directly from it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path
from time import perf_counter

PACKAGE = "beveridge_accounting"
MODULES = ("cli", "csvio", "series", "flows_two_state", "flows_three_state",
           "matching", "curve", "shift_decomposition", "efficiency", "simulate")
METHODS = (("matching", "MatchingEstimate", "p_values"),
           ("series", "MonthlySeries", "months"),
           ("curve", "ApproximationPoint", "from_series"),
           ("curve", "ThreeStateApproximationPoint", "from_panel"))
TALLIED = frozenset({"csvio.format_value"})


def _read_facts(args, kwargs, result):
    first = next(iter(result.values()))
    return {"rows": len(first), "bytes": Path(args[0]).stat().st_size}


def _rake_facts(args, kwargs, result):
    its = result[1].iterations
    done = its[its >= 0]
    return {"pairs": int(done.size), "sweeps": int(done.sum()),
            "max_sweeps": int(done.max()) if done.size else 0,
            "worst_residual": result[1].worst_residual}


def _swing_facts(args, kwargs, result):
    up = len(result.up_index)
    dropped = len(result.dropped_months)
    # computed, not counted: the first-crossing scan for a kept point visits
    # pairs 0..left, and for a dropped point all up - 1 pairs
    scans = int((result.pair_left + 1).sum()) + dropped * max(up - 1, 0)
    return {"down": len(result.down_index) + dropped, "up": up,
            "dropped": dropped, "scans": scans}


PROBES = {"csvio.read_panel": _read_facts,
          "flows_three_state.rake_transition_rates": _rake_facts,
          "shift_decomposition.build_swing_samples": _swing_facts}


class Tracer:
    """Span recorder; `op` is set by the caller before each measured op."""

    def __init__(self) -> None:
        self.spans: list = []      # (name, start, end, parent index, op)
        self.tallies: dict = {}    # (name, parent index, op) -> [calls, busy_s]
        self.facts: list = []      # (name, op, dict) from PROBES
        self.stack: list[int] = []
        self.op = -1
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, probe = self.spans, self.stack, PROBES.get(name)

        if name in TALLIED:
            tallies = self.tallies

            def tallied(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    key = (name, stack[-1] if stack else -1, self.op)
                    rec = tallies.get(key)
                    if rec is None:
                        rec = tallies[key] = [0, 0.0]
                    rec[0] += 1
                    rec[1] += perf_counter() - start
            return tallied

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if probe is not None:
                self.facts.append((name, self.op, probe(args, kwargs, result)))
            return result
        return traced

    def install(self) -> None:
        """Wrap every public function of MODULES and the METHODS."""
        replace = {}
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in [m for n, m in sys.modules.items()
                    if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
            raw = vars(cls)[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))
            self._undo.append((cls, meth, raw))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def dump(self) -> dict:
        """Plain-data form of everything recorded (for JSON)."""
        return {"spans": [list(s) for s in self.spans],
                "tallies": [[name, parent, op, calls, busy]
                            for (name, parent, op), (calls, busy)
                            in self.tallies.items()],
                "facts": [list(f) for f in self.facts]}


def self_times(spans: list, tallies: list) -> list[float]:
    """Self time of each span: duration minus the union of its children's
    intervals minus the busy time of calls tallied directly under it."""
    children: dict[int, list] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    tallied = [0.0] * len(spans)
    for name, parent, op, calls, busy in tallies:
        if parent >= 0:
            tallied[parent] += busy
    out = []
    for sid, (name, start, end, parent, op) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered - tallied[sid])
    return out


def check_self_time_arithmetic() -> None:
    """Self-time rules on a small synthetic tree; raises on any mismatch."""
    spans = [("root", 0.0, 10.0, -1, 0),
             ("a", 1.0, 4.0, 0, 0),      # overlaps b: union of a and b is 5
             ("b", 3.0, 6.0, 0, 0),
             ("a.leaf", 2.0, 3.0, 1, 0),
             ("c", 7.0, 8.0, 0, 0)]
    tallies = [("t", 0, 0, 3, 0.5)]
    want = [10.0 - 6.0 - 0.5, 2.0, 3.0, 1.0, 1.0]
    got = self_times(spans, tallies)
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        raise AssertionError(f"self-time arithmetic: got {got}, want {want}")


# ---------------------------------------------------------------------------
# Per-layer metrics from recorded spans
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.calls": "count",
    "csvio.read_s": "s", "csvio.rows_read": "count", "csvio.bytes_read": "bytes",
    "csvio.write_s": "s", "csvio.rows_written": "count",
    "series.moving_average_s": "s", "series.months_s": "s",
    "flows_two_state.build_s": "s",
    "flows_three_state.build_s": "s", "flows_three_state.rake_s": "s",
    "flows_three_state.month_pairs": "count", "flows_three_state.ipf_sweeps": "count",
    "flows_three_state.sweeps_per_pair_max": "count",
    "flows_three_state.worst_residual": "share",
    "matching.estimate_s": "s", "matching.pvalue_s": "s",
    "matching.pvalue_calls": "count", "matching.efficiency_path_s": "s",
    "curve.approx_point_s": "s", "curve.shifters_s": "s", "curve.loglinear_s": "s",
    "curve.three_state_loglinear_s": "s",
    "shift_decomposition.swing_s": "s", "shift_decomposition.down_points": "count",
    "shift_decomposition.up_points": "count",
    "shift_decomposition.pairs_dropped": "count",
    "shift_decomposition.bracket_scans": "count",
    "shift_decomposition.loglinear_s": "s", "shift_decomposition.orderings_s": "s",
    "efficiency.u_star_s": "s",
    "simulate.setup_s": "s",
    "trace.overhead_ratio": "ratio",
}

INCLUSIVE = {
    "csvio.read_s": ("csvio.read_panel",),
    "csvio.write_s": ("csvio.write_panel", "csvio.format_value"),
    "series.moving_average_s": ("series.moving_average",),
    "series.months_s": ("series.MonthlySeries.months",),
    "flows_two_state.build_s": ("flows_two_state.build_two_state_panel",),
    "flows_three_state.build_s": ("flows_three_state.build_three_state_panel",),
    "flows_three_state.rake_s": ("flows_three_state.rake_transition_rates",),
    "matching.estimate_s": ("matching.estimate_matching",),
    "matching.pvalue_s": ("matching.MatchingEstimate.p_values",),
    "matching.efficiency_path_s": ("matching.matching_efficiency_path",),
    "curve.approx_point_s": ("curve.ApproximationPoint.from_series",
                             "curve.ThreeStateApproximationPoint.from_panel"),
    "curve.shifters_s": ("curve.shifter_paths",),
    "curve.loglinear_s": ("curve.loglinear_vacancies",),
    "curve.three_state_loglinear_s": ("curve.three_state_loglinear",),
    "shift_decomposition.swing_s": ("shift_decomposition.build_swing_samples",),
    "shift_decomposition.loglinear_s":
        ("shift_decomposition.loglinear_shift_decomposition",),
    "shift_decomposition.orderings_s": ("shift_decomposition.all_orderings_report",),
    "efficiency.u_star_s": ("efficiency.efficient_unemployment",),
}


def layer_metrics(spans: list, tallies: list, facts: list, n_ops: int) -> dict:
    """Per-op layer metrics (time and work per op; shape counts per call)."""
    n_ops = max(n_ops, 1)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, parent, op in spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    for name, parent, op, n, b in tallies:
        busy[name] = busy.get(name, 0.0) + b
        calls[name] = calls.get(name, 0) + n

    out = {metric: sum(busy.get(n, 0.0) for n in names) / n_ops
           for metric, names in INCLUSIVE.items()}
    selfs = self_times(spans, tallies)
    in_cli = [name.startswith("cli.") for name, *_ in spans]
    out["cli.self_s"] = sum(s for s, c in zip(selfs, in_cli) if c) / n_ops
    library_calls = sum(1 for name, start, end, parent, op in spans
                        if parent >= 0 and in_cli[parent] and not name.startswith("cli."))
    library_calls += sum(n for name, parent, op, n, b in tallies
                         if parent >= 0 and in_cli[parent])
    out["cli.calls"] = library_calls / n_ops
    out["matching.pvalue_calls"] = calls.get("matching.MatchingEstimate.p_values", 0) / n_ops

    def fact(name: str) -> list[dict]:
        return [f for n, op, f in facts if n == name]

    reads = fact("csvio.read_panel")
    out["csvio.rows_read"] = sum(f["rows"] for f in reads) / n_ops
    out["csvio.bytes_read"] = sum(f["bytes"] for f in reads) / n_ops
    rakes = fact("flows_three_state.rake_transition_rates")
    out["flows_three_state.month_pairs"] = _mean(f["pairs"] for f in rakes)
    out["flows_three_state.ipf_sweeps"] = _mean(f["sweeps"] for f in rakes)
    out["flows_three_state.sweeps_per_pair_max"] = max(
        (f["max_sweeps"] for f in rakes), default=0)
    out["flows_three_state.worst_residual"] = max(
        (f["worst_residual"] for f in rakes), default=0.0)
    swings = fact("shift_decomposition.build_swing_samples")
    out["shift_decomposition.down_points"] = _mean(f["down"] for f in swings)
    out["shift_decomposition.up_points"] = _mean(f["up"] for f in swings)
    out["shift_decomposition.pairs_dropped"] = _mean(f["dropped"] for f in swings)
    out["shift_decomposition.bracket_scans"] = _mean(f["scans"] for f in swings)
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def merge(dumps: list[dict]) -> dict:
    """Concatenate dumps from separate processes, renumbering parents."""
    spans, tallies, facts = [], [], []
    for d in dumps:
        base = len(spans)
        spans += [(n, s, e, p + base if p >= 0 else -1, op) for n, s, e, p, op in d["spans"]]
        tallies += [(n, p + base if p >= 0 else -1, op, c, b)
                    for n, p, op, c, b in d["tallies"]]
        facts += [tuple(f) for f in d["facts"]]
    return {"spans": spans, "tallies": tallies, "facts": facts}


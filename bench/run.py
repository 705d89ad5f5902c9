#!/usr/bin/env python3
"""Benchmark for beveridge-accounting: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload rake-240 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A single-workload run generates its inputs from the seed and runs one
warm-up op, a few times over (the median is `setup_s`), then runs whole
cycles of the workload's ops, closed loop and one at a time.  The number of
cycles is `--seconds` over the workload's nominal cycle time (CYCLE_S), so
it depends on `--seconds` alone and every commit is measured on the same
ops.  Every op is checked (see checks.py).  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it runs half the cycles untraced and
half with spans installed (see spans.py) and reports the per-layer metrics.  The last
stdout line is the JSON result; the lines before it give each metric with
its unit and sample count.

`--workload all` runs every workload, traced and untraced, each in a fresh
process, prints every metric together with the machine and library
versions, and exits 1 if any op failed its checks.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits 2 before measuring.
"""

from __future__ import annotations

import os

# single-threaded numerics, also in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("cli-cold", "rake-240", "stress-24k")
# Nominal seconds of one cycle of each workload's ops.  A run measures
# round(--seconds / CYCLE_S) cycles: a constant, so that a faster program is
# measured on the same ops and op_tail_s stays at the same percentile.  At
# --seconds 30 every workload gets at least 21 ops (op_tail_s needs them)
# and an even number of each kind (so no op sits exactly at its kind's
# median); the runs then take about 30-40 s.
CYCLE_S = {"cli-cold": 5.0, "rake-240": 1.25, "stress-24k": 7.5}
# set up at least SETUP_MIN_REPEATS times and for at least SETUP_MIN_S, so a
# cheap setup is still a median of many samples
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
OP_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "months_per_s": "months/s", "op_p50_s": "s",
             "op_tail_s": "s", "peak_rss_mb": "MiB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its rank.

    Below 21 samples that percentile would fall under the median, so the
    median stands in.
    """
    n = len(times)
    if n < 21:
        return statistics.median(times), 50.0
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def op_times(records: list[dict]) -> tuple[float, float, float]:
    """op_p50_s and op_tail_s with every op kind weighted alike, and the
    tail's percentile.

    The mixed workloads cycle through op kinds whose times differ
    several-fold, so a pooled percentile would be whichever kind happens to
    sit at its rank.  Instead op_p50_s is the mean over op kinds of each
    kind's median, and op_tail_s scales it by the tail of each op's time
    over its own kind's median.  With a single op kind these are the plain
    median and tail.
    """
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["op"]].append(r["seconds"])
    medians = {kind: statistics.median(times) for kind, times in by_kind.items()}
    p50 = statistics.fmean(medians.values())
    ratio, rank = tail([r["seconds"] / medians[r["op"]] for r in records])
    return p50, p50 * ratio, rank


class Runner:
    """Runs one workload's ops in this process or as cold subprocesses."""

    def __init__(self, name: str, seed: int) -> None:
        t0 = perf_counter()
        import beveridge_accounting.cli as cli
        self.import_s = perf_counter() - t0
        import checks
        import spans
        import workloads
        self.cli, self.checks, self.spans, self.workloads = cli, checks, spans, workloads
        self.name, self.seed = name, seed
        self.workdir = WORK / name
        self.records: list[dict] = []    # one per measured op
        self.digests: dict[str, set] = {}
        self.child_dumps: list[dict] = []
        self.child_imports: list[float] = []

    def setup(self) -> tuple[list[float], list[float]]:
        """Generate inputs and run one untimed warm-up op, repeatedly; returns
        the setup times and the simulate-call times.  In cli-cold the warm-up
        op is a cold process too, which also keeps setup_s well above timer
        and scheduler jitter."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        setups, sims = [], []
        while len(setups) < SETUP_MAX_REPEATS and (
                len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_S):
            t0 = perf_counter()
            self.wl = self.workloads.build(self.name, self.seed, self.workdir / "in")
            self.run_op(self.wl.ops[0], tracer=None)   # measured ops report failures
            setups.append(perf_counter() - t0)
            sims.append(self.wl.simulate_s)
        if not self.wl.in_process:
            err = self.checks.consistent_input_error(self.wl.panels["three"].columns)
            if not err <= 1e-12:
                raise RuntimeError(f"generated three-state panel is not "
                                   f"stock-consistent ({err:.3e})")
        return setups, sims

    def run_op(self, op, tracer) -> dict:
        outdir = self.workdir / "out" / f"{op.command}-{op.fmt}"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [*op.argv, "--output-dir", str(outdir)]
        raked: dict | None = None
        if self.wl.in_process:
            raked, restore = self._capture_raking()
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an op that raises counts as failed
                code = f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = perf_counter() - t0
                restore()
            raked = raked or None
        else:
            spans_path = outdir.with_suffix(".spans.json")
            cmd = ([sys.executable, str(BENCH / "cli_child.py"), str(spans_path)]
                   if tracer is not None
                   else [sys.executable, "-m", "beveridge_accounting.cli"])
            t0 = perf_counter()
            try:
                proc = subprocess.run(cmd + argv, env=_child_env(), cwd=ROOT,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                      timeout=OP_TIMEOUT_S)
                code = proc.returncode if proc.returncode == 0 else \
                    f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
            except subprocess.TimeoutExpired:
                code = f"no exit within {OP_TIMEOUT_S} s"
            elapsed = perf_counter() - t0
            if tracer is not None and spans_path.exists():
                dump = json.loads(spans_path.read_text())
                op_id = len(self.records)
                for span in dump["spans"]:
                    span[4] = op_id
                for tally in dump["tallies"]:
                    tally[2] = op_id
                for fact in dump["facts"]:
                    fact[1] = op_id
                self.child_imports.append(dump["import_s"])
                self.child_dumps.append(dump)
        if code != 0:
            fails = [f"exit code {code}"]
        else:
            try:
                fails = self.checks.check_op(op, outdir, self.wl.panels[op.panel], raked)
            except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
                fails = [f"output check raised {type(exc).__name__}: {exc}"]
            self.digests.setdefault(f"{op.command}.{op.fmt}", set()).add(
                self.checks.digest(outdir))
        rows = 0
        manifest = outdir / "manifest.json"
        if manifest.exists():
            rows = sum(json.loads(manifest.read_text())["outputs"].values())
        return {"op": f"{op.command}.{op.fmt}", "seconds": elapsed,
                "months": op.months, "fails": fails, "rows_written": rows}

    def _capture_raking(self):
        """Hand the raked rates of an in-process three-state op to the checks."""
        cli = self.cli
        original = cli.build_three_state_panel
        raked: dict = {}

        def capture(*args, **kwargs):
            panel, report = original(*args, **kwargs)
            raked.update({n: getattr(panel, n).values for n in self.workloads.RATE_NAMES})
            return panel, report

        cli.build_three_state_panel = capture

        def restore():
            cli.build_three_state_panel = original
        return raked, restore

    def measure(self, cycles: int, tracer=None) -> list[dict]:
        """`cycles` whole cycles of the ops."""
        records = []
        for _ in range(cycles):
            for op in self.wl.ops:
                if tracer is not None:
                    tracer.op = len(self.records)
                rec = self.run_op(op, tracer)
                self.records.append(rec)
                records.append(rec)
                for msg in rec["fails"]:
                    print(f"# FAILED {rec['op']}: {msg}", file=sys.stderr)
        return records


def end_to_end(records: list[dict], setups: list[float], rss_mb: float) -> dict:
    p50_s, tail_s, rank = op_times(records)
    print(f"# op_tail_s is the {rank:.4g}th percentile of {len(records)} ops")
    return {"setup_s": statistics.median(setups),
            "months_per_s": (sum(r["months"] for r in records)
                             / sum(r["seconds"] for r in records)),
            "op_p50_s": p50_s,
            "op_tail_s": tail_s,
            "peak_rss_mb": rss_mb}


def _peak_rss_mb(in_process: bool) -> float:
    """High-water RSS of this process (in-process ops) or of the largest
    child (cold ops).  In-process that includes the interpreter, numpy and
    scipy, the generated panels and the output checks; the checks read
    column by column and leave the figure unchanged."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is KiB on Linux


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(name, seed)
    runner.spans.check_self_time_arithmetic()
    setups, sims = runner.setup()
    wl = runner.wl
    print(f"# machine: {machine()}")
    for key, p in wl.panels.items():
        print(f"# input {key}: {p.months} months, {p.bytes} bytes")

    cycles = max(1, round(seconds / CYCLE_S[name]))
    if not trace:
        records = runner.measure(cycles)
        metrics = end_to_end(records, setups, _peak_rss_mb(wl.in_process))
        counts = {m: len(records) for m in metrics}
        counts["setup_s"] = len(setups)
        units = E2E_UNITS
    else:
        plain = runner.measure(max(1, cycles // 2))
        tracer = runner.spans.Tracer()
        if wl.in_process:
            tracer.install()
        try:
            records = runner.measure(max(1, cycles - cycles // 2), tracer)
        finally:
            tracer.uninstall()
        dump = runner.spans.merge(runner.child_dumps) if runner.child_dumps \
            else runner.spans.merge([tracer.dump()])
        (runner.workdir / "spans.json").write_text(json.dumps(dump))
        metrics = runner.spans.layer_metrics(dump["spans"], dump["tallies"],
                                             dump["facts"], len(records))
        metrics["cli.import_s"] = (statistics.median(runner.child_imports)
                                   if runner.child_imports else runner.import_s)
        metrics["csvio.rows_written"] = sum(r["rows_written"] for r in records) / len(records)
        metrics["simulate.setup_s"] = statistics.median(sims)

        def rate(rs):
            return sum(r["months"] for r in rs) / sum(r["seconds"] for r in rs)
        metrics["trace.overhead_ratio"] = rate(records) / rate(plain)
        units = runner.spans.LAYER_UNITS
        counts = {m: len(records) for m in metrics}
        counts["simulate.setup_s"] = len(sims)
        counts["trace.overhead_ratio"] = len(plain) + len(records)
        counts["cli.import_s"] = len(runner.child_imports) or 1
        op_mean = sum(r["seconds"] for r in records) / len(records)
        print(f"# traced op mean {op_mean:.6g} s over {len(records)} ops")
        records = plain + records

    for sub in ("in", "out"):
        shutil.rmtree(runner.workdir / sub, ignore_errors=True)
    failed = sum(1 for r in records if r["fails"])
    for key, digests in sorted(runner.digests.items()):
        print(f"# sha256 {key}: {' '.join(sorted(digests))}")
    print(f"# error_rate {failed / len(records):.6g} ratio n={len(records)}")
    for metric in sorted(metrics):
        print(f"# {metric} {metrics[metric]:.6g} {units[metric]} n={counts[metric]}")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {m: {"value": float(v), "unit": units[m]}
                        for m, v in sorted(metrics.items())}}


def machine() -> str:
    import numpy
    import scipy
    return (f"{platform.platform()} {platform.machine()} cpus={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    any_failed = False
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: run failed (exit {proc.returncode})")
                any_failed = True
                continue
            result = json.loads(lines[-1])
            any_failed |= not result["correct"]
            print(f"== {name} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for line in lines[:-1]:
                print(f"   {line.lstrip('# ')}")
    return 1 if any_failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "beveridge_accounting" / "cli.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    # cold ops start from cached bytecode, as an installed package does: the
    # first import here writes it, and every child may read it
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

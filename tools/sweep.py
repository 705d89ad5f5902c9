"""Run the case table in two source trees and report every difference.

    python tools/sweep.py --tree PARENT --tree CHANGE

builds the inputs once with the first tree: the table's panels, and the
panels of the benchmark's three workloads at seeds 1-3 through that tree's
`bench/workloads.py`.  It then runs every case of `cases.CASES`, with the
sweep-only cases below, in each tree: one process per case, `python -m
beveridge_accounting.cli` with `PYTHONPATH=<tree>/src`.  It writes
`sweep.json` in the current directory, with each run's exit code, stderr and
the sha256 of each file it wrote.  Where a file differs, the report gives
the largest absolute and relative difference per column and the first row
that differs; manifests are compared key by key, and only the path keys may
differ.  It exits 1 if any run differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from cases import CASES, Case
from smoke import input_path, read_records, run_table

PATH_KEYS = {"config.input", "config.output_dir", "input.path"}
SEEDS = (1, 2, 3)
WORKLOADS = ("cli-cold", "rake-240", "stress-24k")


def sweep_cases() -> list[Case]:
    """Both simulate models at 240 and 24,000 months in CSV and JSON, every
    consumer command on their CSV panels in both formats at --smooth 1 and
    3, and a pinned point, moved swing bounds, robust errors and given
    windows on one panel."""
    two = ("", "--du-amplitude 0.001", "--noise 0.02 --seed 5", "--sigma-break-at 100",
           "--du-amplitude 0.001 --noise 0.02 --seed 5")
    three = ("--three-state", "--three-state --du-amplitude 0.001 --noise 0.02 --seed 5")
    table = []
    for k, flags in enumerate((*two, *three)):
        for horizon in (240, 24_000):
            panel = f"sweep-{k}-{horizon}"
            for fmt in ("csv", "json"):
                table.append(Case(panel + "-json" * (fmt == "json"),
                                  f"simulate --horizon {horizon} --format {fmt} {flags}"))
            commands = ("three-state",) if "--three-state" in flags else (
                "estimate", "shifters", "decompose", "efficiency")
            table += [Case(f"{panel}-{command}-{fmt}-{smooth}",
                           f"{command} --format {fmt} --smooth {smooth}", panel)
                      for command in commands for fmt in ("csv", "json") for smooth in (1, 3)]
    return table + [
        Case(f"sweep-{name}", argv, "sweep-4-240") for name, argv in (
            ("pinned-shifters", "shifters --u-bar 0.06 --s-bar 0.02 --sigma-bar 0.36"),
            ("pinned-decompose", "decompose --u-bar 0.06 --s-bar 0.02 --sigma-bar 0.36"),
            ("swing-moved", "decompose --down-start 2005-01 --down-end 2006-12 "
                            "--up-start 2007-01 --up-end 2008-12"),
            ("robust", "estimate --robust"),
            ("windows", "estimate --sample 2000-01:2009-12 --sample 2010-01:2019-12"))]


def bench_cases(tree: Path, inputs: Path) -> list[Case]:
    """Every op of the benchmark's workloads at each seed, on panels that
    the tree's `bench/workloads.py` writes under `inputs`."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads
    return [Case(f"bench-{name}-{seed}-{k}", " ".join(op.argv))
            for name in WORKLOADS for seed in SEEDS
            for k, op in enumerate(workloads.build(name, seed,
                                                   inputs / f"bench-{name}-{seed}").ops)]


def runner(tree: Path):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}

    def run(argv: list[str], cwd: Path) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-m", "beveridge_accounting.cli", *argv],
                              cwd=cwd, env=env, capture_output=True, text=True)
        return proc.returncode, proc.stderr
    return run


# ---------------------------------------------------------------------------
# The diff reporter
# ---------------------------------------------------------------------------

def _flat(tree: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _table(path: Path) -> list[dict] | None:
    """A written table as records, or None for a file that is not one."""
    records = read_records(path)
    return records if isinstance(records, list) and all(
        isinstance(r, dict) for r in records) else None


def _number(value) -> float | None:
    """A finite cell as a float, else None (a blank, a label or a month)."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def diff_table(a: list[dict], b: list[dict]) -> dict:
    """Per column that differs: the largest absolute difference and the
    largest relative one (to the larger magnitude) over cells that are
    numbers in both, and the first row (from 0) that differs."""
    columns = {}
    for row, (ra, rb) in enumerate(zip(a, b)):
        for name in dict.fromkeys([*ra, *rb]):
            va, vb = ra.get(name), rb.get(name)
            if va == vb:
                continue
            col = columns.setdefault(name, {"max_abs": None, "max_rel": None,
                                            "first_row": row})
            x, y = _number(va), _number(vb)
            if x is not None and y is not None:
                gap = abs(x - y)
                col["max_abs"] = max(col["max_abs"] or 0.0, gap)
                col["max_rel"] = max(col["max_rel"] or 0.0,
                                     gap and gap / max(abs(x), abs(y)))
    report = {"columns": columns}
    if len(a) != len(b):
        report["rows"] = [len(a), len(b)]
    return report


def diff_dirs(a: Path, b: Path) -> dict:
    """Each file of two output directories that differs: a manifest by its
    keys other than `PATH_KEYS`, a table by `diff_table`."""
    diffs = {}
    for name in sorted({p.name for d in (a, b) if d.exists() for p in d.iterdir()}):
        pa, pb = a / name, b / name
        if not (pa.exists() and pb.exists()):
            diffs[name] = {"only_in": 0 if pa.exists() else 1}
        elif pa.read_bytes() == pb.read_bytes():
            continue
        elif name == "manifest.json":
            ka, kb = (_flat(json.loads(p.read_text())) for p in (pa, pb))
            keys = {k: [ka.get(k), kb.get(k)] for k in sorted({*ka, *kb} - PATH_KEYS)
                    if ka.get(k) != kb.get(k)}
            if keys:
                diffs[name] = {"keys": keys}
        else:
            ra, rb = _table(pa), _table(pb)
            diffs[name] = (diff_table(ra, rb) if ra is not None and rb is not None
                           else {"bytes": "differ"})
    return diffs


def _sha256(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} if out.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, type=Path,
                        help="a source tree (give two; the first builds the inputs)")
    trees = [t.resolve() for t in parser.parse_args(argv).tree]
    if len(trees) != 2:
        parser.error("give --tree twice")
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        table = [*CASES, *sweep_cases(), *bench_cases(trees[0], inputs)]
        sources = {case.input for case in table}
        run_table([c for c in table if c.id in sources], inputs, runner(trees[0]))
        for case in table:  # each transformed input, before the trees run at once
            input_path(case, inputs)
        outs = [Path(tmp) / f"tree{k}" for k in (0, 1)]
        for out in outs:
            out.mkdir()
        with ThreadPoolExecutor(2) as pool:
            runs = list(pool.map(lambda k: run_table(table, outs[k], runner(trees[k]), inputs),
                                 (0, 1)))
        report = {}
        for case in table:
            pair = [r[case.id] for r in runs]
            diff = {key: [getattr(r, key) for r in pair] for key in ("code", "stderr")
                    if getattr(pair[0], key) != getattr(pair[1], key)}
            files = diff_dirs(pair[0].out, pair[1].out)
            if files:
                diff["files"] = files
            report[case.id] = {"argv": case.argv, "input": case.input,
                               "runs": [{"code": r.code, "stderr": r.stderr,
                                         "sha256": _sha256(r.out)} for r in pair],
                               **({"diff": diff} if diff else {})}
    differing = [k for k, v in report.items() if "diff" in v]
    wall = time.perf_counter() - started
    Path("sweep.json").write_text(json.dumps(
        {"trees": [str(t) for t in trees], "runs": 2 * len(table), "wall_s": round(wall, 1),
         "identical": not differing, "differing": differing, "cases": report},
        indent=2, allow_nan=False) + "\n")
    print(f"sweep: {len(table)} cases in each of 2 trees, {len(differing)} differ, "
          f"{wall:.0f} s; report in sweep.json")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

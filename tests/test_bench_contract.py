"""The names the benchmark's span tracer wraps and probes still exist.

`bench/spans.py` wraps the package's public functions by name, a few
methods through ``vars(cls)[meth]``, and reads facts from the results of
its probe targets; `bench/run.py` swaps ``cli.build_three_state_panel``.
A method or probe target pruned from the package would crash every traced
benchmark run, or silently drop its facts.  These tests install the tracer
in this process, run traced commands, and uninstall it; they only read
`bench/`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from beveridge_accounting import cli, flows_three_state

BENCH = Path(__file__).resolve().parent.parent / "bench"


def raw_methods(spans) -> list:
    """The METHODS as their class dicts hold them."""
    return [vars(getattr(importlib.import_module(f"{spans.PACKAGE}.{short}"), cls))
            .get(meth) for short, cls, meth in spans.METHODS]


@pytest.fixture(scope="module")
def spans():
    """bench/spans.py as a module, imported without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    quiet, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = quiet
    return module


def test_methods_exist_in_the_class_dict(spans):
    for (short, cls, meth), raw in zip(spans.METHODS, raw_methods(spans)):
        assert raw is not None, f"{short}.{cls}.{meth}"


def test_probe_targets_are_package_functions(spans):
    for name in spans.PROBES:
        short, attr = name.split(".")
        module = importlib.import_module(f"{spans.PACKAGE}.{short}")
        fn = vars(module).get(attr)
        assert callable(fn) and fn.__module__ == module.__name__, name


def test_run_swaps_the_cli_raking_entry():
    assert cli.build_three_state_panel is flows_three_state.build_three_state_panel


# per-layer metrics whose span names no function of the package has, so
# they read 0 on every run (ROADMAP item 1 lists them as stale names)
STALE = {"curve.loglinear_s", "series.months_s"}


def test_traced_commands_record_every_probe(spans, tmp_path):
    two, three = tmp_path / "two", tmp_path / "three"
    assert cli.main(["simulate", "--horizon", "240", "--du-amplitude", "0.001",
                     "--output-dir", str(two)]) == 0
    assert cli.main(["simulate", "--three-state", "--horizon", "240",
                     "--output-dir", str(three)]) == 0
    originals = raw_methods(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert not any(a is b for a, b in zip(raw_methods(spans), originals))
        argvs = (["estimate", "--input", str(two / "panel.csv")],
                 ["shifters", "--input", str(two / "panel.csv")],
                 ["decompose", "--input", str(two / "panel.csv")],
                 ["efficiency", "--input", str(two / "panel.csv"), "--smooth", "3"],
                 ["three-state", "--input", str(three / "panel.csv")])
        for op, argv in enumerate(argvs):
            tracer.op = op
            assert cli.main([*argv, "--output-dir", str(tmp_path / f"out{op}")]) == 0
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(raw_methods(spans), originals))

    assert {name for name, op, facts in tracer.facts} == set(spans.PROBES)
    metrics = spans.layer_metrics(tracer.spans, [], tracer.facts, len(argvs))
    assert metrics["csvio.rows_read"] == 240
    assert metrics["flows_three_state.month_pairs"] == 239
    assert metrics["shift_decomposition.down_points"] > 0
    # a kernel renamed or bypassed would leave its layer's time at zero
    assert {metric for metric in spans.INCLUSIVE if not metrics[metric] > 0} <= STALE

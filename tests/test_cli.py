import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import cases
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beveridge_accounting as ba
from beveridge_accounting import cli
from beveridge_accounting.cli import main

START_FLAGS = ["--start", "2000-01"]


def run(args):
    return main([str(a) for a in args])


def write_recession_csv(tmp_path, recession_sim) -> Path:
    path = tmp_path / "panel.csv"
    panel = recession_sim.panel
    ba.write_panel(path, {"u_rate": panel.U, "v_rate": panel.V,
                          "u_short": panel.U_short})
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def cell(row, name):
    return float(row[name]) if row[name] != "" else float("nan")


class TestSimulateCommand:
    def test_writes_panel_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = run(["simulate", "--output-dir", out, "--horizon", 24,
                    "--du-amplitude", 0.001, *START_FLAGS])
        assert code == 0
        rows = read_csv(out / "panel.csv")
        assert len(rows) == 24
        assert set(rows[0]) == {"date", "u_rate", "v_rate", "u_short"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"]["panel.csv"] == 24
        assert manifest["config"]["horizon"] == 24

    def test_deterministic_outputs(self, tmp_path):
        out = tmp_path / "out"
        args = ["simulate", "--output-dir", out, "--horizon", 36,
                "--noise", 0.01, "--seed", 7, "--du-amplitude", 0.001,
                *START_FLAGS]
        assert run(args) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(args) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_three_state_panel_schema(self, tmp_path):
        out = tmp_path / "out3"
        code = run(["simulate", "--output-dir", out, "--horizon", 24,
                    "--three-state", *START_FLAGS])
        assert code == 0
        rows = read_csv(out / "panel.csv")
        assert {"e_stock", "u_stock", "n_stock", "v_rate", "eu", "en", "ue",
                "un", "ne", "nu"} <= set(rows[0])

    def test_three_state_cycle_and_noise_panel_reads_back(self, tmp_path):
        # ue is solved to meet the cycle, so the rates reproduce the stocks
        # and raking leaves them as they are
        panel = tmp_path / "panel"
        assert run(["simulate", "--three-state", "--du-amplitude", 0.001, "--noise", 0.02,
                    "--seed", 5, "--horizon", 240, "--output-dir", panel]) == 0
        out = tmp_path / "out"
        assert run(["three-state", "--input", panel / "panel.csv", "--output-dir", out]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert notes["raking_months_adjusted"] == 0
        assert notes["raking_iterations"]["max"] == 0


class TestEstimateCommand:
    def test_recovers_planted_coefficients(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "est"
        code = run(["estimate", "--input", data, "--output-dir", out,
                    "--sample", "2000-01:2007-12"])
        assert code == 0
        rows = read_csv(out / "matching_estimates.csv")
        assert len(rows) == 1
        # pre-break months have planted sigma = 0.36 and alpha = 0.3
        assert cell(rows[0], "alpha") == pytest.approx(0.3, abs=1e-8)
        assert cell(rows[0], "ln_sigma_bar") == pytest.approx(math.log(0.36),
                                                              abs=1e-8)
        report = json.loads((out / "matching_estimates_report.json").read_text())
        assert report[0]["n_obs"] == int(cell(rows[0], "n_obs"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_n_obs_written_as_an_integer(self, tmp_path, recession_sim, fmt):
        # a count of months: 96, as in the report, never 96.0
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "est"
        assert run(["estimate", "--input", data, "--output-dir", out,
                    "--format", fmt]) == 0
        report = json.loads((out / "matching_estimates_report.json").read_text())
        want = [r["n_obs"] for r in report]
        assert want == [96, 83] and all(type(n) is int for n in want)
        if fmt == "csv":
            assert [r["n_obs"] for r in read_csv(out / "matching_estimates.csv")] \
                == ["96", "83"]
        else:
            records = json.loads((out / "matching_estimates.json").read_text())
            got = [r["n_obs"] for r in records]
            assert got == want and all(type(n) is int for n in got)

    def test_default_split_produces_two_rows(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "est2"
        assert run(["estimate", "--input", data, "--output-dir", out]) == 0
        rows = read_csv(out / "matching_estimates.csv")
        assert [r["sample_start"] for r in rows] == ["2000-01", "2008-01"]

    def test_missing_column_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,u_rate\n2000-01,0.05\n2000-02,0.05\n")
        assert run(["estimate", "--input", bad,
                    "--output-dir", tmp_path / "x"]) == 3

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["estimate", "--input", tmp_path / "nope.csv",
                    "--output-dir", tmp_path / "x"]) == 3

    def test_quoted_cell_over_field_limit_is_data_error_with_its_line(self, tmp_path,
                                                                      capsys):
        big = tmp_path / "big.csv"
        big.write_text('date,u_rate,v_rate,u_short\n2000-01,"' + "9" * 140_001
                       + '",0.03,0.01\n')
        assert run(["estimate", "--input", big, "--output-dir", tmp_path / "x"]) == 3
        assert capsys.readouterr().err == (
            f"data error: {big}:2: field larger than field limit (131072)\n")

    def test_input_directory_is_data_error_naming_it(self, tmp_path, capsys):
        assert run(["estimate", "--input", tmp_path,
                    "--output-dir", tmp_path / "x"]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {tmp_path}: ")

    def test_output_dir_naming_a_file_is_config_error(self, tmp_path, recession_sim,
                                                      capsys):
        data = write_recession_csv(tmp_path, recession_sim)
        assert run(["estimate", "--input", data, "--output-dir", data]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: --output-dir {data}: not a directory\n")


class TestShiftersCommand:
    def test_zero_at_reference_month(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "sh"
        code = run(["shifters", "--input", data, "--output-dir", out,
                    "--reference", "2007-04"])
        assert code == 0
        rows = {r["date"]: r for r in read_csv(out / "shifters.csv")}
        ref = rows["2007-04"]
        for name in ("dynamics", "separations", "matching", "net"):
            assert cell(ref, name) == 0.0
        # net is the sum of the three shifters everywhere
        for r in rows.values():
            vals = [cell(r, n) for n in ("dynamics", "separations", "matching",
                                         "net")]
            if not any(math.isnan(v) for v in vals):
                assert vals[3] == pytest.approx(sum(vals[:3]), abs=1e-12)

    def test_point_override_used(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "sh2"
        code = run(["shifters", "--input", data, "--output-dir", out,
                    "--reference", "2007-04", "--u-bar", 0.068,
                    "--s-bar", 0.020, "--sigma-bar", 0.359])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["notes"]["s_bar"] == 0.020
        assert manifest["notes"]["approx_window"] == "overridden"


class TestDecomposeCommand:
    def test_orderings_sum_to_hundred(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "dec"
        code = run(["decompose", "--input", data, "--output-dir", out,
                    "--down-start", "2007-07", "--down-end", "2009-06",
                    "--up-start", "2010-01"])
        assert code == 0
        rows = read_csv(out / "orderings.csv")
        assert len(rows) == 6
        for r in rows:
            total = (cell(r, "dynamics_pct") + cell(r, "separations_pct")
                     + cell(r, "matching_pct"))
            assert total == pytest.approx(100.0, abs=1e-9)
        per_u = read_csv(out / "vertical_shift_loglinear.csv")
        assert {"month", "u_rate", "observed_shift", "total_loglinear",
                "dynamics", "separations", "matching"} == set(per_u[0])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["notes"]["n_pairs"] == len(per_u)

    def test_manifest_average_shift_is_in_levels(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "dec"
        assert run(["decompose", "--input", data, "--output-dir", out,
                    "--down-start", "2007-07", "--down-end", "2009-06",
                    "--up-start", "2010-01"]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert "average_observed_shift_log_points" not in notes

        # the observed vacancy-rate shift, upswing minus downswing, at each
        # matched pair the run kept
        panel = recession_sim.panel
        bounds = ba.SwingBounds(down_start=ba.MonthDate(2007, 7),
                                down_end=ba.MonthDate(2009, 6),
                                up_start=ba.MonthDate(2010, 1))
        samples = ba.build_swing_samples(panel.U, panel.V, bounds)
        up_v, down_v = samples.at_up(panel.V.values), samples.at_down(panel.V.values)
        left, lam = samples.pair_left, samples.pair_lam
        right = np.minimum(left + 1, len(up_v) - 1)
        up = up_v[left] + lam * (up_v[right] - up_v[left])
        dropped = set(notes["dropped_months"])
        kept = np.array([str(panel.U.start.shift(int(t))) not in dropped
                         for t in samples.down_index])
        assert kept.sum() == notes["n_pairs"] > 0
        want = float(np.mean((up - down_v)[kept]))
        assert notes["average_observed_shift_level"] == pytest.approx(want,
                                                                      rel=1e-12)

    def test_single_margin_fixture_gets_full_attribution(self, tmp_path):
        n = 40
        sigma_path = np.full(n, 0.36)
        sigma_path[20:] *= 0.75
        spec = ba.SimulationSpec(alpha=0.3, u0=0.06, horizon=n, s_path=0.02,
                                 sigma_path=sigma_path)
        sim = ba.simulate(spec)
        data = tmp_path / "single.csv"
        ba.write_panel(data, {"u_rate": sim.panel.U, "v_rate": sim.panel.V,
                              "u_short": sim.panel.U_short})
        out = tmp_path / "dec1"
        code = run(["decompose", "--input", data, "--output-dir", out,
                    "--down-start", "2000-06", "--down-end", "2000-11",
                    "--up-start", "2002-02", "--up-end", "2002-07",
                    "--u-bar", 0.06, "--s-bar", 0.02, "--sigma-bar", 0.36])
        assert code == 0
        for r in read_csv(out / "orderings.csv"):
            assert cell(r, "matching_pct") == pytest.approx(100.0, abs=1e-9)
            assert cell(r, "dynamics_pct") == pytest.approx(0.0, abs=1e-9)
            assert cell(r, "separations_pct") == pytest.approx(0.0, abs=1e-9)

    def test_loglinear_columns_are_shifts_of_the_shifters(self, tmp_path,
                                                          recession_sim):
        # both commands read one expansion: each log-linear contribution is
        # the up-down shift of the shifter column of the same name, at the
        # months decompose kept, on smoothed inputs
        data = write_recession_csv(tmp_path, recession_sim)
        swing = ["--down-start", "2007-07", "--down-end", "2009-06",
                 "--up-start", "2010-01"]
        for command in ("shifters", "decompose"):
            assert run([command, "--input", data, "--output-dir", tmp_path / command,
                        "--smooth", 3, *(swing if command == "decompose" else [])]) == 0
        shifters = read_csv(tmp_path / "shifters" / "shifters.csv")
        column = {name: np.array([cell(r, name) for r in shifters])
                  for name in ("u_rate", "log_v_observed", "dynamics", "separations",
                               "matching")}
        U = ba.MonthlySeries(ba.MonthDate.parse(shifters[0]["date"]), column["u_rate"])
        bounds = ba.SwingBounds(down_start=ba.MonthDate(2007, 7),
                                down_end=ba.MonthDate(2009, 6),
                                up_start=ba.MonthDate(2010, 1))
        samples = ba.build_swing_samples(
            U, U.with_values(np.exp(column["log_v_observed"])), bounds)
        rows = read_csv(tmp_path / "decompose" / "vertical_shift_loglinear.csv")
        position = {str(U.start.shift(int(t))): k
                    for k, t in enumerate(samples.down_index)}
        kept = [position[r["month"]] for r in rows]
        assert kept
        for name in ("dynamics", "separations", "matching"):
            got = np.array([cell(r, name) for r in rows])
            want = samples.vertical_shift(column[name])[kept]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14, err_msg=name)

    @pytest.mark.parametrize("up_start, dropped", [
        ("2010-01", []),
        # an upswing that starts below the downswing's last months: those
        # are not bracketable and are dropped
        ("2010-09", ["2009-04", "2009-05", "2009-06"])])
    def test_months_are_spelled_from_grid_indices(self, tmp_path, recession_sim,
                                                  up_start, dropped):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "dec"
        assert run(["decompose", "--input", data, "--output-dir", out,
                    "--down-start", "2007-07", "--down-end", "2009-06",
                    "--up-start", up_start]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]
        assert notes["dropped_months"] == dropped
        kept = [f"{y}-{m:02d}" for y in (2007, 2008, 2009) for m in range(1, 13)
                if "2007-07" <= f"{y}-{m:02d}" <= "2009-06"
                and f"{y}-{m:02d}" not in dropped]
        rows = read_csv(out / "vertical_shift_loglinear.csv")
        assert [r["month"] for r in rows] == kept
        assert notes["n_pairs"] == len(kept)

    def test_month_objects_do_not_grow_with_the_swing(self, tmp_path, monkeypatch):
        # months reach the outputs as grid indices: a decompose run builds
        # as many MonthDate objects on a 240-month downswing as on a
        # 12-month one of a panel as long
        built = []
        post_init = ba.MonthDate.__post_init__

        def counted(month):
            built.append(month)
            post_init(month)

        def month_dates(rise, n=740):
            du = np.zeros(n - 1)
            du[10:10 + rise] = 0.02 / rise  # U rises by two points
            du[10 + rise:10 + 3 * rise] = -0.01 / rise  # and falls back
            sim = ba.simulate(ba.SimulationSpec(
                alpha=0.3, u0=0.05, horizon=n, s_path=0.02, sigma_path=0.36,
                delta_u_path=du))
            data = tmp_path / f"rise-{rise}.csv"
            ba.write_panel(data, {"u_rate": sim.panel.U, "v_rate": sim.panel.V,
                                  "u_short": sim.panel.U_short})
            start, out = ba.MonthDate(2000, 1), tmp_path / f"dec-{rise}"
            argv = ["decompose", "--input", data, "--output-dir", out,
                    "--down-start", start.shift(10), "--down-end", start.shift(10 + rise),
                    "--up-start", start.shift(11 + rise),
                    "--up-end", start.shift(10 + 3 * rise)]
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(ba.MonthDate, "__post_init__", counted)
                assert run(argv) == 0
            notes = json.loads((out / "manifest.json").read_text())["notes"]
            return len(built), notes["n_pairs"]

        short, long = month_dates(12), month_dates(240)
        assert long[1] >= 10 * short[1]
        assert long[0] == short[0]


class TestSmoothingAndFormats:
    def test_smoothed_decompose_runs_and_echoes_config(self, tmp_path,
                                                       recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "sm"
        code = run(["decompose", "--input", data, "--output-dir", out,
                    "--smooth", 3, "--smooth-align", "centered",
                    "--down-start", "2007-07", "--down-end", "2009-06",
                    "--up-start", "2010-01"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["smooth"] == 3
        rows = read_csv(out / "orderings.csv")
        for r in rows:
            total = (cell(r, "dynamics_pct") + cell(r, "separations_pct")
                     + cell(r, "matching_pct"))
            assert total == pytest.approx(100.0, abs=1e-9)

    def test_trailing_alignment_changes_output(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        outs = {}
        for align in ("centered", "trailing"):
            out = tmp_path / align
            assert run(["shifters", "--input", data, "--output-dir", out,
                        "--smooth", 3, "--smooth-align", align,
                        "--reference", "2007-04"]) == 0
            rows = read_csv(out / "shifters.csv")
            outs[align] = [cell(r, "net") for r in rows]
        assert outs["centered"] != outs["trailing"]

    def test_decompose_json_format(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "dj"
        code = run(["decompose", "--input", data, "--output-dir", out,
                    "--format", "json",
                    "--down-start", "2007-07", "--down-end", "2009-06",
                    "--up-start", "2010-01"])
        assert code == 0
        orderings = json.loads((out / "orderings.json").read_text())
        assert len(orderings) == 6
        per_u = json.loads((out / "vertical_shift_loglinear.json").read_text())
        assert per_u[0]["month"].startswith("2007-")


class TestThreeStateCommand:
    def test_reduction_matches_two_state_numerics(self, tmp_path):
        # a pure two-state world written in both schemas
        n = 120
        du = 0.001 * np.sin(2 * np.pi * np.arange(n - 1) / 36)
        s_path = 0.02 * (1 + 0.1 * np.sin(2 * np.pi * np.arange(n) / 30))
        sigma_path = np.full(n, 0.36)
        sigma_path[60:] *= 0.8
        spec = ba.SimulationSpec(alpha=0.3, u0=0.06, horizon=n, s_path=s_path,
                                 sigma_path=sigma_path, delta_u_path=du)
        sim = ba.simulate(spec)
        panel = sim.panel

        two_csv = tmp_path / "two.csv"
        ba.write_panel(two_csv, {"u_rate": panel.U, "v_rate": panel.V,
                                 "u_short": panel.U_short})
        # the same world in the three-state schema: job finding is the
        # U-exit rate and separations the E-exit rate; stock-consistent by
        # construction, so raking only applies float-level adjustments
        zeros = panel.U.with_values(np.zeros(n))
        three_csv = tmp_path / "three.csv"
        ba.write_panel(three_csv, {
            "e_stock": panel.U.with_values(1 - panel.U.values),
            "u_stock": panel.U, "n_stock": zeros,
            "v_rate": panel.V,
            "eu": panel.s, "en": zeros, "ue": panel.f,
            "un": zeros, "ne": zeros, "nu": zeros})

        out2, out3 = tmp_path / "o2", tmp_path / "o3"
        window = ["--approx-window", "2000-06:2009-06",
                  "--reference", "2000-06"]
        assert run(["shifters", "--input", two_csv, "--output-dir", out2,
                    *window]) == 0
        assert run(["three-state", "--input", three_csv, "--output-dir", out3,
                    *window]) == 0

        rows2 = {r["date"]: r for r in read_csv(out2 / "shifters.csv")}
        rows3 = {r["date"]: r for r in
                 read_csv(out3 / "three_state_shifters.csv")}
        pairs = [("dynamics", "searcher_dynamics"),
                 ("separations", "separations"), ("matching", "matching"),
                 ("net", "net")]
        compared = 0
        for date, r2 in rows2.items():
            r3 = rows3[date]
            for n2, n3 in pairs:
                a, b = cell(r2, n2), cell(r3, n3)
                if math.isnan(a) or math.isnan(b):
                    continue
                # raking applies adjustments at its 1e-12 tolerance, which
                # the log transforms amplify by ~1/(alpha * rate)
                assert a == pytest.approx(b, abs=1e-9), (date, n2)
                compared += 1
        assert compared > 300

    def run_steady_three_state(self, tmp_path):
        path = write_steady_three_state_csv(tmp_path)
        out = tmp_path / "o"
        code = run(["three-state", "--input", path, "--output-dir", out,
                    "--approx-window", "2000-01:2004-10",
                    "--reference", "2000-03"])
        assert code == 0
        return json.loads((out / "manifest.json").read_text())["notes"]

    def test_raking_report_in_manifest(self, tmp_path):
        notes = self.run_steady_three_state(tmp_path)
        assert notes["raking_worst_residual"] < 1e-11
        assert notes["raking_max_adjustment"] < 1e-12

    def test_consistent_panel_reports_no_adjusted_months(self, tmp_path):
        # stock-consistent by construction: raking moves rates only by
        # rounding (~6e-17), which is below --rake-tol and counts as no change
        notes = self.run_steady_three_state(tmp_path)
        assert notes["raking_max_adjustment"] < 1e-12
        assert notes["raking_months_adjusted"] == 0

    def test_raking_statistics_in_manifest(self, tmp_path):
        from conftest import make_three_state_steady
        n = 60
        sim = make_three_state_steady(horizon=n)
        rng = np.random.default_rng(5)
        rates = {name: series.with_values(series.values
                                          * (1 + 1e-3 * rng.standard_normal(n)))
                 for name, series in sim.panel.rates().items()}
        path = tmp_path / "three.csv"
        ba.write_panel(path, {"e_stock": sim.panel.E, "u_stock": sim.panel.U,
                              "n_stock": sim.panel.N, "v_rate": sim.V, **rates})
        out = tmp_path / "o"
        assert run(["three-state", "--input", path, "--output-dir", out,
                    "--approx-window", "2000-01:2004-10",
                    "--reference", "2000-03"]) == 0
        notes = json.loads((out / "manifest.json").read_text())["notes"]

        cols = ba.read_panel(path)
        _, report = ba.build_three_state_panel(
            cols["e_stock"], cols["u_stock"], cols["n_stock"],
            {name: cols[name] for name in rates})
        steps = report.iterations
        assert notes["raking_iterations"] == {"min": int(steps.min()),
                                              "median": float(np.median(steps)),
                                              "max": int(steps.max())}
        # every noisy month-pair takes Newton steps, and some more than one
        assert notes["raking_iterations"]["min"] >= 1
        assert notes["raking_iterations"]["max"] > 1
        assert notes["raking_months_adjusted"] == n - 1


class TestEfficiencyCommand:
    def test_columns_and_ordering(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "eff"
        assert run(["efficiency", "--input", data, "--output-dir", out]) == 0
        rows = read_csv(out / "efficiency.csv")
        assert {"date", "u_rate", "u_star_ms", "u_star_steep", "gap_ms",
                "gap_steep"} == set(rows[0])
        for r in rows:
            assert cell(r, "u_star_steep") > cell(r, "u_star_ms")
            assert cell(r, "gap_ms") == pytest.approx(
                cell(r, "u_rate") - cell(r, "u_star_ms"), abs=1e-12)

    def test_json_format(self, tmp_path, recession_sim):
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "effj"
        assert run(["efficiency", "--input", data, "--output-dir", out,
                    "--format", "json"]) == 0
        records = json.loads((out / "efficiency.json").read_text())
        assert len(records) == 180
        assert records[0]["u_star_steep"] > records[0]["u_star_ms"]

    def test_steep_elasticity_that_underflows_u_to_the_eps(self, tmp_path,
                                                           recession_sim):
        # u^400 underflows to zero, which wrote u* = 0.0 in every row
        data = write_recession_csv(tmp_path, recession_sim)
        out = tmp_path / "eff"
        assert run(["efficiency", "--input", data, "--output-dir", out,
                    "--steep-elasticity", 400]) == 0
        for r in read_csv(out / "efficiency.csv"):
            if r["u_rate"]:
                # u* tends to u as the curve steepens
                assert cell(r, "u_star_steep") == pytest.approx(cell(r, "u_rate"), rel=0.1)


def steady_three_state_columns() -> dict:
    from conftest import make_three_state_steady
    sim = make_three_state_steady(horizon=60)
    return {"e_stock": sim.panel.E, "u_stock": sim.panel.U, "n_stock": sim.panel.N,
            "v_rate": sim.V, **sim.panel.rates()}


def write_steady_three_state_csv(tmp_path) -> Path:
    path = tmp_path / "three.csv"
    ba.write_panel(path, steady_three_state_columns())
    return path


def exit_code(args):
    """main's return code, or argparse's exit code for a rejected flag."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# Cases drawn from the flag table, `cli._FLAGS`
# ---------------------------------------------------------------------------

FLAG_NAMES = list(dict.fromkeys(flag.name for flag in cli._FLAGS))


def takes(command, name):
    return any(flag.name == name and command in flag.commands for flag in cli._FLAGS)


def reads(argv):
    """The attributes of the parsed namespace that running and writing
    `argv` reads, each at most once."""
    seen = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            seen.add(name)
            return super().__getattribute__(name)

    args = cli.build_parser().parse_args([str(a) for a in argv], namespace=Recorder())
    seen.clear()
    cli._write(args, *args.func(args))
    return seen


@pytest.fixture(scope="module")
def reads_by_command(tmp_path_factory, recession_sim):
    # runs that reach every flag the command takes: --smooth 3 for
    # --smooth-align, and a cycle and an efficiency break for their shape flags
    tmp = tmp_path_factory.mktemp("reads")
    panel = ["--input", write_recession_csv(tmp, recession_sim), "--smooth", 3]
    runs = {command: [[command, *panel]]
            for command in ("estimate", "shifters", "decompose", "efficiency")}
    runs["three-state"] = [["three-state", "--input", write_steady_three_state_csv(tmp),
                            "--smooth", 3, "--reference", "2002-01"]]
    runs["simulate"] = [["simulate", "--horizon", 24, "--du-amplitude", 0.001,
                         "--sigma-break-at", 3],
                        ["simulate", "--horizon", 24, "--three-state"]]
    return {command: set().union(*(reads([*argv, "--output-dir", tmp / f"out{k}"])
                                   for k, argv in enumerate(argvs)))
            for command, argvs in runs.items()}


@pytest.mark.parametrize("command, flag", [(command, name) for command in cli._COMMANDS
                                           for name in FLAG_NAMES])
def test_a_command_takes_exactly_the_flags_it_reads(tmp_path, capsys, reads_by_command,
                                                    command, flag):
    # a flag the table lists for a command is read by it; any other exits 2
    # as argparse's unrecognized argument, before any work
    if takes(command, flag):
        assert flag[2:].replace("-", "_") in reads_by_command[command]
        return
    out = tmp_path / "out"
    data = [] if command == "simulate" else ["--input", tmp_path / "absent.csv"]
    assert exit_code([command, *data, "--output-dir", out, flag, "1"]) == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} 1\n")
    assert not out.exists()


# a value away from the default of each flag that shapes the planted cycle
# or the efficiency noise, which both simulate models read
AWAY = {"--du-amplitude": 0.002, "--du-period": 12, "--noise": 0.02, "--seed": 5}


@pytest.mark.parametrize("three", [False, True], ids=["two-state", "three-state"])
@pytest.mark.parametrize("flag", list(AWAY))
def test_cycle_and_noise_flags_move_either_model(tmp_path, flag, three):
    # the runs have a cycle and noise, so --du-period and --seed show
    own = ["--du-amplitude", 0.001, "--noise", 0.01, *["--three-state"] * three]
    panels = []
    for name, extra in (("default", []), ("given", [flag, AWAY[flag]])):
        assert run(["simulate", "--horizon", 24, *own, *extra,
                    "--output-dir", tmp_path / name]) == 0
        panels.append((tmp_path / name / "panel.csv").read_bytes())
    assert panels[0] != panels[1]


def test_n0_is_read_with_three_state_and_refused_without(tmp_path, capsys):
    out = tmp_path / "refused"
    assert run(["simulate", "--horizon", 24, "--n0", 0.2, "--output-dir", out]) == 2
    assert capsys.readouterr().err == (
        "configuration error: --n0: three-state only, not read without --three-state\n")
    assert not out.exists()
    panels = []
    for name, extra in (("default", []), ("given", ["--n0", 0.2]), ("0.3", ["--n0", 0.3]),
                        ("near", ["--n0", 0.30000001])):
        assert run(["simulate", "--horizon", 24, "--three-state", *extra,
                    "--output-dir", tmp_path / name]) == 0
        panels.append((tmp_path / name / "panel.csv").read_bytes())
    # 0.3 is the default share, and the manifest echoes it either way
    assert panels[0] == panels[2] and len(set(panels)) == 3
    for name in ("default", "0.3"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config"]["n0"] == 0.3


EDGES = ("nan", "inf", "-inf", "0", "-0.0", "-1", "1", "5e-324", "1e-300", "1e308")
# the edge values each numeric domain admits
INSIDE = {"_positive_int": {"1"},
          "_non_negative_int": {"0", "1"},
          "_horizon": set(),
          "_positive_float": {"1", "5e-324", "1e-300", "1e308"},
          "_unit_interval": {"5e-324", "1e-300"},
          "_finite_float": {"0", "-0.0", "-1", "1", "5e-324", "1e-300", "1e308"},
          "_rake_tol": {"1", "1e308"}}
OUTSIDE = {**{kind: [*(e for e in EDGES if e not in inside), "abc"]
              for kind, inside in INSIDE.items()},
           "_month": ["2007-13", "0000-00", "abc"],
           "_window": ["2007-13:2008-01", "0000-00:2008-01", "2008-01:2007-12", "abc"]}


def kind(flag):
    return getattr(flag.kwargs.get("type"), "__name__", None)


def test_flags_with_no_domain_type():
    # text (paths), choices, switches, and simulate values checked after
    # parsing: --u0 and --n0 against the model, --sigma-break-at against
    # --horizon
    assert {flag.name for flag in cli._FLAGS if kind(flag) not in OUTSIDE} == {
        "--input", "--output-dir", "--format", "--smooth-align", "--robust",
        "--u0", "--n0", "--sigma-break-at", "--three-state"}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag.name, value) for flag in cli._FLAGS if kind(flag) in OUTSIDE
    for command in flag.commands for value in OUTSIDE[kind(flag)]])
def test_value_outside_the_flag_domain_exits_two_naming_it(tmp_path, capsys, command,
                                                           flag, value):
    out = tmp_path / "out"
    data = [] if command == "simulate" else ["--input", tmp_path / "absent.csv"]
    assert exit_code([command, *data, "--output-dir", out, f"{flag}={value}"]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"beveridge {command}: error: argument {flag}: ")
    # a value that is no number names its kind, not the private type
    assert not re.search(r"(?<![\w-])_\w", last), last
    assert not out.exists()


@pytest.mark.parametrize("command, flag", list(dict.fromkeys(
    (command, flag.name) for flag in cli._FLAGS for command in flag.commands)))
def test_a_prefix_of_a_flag_is_not_taken_for_it(tmp_path, capsys, command, flag):
    # flags are taken only as spelled in the table, so a new row cannot
    # make a prefix that worked ambiguous
    out = tmp_path / "out"
    data = [] if command == "simulate" else ["--input", tmp_path / "absent.csv"]
    assert exit_code([command, *data, "--output-dir", out, flag[:-1], "1"]) == 2
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {flag[:-1]} 1\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flags, first, last", [
    ("shifters", [], "2000-01", "2014-11"),
    ("shifters", ["--smooth", 3], "2000-02", "2014-10"),
    ("shifters", ["--smooth", 4], "2000-02", "2014-09"),
    ("shifters", ["--smooth", 4, "--smooth-align", "trailing"], "2000-04", "2014-11"),
    ("three-state", [], "2000-01", "2004-10"),
    ("three-state", ["--smooth", 3], "2000-02", "2004-09"),
    ("three-state", ["--smooth", 2, "--smooth-align", "trailing"], "2000-02", "2004-10"),
])
def test_reference_needs_a_dynamics_term(tmp_path, recession_sim, capsys, command,
                                         flags, first, last):
    # the first and last months that have one run; the months beyond exit 2
    # naming --reference and that range
    data = (write_steady_three_state_csv(tmp_path) if command == "three-state"
            else write_recession_csv(tmp_path, recession_sim))
    base = [command, "--input", data, *flags]
    if command == "three-state":
        base += ["--approx-window", "2000-06:2004-06"]
    for month in (first, last):
        assert run([*base, "--reference", month, "--output-dir", tmp_path / month]) == 0
    capsys.readouterr()
    smooth = flags[1] if flags else 1
    for month in (ba.MonthDate.parse(first).shift(-1), ba.MonthDate.parse(last).shift(1)):
        if month < ba.MonthDate(2000, 1):
            continue
        out = tmp_path / f"refused-{month}"
        assert run([*base, "--reference", month, "--output-dir", out]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: --reference {month} outside [{first}, {last}], "
            f"the months with a dynamics term at --smooth {smooth}\n")
        assert not out.exists()


@pytest.mark.parametrize("tol", ["1e-300", "1e-16", "2.2e-16"])
def test_rake_tol_below_machine_epsilon_exits_two_before_raking(tmp_path, capsys,
                                                                monkeypatch, tol):
    def never(*args, **kwargs):
        raise AssertionError("raked")

    monkeypatch.setattr("beveridge_accounting.cli.build_three_state_panel", never)
    out = tmp_path / "out"
    assert exit_code(["three-state", "--input", write_steady_three_state_csv(tmp_path),
                      "--rake-tol", tol, "--output-dir", out]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "beveridge three-state: error: argument --rake-tol: must be at least "
        f"2.220446049250313e-16 (float64 machine epsilon), got {float(tol)}")
    assert not out.exists()


def test_rake_tol_at_machine_epsilon_rakes_a_noisy_panel(tmp_path):
    # the case table's noisy panel (`cases.noisy`), so every month-pair
    # takes Newton steps
    assert run(["simulate", "--three-state", "--horizon", 240,
                "--output-dir", tmp_path / "sim"]) == 0
    path = tmp_path / "noisy.csv"
    path.write_text(cases.noisy((tmp_path / "sim" / "panel.csv").read_text()), newline="")
    out = tmp_path / "out"
    assert run(["three-state", "--input", path, "--rake-tol", repr(sys.float_info.epsilon),
                "--output-dir", out]) == 0
    notes = json.loads((out / "manifest.json").read_text())["notes"]
    assert notes["raking_worst_residual"] <= sys.float_info.epsilon
    assert notes["raking_iterations"]["max"] > 1


POINT_FLAGS = ["--u-bar", 0.06, "--s-bar", 0.02]


@pytest.mark.parametrize("command, message", [
    ("decompose", "implied V_0 must be positive and finite, got 0.0"),
    ("three-state", "implied V_0 must be positive and finite, got inf"),
], ids=["decompose", "three-state"])
def test_window_point_with_no_finite_vacancies_exits_three(tmp_path, recession_sim,
                                                           capsys, command, message):
    data = (write_steady_three_state_csv(tmp_path) if command == "three-state"
            else write_recession_csv(tmp_path, recession_sim))
    assert run([command, "--input", data, "--output-dir", tmp_path / "out",
                "--alpha", 1e-300]) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
# en is 0.02, so eu + en crosses raking's bound of 1 + 1e-12 in the band; a
# low efficiency or a deep cycle plants vacancy rates outside (0, 1), in
# any month, the last among them
@given(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                 st.floats(0.98 - 1e-11, 0.98 + 1e-11)),
       st.one_of(st.just(0.36), st.floats(0.0, 2.0, exclude_min=True)),
       st.one_of(st.just(0.0), st.floats(-0.01, 0.01)))
def test_simulated_three_state_panel_is_read_or_refused(s_bar, sigma_bar, du_amplitude):
    with tempfile.TemporaryDirectory() as tmp:
        panel = Path(tmp) / "panel"
        code = run(["simulate", "--three-state", "--s-bar", s_bar, "--sigma-bar", sigma_bar,
                    f"--du-amplitude={du_amplitude}", "--output-dir", panel])
        if code != 2:
            assert code == 0
            assert run(["three-state", "--input", panel / "panel.csv",
                        "--output-dir", Path(tmp) / "out"]) == 0


@pytest.mark.parametrize("flags", [["--u0", "1e-310"], ["--n0", "5e-324"]],
                         ids=["u0", "n0"])
def test_tiny_initial_share_with_flows_is_read(tmp_path, flags):
    panel = tmp_path / "panel"
    assert run(["simulate", "--three-state", "--horizon", 24, *flags,
                "--output-dir", panel]) == 0
    assert run(["three-state", "--input", panel / "panel.csv", "--reference", "2000-06",
                "--output-dir", tmp_path / "out"]) == 0


def test_swing_window_empty_for_missing_data_exits_three(tmp_path, recession_sim,
                                                         capsys):
    # the bounds are in order, but no downswing month has unemployment
    panel = recession_sim.panel
    u = panel.U.values.copy()
    u[panel.U.index_of(ba.MonthDate(2007, 4)):
      panel.U.index_of(ba.MonthDate(2009, 6)) + 1] = np.nan
    data = tmp_path / "panel.csv"
    ba.write_panel(data, {"u_rate": panel.U.with_values(u), "v_rate": panel.V,
                          "u_short": panel.U_short})
    assert run(["decompose", "--input", data, "--output-dir", tmp_path / "out",
                *POINT_FLAGS, "--sigma-bar", 0.36]) == 3
    assert capsys.readouterr().err == "data error: empty downswing sample\n"


def write_planted(path, columns, name, month, value) -> Path:
    """`columns` written to `path` with column `name` set to `value` in `month`."""
    vals = columns[name].values.copy()
    vals[columns[name].index_of(month)] = value
    ba.write_panel(path, {**columns, name: columns[name].with_values(vals)})
    return path


def two_state_columns(sim):
    return {"u_rate": sim.panel.U, "v_rate": sim.panel.V, "u_short": sim.panel.U_short}


PLANTED = ba.MonthDate(2003, 5)


def test_negative_rate_exits_three_before_any_newton_step(tmp_path, capsys,
                                                          monkeypatch):
    # it took 1,000 Newton steps and then read as a raking failure
    from beveridge_accounting import flows_three_state
    data = write_planted(tmp_path / "panel.csv", steady_three_state_columns(), "en",
                         PLANTED, -0.1)
    steps = []
    update = flows_three_state._newton_update
    monkeypatch.setattr(flows_three_state, "_newton_update",
                        lambda *a: steps.append(1) or update(*a))
    assert run(["three-state", "--input", data, "--output-dir", tmp_path / "out"]) == 3
    assert capsys.readouterr().err == (
        f"data error: month {PLANTED}: negative transition rate en: -0.1\n")
    assert steps == []


def test_nonpositive_finding_month_is_masked(tmp_path, recession_sim):
    # 2008-01 -> 2008-02 is a month of rising unemployment: with fewer
    # short-term unemployed in 2008-02 than the rise, f in 2008-01 is negative
    panel, month = recession_sim.panel, ba.MonthDate(2008, 1)
    t = panel.U.index_of(month)
    rise = panel.U.values[t + 1] - panel.U.values[t]
    clean = write_recession_csv(tmp_path, recession_sim)
    data = write_planted(tmp_path / "planted.csv", two_state_columns(recession_sim),
                         "u_short", month.shift(1), rise / 2)
    n_obs, notes = [], []
    for name, path in (("clean", clean), ("planted", data)):
        for command in ("estimate", "shifters"):
            out = tmp_path / f"{command}-{name}"  # f < 0 warns, and is masked
            assert run([command, "--input", path, "--output-dir", out]) == 0
            notes.append(json.loads((out / "manifest.json").read_text())["notes"])
        n_obs.append([int(r["n_obs"]) for r in
                      read_csv(tmp_path / f"estimate-{name}" / "matching_estimates.csv")])
    assert [n["nonpositive_finding_months_masked"] for n in notes] == [0, 0, 1, 1]
    # the month is left out of the post-2008 sample, and its sigma is missing
    assert n_obs[1] == [n_obs[0][0], n_obs[0][1] - 1]
    rows = {r["date"]: r for r in read_csv(tmp_path / "shifters-planted" / "shifters.csv")}
    assert rows[str(month)]["matching"] == ""
    assert rows[str(month.shift(-1))]["matching"] != ""
    assert rows[str(month.shift(1))]["matching"] != ""


def test_approximation_window_with_no_observed_month_exits_three(tmp_path, recession_sim,
                                                                 capsys):
    columns = two_state_columns(recession_sim)
    u = columns["u_rate"].values.copy()
    u[columns["u_rate"].index_of(ba.MonthDate(2003, 1)):
      columns["u_rate"].index_of(ba.MonthDate(2003, 6)) + 1] = np.nan
    data = tmp_path / "panel.csv"
    ba.write_panel(data, {**columns, "u_rate": columns["u_rate"].with_values(u)})
    out = tmp_path / "out"
    assert run(["shifters", "--input", data, "--approx-window", "2003-01:2003-06",
                "--output-dir", out]) == 3
    assert capsys.readouterr().err == (
        "data error: no jointly observed months in window [2003-01, 2003-06]\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("estimate", ["--sample", "2000-01:2007-12", "--sample", "2005-01:2014-12"]),
    ("shifters", []),
    ("decompose", ["--down-start", "2007-07", "--down-end", "2009-06",
                   "--up-start", "2010-01"]),
    ("three-state", ["--approx-window", "2000-01:2004-10", "--reference", "2000-03"]),
    ("efficiency", []),
])
def test_json_records_equal_csv_rows(tmp_path, recession_sim, command, flags):
    if command == "three-state":
        data = write_steady_three_state_csv(tmp_path)
    else:
        data = write_recession_csv(tmp_path, recession_sim)
    outs = {fmt: tmp_path / fmt for fmt in ("csv", "json")}
    for fmt, out in outs.items():
        assert run([command, "--input", data, "--output-dir", out,
                    "--format", fmt, "--smooth", 3, *flags]) == 0
    outputs = {fmt: json.loads((out / "manifest.json").read_text())["outputs"]
               for fmt, out in outs.items()}
    stems = [name[:-4] for name in outputs["csv"] if name.endswith(".csv")]
    assert stems
    missing = 0
    for stem in stems:
        rows = read_csv(outs["csv"] / f"{stem}.csv")
        records = json.loads((outs["json"] / f"{stem}.json").read_text())
        assert len(rows) == len(records) == outputs["csv"][f"{stem}.csv"] \
            == outputs["json"][f"{stem}.json"]
        for row, record in zip(rows, records):
            assert set(row) == set(record)
            for name, value in record.items():
                if value is None:
                    assert row[name] == ""
                    missing += 1
                elif isinstance(value, str):
                    assert row[name] == value
                else:
                    assert float(row[name]).hex() == float(value).hex()
    if command in ("shifters", "three-state", "efficiency"):
        assert missing > 0  # smoothing leaves the edge months missing


@pytest.mark.parametrize("command", ["shifters", "decompose"])
@pytest.mark.parametrize("panel", ["recession", "noisy"])
def test_point_pinned_at_the_window_means_writes_the_same_files(
        tmp_path, recession_sim, command, panel):
    # --u-bar, --s-bar and --sigma-bar at the manifest's own U_bar, s_bar and
    # sigma_bar: the flags and the window means build the same point
    if panel == "recession":
        data = write_recession_csv(tmp_path, recession_sim)
    else:
        assert run(["simulate", "--horizon", 240, "--du-amplitude", 0.0008,
                    "--noise", 0.02, "--seed", 5, "--sigma-break-at", 100,
                    "--output-dir", tmp_path / "sim"]) == 0
        data = tmp_path / "sim" / "panel.csv"
    base = [command, "--input", data, "--smooth", 3]
    assert run([*base, "--output-dir", tmp_path / "window"]) == 0
    notes = json.loads((tmp_path / "window" / "manifest.json").read_text())["notes"]
    assert run([*base, "--output-dir", tmp_path / "pinned",
                "--u-bar", repr(notes["U_bar"]), "--s-bar", repr(notes["s_bar"]),
                "--sigma-bar", repr(notes["sigma_bar"])]) == 0
    pinned = json.loads((tmp_path / "pinned" / "manifest.json").read_text())
    assert pinned["notes"]["approx_window"] == "overridden"
    assert pinned["notes"]["V_bar"] == notes["V_bar"]
    assert list(pinned["outputs"]) == list(
        json.loads((tmp_path / "window" / "manifest.json").read_text())["outputs"])
    for name in pinned["outputs"]:
        assert (tmp_path / "pinned" / name).read_bytes() \
            == (tmp_path / "window" / name).read_bytes(), name


def test_bad_month_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["shifters", "--input", "x.csv", "--output-dir", tmp_path,
             "--reference", "April 2007"])
    assert exc.value.code == 2


def test_cli_import_loads_no_scipy():
    # cold start is the import: the CLI needs numpy and nothing heavier
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import beveridge_accounting.cli, sys; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_commands_load_no_numpy_ma(tmp_path):
    # numpy.ma costs a cold process about 20 ms to import, and numpy loads
    # it lazily, on first use of a function such as np.unique
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = textwrap.dedent("""\
        import json, sys
        import numpy
        before = "numpy.ma" in sys.modules
        from beveridge_accounting.cli import main
        panel, panel3 = "panel/panel.csv", "panel3/panel.csv"
        runs = [["simulate", "--horizon", "240", "--du-amplitude", "0.001",
                 "--output-dir", "panel"],
                ["simulate", "--three-state", "--horizon", "240", "--output-dir", "panel3"],
                *([command, "--input", panel, "--format", fmt,
                   "--output-dir", f"{command}-{fmt}"]
                  for command in ("estimate", "shifters", "decompose", "efficiency")
                  for fmt in ("csv", "json")),
                ["three-state", "--input", panel3, "--output-dir", "three-state"]]
        loaded_by = None
        for argv in runs:
            assert main(argv) == 0, argv
            if loaded_by is None and "numpy.ma" in sys.modules:
                loaded_by = argv
        print(json.dumps({"before": before, "loaded_by": loaded_by}))
    """)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True, timeout=120)
    result = json.loads(out.stdout.splitlines()[-1])
    if result["before"]:
        pytest.skip("import numpy loads numpy.ma itself")
    assert result["loaded_by"] is None

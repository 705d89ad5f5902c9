"""The README's "Library sketch" runs as written on a simulated panel."""

import re
from pathlib import Path

import numpy as np

import beveridge_accounting as ba
from beveridge_accounting import MonthDate

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(tmp_path, monkeypatch):
    # 240 months from 2000-01 with a recession loop around the sketch's
    # default swing bounds: unemployment rises through 2009-06 and recovers
    n = 240
    du = np.zeros(n - 1)
    du[90:114] += 0.0012
    du[120:168] -= 0.0006
    sigma_path = np.full(n, 0.36)
    sigma_path[96:] *= 0.8
    sim = ba.simulate_two_state(ba.SimulationSpec(
        alpha=0.3, u0=0.055, horizon=n, s_path=0.02, sigma_path=sigma_path,
        delta_u_path=du, start=MonthDate(2000, 1)))
    ba.write_panel(tmp_path / "cps_jolts.csv", {"u_rate": sim.panel.U,
                                                "v_rate": sim.panel.V,
                                                "u_short": sim.panel.U_short})
    monkeypatch.chdir(tmp_path)

    scope: dict = {}
    exec(compile(library_sketch(), str(README), "exec"), scope)

    assert len(scope["panel"].U) == n
    assert abs(scope["est"].alpha - 0.3) < 1e-8  # planted, noise-free
    paths = scope["paths"]
    assert list(paths) == ["searcher_dynamics", "separations", "matching", "net"]
    ref = MonthDate(2007, 4)
    t = scope["panel"].U.index_of(ref)
    assert all(series.values[t] == 0.0 for series in paths.values())
    assert len(scope["loglin"].months) > 0
    assert len(scope["table"].rows) == 6

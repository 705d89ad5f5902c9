"""The CLI contract as one table of cases.

A case is one `beveridge` run: a command and its flags, an input, the exit
code and stderr it must give, and the files it must write.  The input is the
panel that an earlier simulate case wrote, optionally rewritten by one
transform (a respelling or a planted fault).  `tests/test_cases.py` runs the
table in process through `cli.main`, `tools/smoke.py` through the console
script and `tools/sweep.py` once per source tree; all three share
`smoke.run_table` and `smoke.check_case`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

# stderr's first words at each nonzero exit code (README, "Exit codes")
PREFIX = {2: "configuration error: ", 3: "data error: ", 4: "infeasible: "}

# the files each command writes, beside manifest.json: a name with no suffix
# takes the --format one
OUTPUTS = {"estimate": ("matching_estimates", "matching_estimates_report.json"),
           "shifters": ("shifters",), "decompose": ("vertical_shift_loglinear", "orderings"),
           "three-state": ("three_state_shifters",), "efficiency": ("efficiency",),
           "simulate": ("panel",)}


@dataclass(frozen=True)
class Case:
    """One run.  `input` is the id of the case whose panel.csv it reads,
    after `transform` where one is given; an `input` that names no case is
    a path where no file is, and "<id>/panel.csv" one under a file.
    `stderr` is what follows the exit code's prefix and is the whole of
    stderr; a line that starts with "beveridge " or "beveridge:" is
    argparse's, and only stderr's last line, after the usage text.
    "{input}" in it stands for the input path.
    `same_as` names a case whose output files this one must write byte for
    byte."""

    id: str
    argv: str
    input: str | None = None
    code: int = 0
    stderr: str = ""
    transform: Callable[[str], str] | None = None
    same_as: str | None = None

    @property
    def command(self) -> str:
        return self.argv.split()[0]

    @property
    def format(self) -> str:
        return "json" if "--format json" in self.argv else "csv"

    def files(self) -> set[str]:
        return {"manifest.json", *(name if "." in name else f"{name}.{self.format}"
                                   for name in OUTPUTS[self.command])}


# ---------------------------------------------------------------------------
# Transforms: each takes the text of a panel.csv and returns a new file's text
# ---------------------------------------------------------------------------

def quoted(text: str) -> str:
    """Every cell quoted, with CRLF line ends, which csv.reader parses."""
    return "".join(",".join(f'"{c}"' for c in line.split(",")) + "\r\n"
                   for line in text.splitlines())


def _exponent_lines(text: str) -> list[str]:
    header, *rows = text.splitlines()
    return [header, *(",".join([date, *("%.17e" % float(c) if c else "" for c in cells)])
                      for date, *cells in (row.split(",") for row in rows))]


def exponent_no_final_end(text: str) -> str:
    """Every value spelled %.17e, blanks kept blank, CRLF line ends and no
    final one, which read_panel reads with csv.reader."""
    return "\r\n".join(_exponent_lines(text))


def exponent(text: str) -> str:
    """Every value spelled %.17e with LF line ends, whose exponent cells
    read_panel hands to float."""
    return "\n".join(_exponent_lines(text)) + "\n"


def past_9999(text: str) -> str:
    """Two rows, 9999-12 and then a month YYYY-MM cannot spell."""
    header, first, second = text.splitlines()[:3]
    return "\n".join([header, "9999-12" + first[7:], "10000-01" + second[7:]]) + "\n"


def cell(column: str, months: str, value: str):
    """The panel with the cells of `column` spelled `value` in `months`, one
    month or a range "YYYY-MM:YYYY-MM"."""
    first, _, last = months.partition(":")

    def transform(text: str) -> str:
        header, *rows = text.splitlines()
        j = header.split(",").index(column)
        for k, row in enumerate(rows):
            if first <= row[:7] <= (last or first):
                cells = row.split(",")
                cells[j] = value
                rows[k] = ",".join(cells)
        return "\n".join([header, *rows]) + "\n"
    return transform


def drop(column: str):
    """The panel without `column`."""
    def transform(text: str) -> str:
        rows = [line.split(",") for line in text.splitlines()]
        j = rows[0].index(column)
        return "".join(",".join(row[:j] + row[j + 1:]) + "\n" for row in rows)
    return transform


def noisy(text: str) -> str:
    """0.1% seeded noise on the six rates of a three-state panel, so raking
    has to take steps."""
    rows = list(csv.DictReader(io.StringIO(text)))
    rng = np.random.default_rng(7)
    for name in ("eu", "en", "ue", "un", "ne", "nu"):
        noise = 1.0 + 1e-3 * rng.standard_normal(len(rows))
        for row, k in zip(rows, noise):
            row[name] = repr(float(row[name]) * float(k))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# The table, in run order: each panel precedes the cases that read it
# ---------------------------------------------------------------------------

def ident(argv: str) -> str:
    """A case id spelled from its command and flags."""
    return argv.replace(" --", "-").replace(" ", "-")


def refusals(code: int, rows) -> list[Case]:
    """A case per (argv, stderr) row, named by `ident`, reading the panel
    its command reads by default."""
    return [Case(ident(argv), argv, {"simulate": None, "three-state": "panel3"}.get(
        argv.split()[0], "panel"), code, stderr) for argv, stderr in rows]


def usage(argv: str, why: str) -> str:
    """argparse's last line for the value of the last flag of `argv`."""
    *_, flag, _ = argv.split()
    return f"beveridge {argv.split()[0]}: error: argument {flag}: {why}"


POSITIVE = "must be positive and finite, got "
FINITE = "must be finite, got "
UNIT = "must be in (0, 1), got "
EPS = "must be at least 2.220446049250313e-16 (float64 machine epsilon), got "
STAYERS = "month 2000-01: negative stayer probability in state 0: exit rates sum to "
PLANTED_V = "planted vacancy rate outside (0, 1) at 2000-01: "
V_0 = "implied V_0 must be positive and finite, got "
COSTS = ("beveridge_elasticity * (vacancy_cost / unemployment_cost) must be positive and "
         "finite, got ")
REFERENCE = "--reference {} outside [{}, {}], the months with a dynamics term at --smooth {}"
NO_DYNAMICS = "--reference {}: no month of the data has a dynamics term at --smooth {}"
SHORT = "{} is shorter than the 3 months estimation needs"
SHARES = {"u_rate": "unemployment rate", "v_rate": "vacancy rate",
          "u_short": "short-term unemployment"}
PLANTED = "2000-05"
NOISE = ("1e-13", "1e-11", "0.01")

CASES = (
    # the panels the other cases read
    Case("panel", "simulate --horizon 240 --du-amplitude 0.001"),
    Case("panel3", "simulate --three-state --horizon 240"),
    # a three-state cycle with efficiency noise: ue is solved to meet the
    # cycle, and three-state reads the panel back
    Case("panel3-cycle", "simulate --three-state --horizon 240 --du-amplitude 0.001 "
         "--noise 0.02 --seed 5"),
    Case("panel-60", "simulate --horizon 60 --du-amplitude 0.001"),  # ends before 2008-01
    Case("panel-2007-11", "simulate --horizon 240 --start 2007-11"),
    # steady panels with efficiency noise of these sizes: ln f takes one
    # value, and ln tightness spreads by about the noise
    *(Case(f"panel-noise-{noise}", f"simulate --horizon 120 --noise {noise} --seed 1")
      for noise in NOISE),
    # past the table writer's 1 MB row blocks and the float kernel's
    # 4,096-value blocks, so the checks read multi-block output in both
    # formats, the 10-column three-state table among it
    Case("panel-24k", "simulate --horizon 24000 --du-amplitude 0.001"),
    Case("panel3-24k", "simulate --three-state --horizon 24000"),
    Case("simulate-json", "simulate --horizon 24 --format json"),
    # a seeded panel with noise, written again byte for byte
    *(Case(name, "simulate --horizon 36 --noise 0.01 --seed 7 --du-amplitude 0.001",
           same_as=same) for name, same in (("panel-seeded", None),
                                            ("panel-seeded-again", "panel-seeded"))),
    # initial shares whose flows are tiny but do not round to zero
    *(Case(f"panel3-{flag}-{value}", f"simulate --three-state --horizon 24 --{flag} {value}")
      for flag, value in (("u0", "1e-310"), ("n0", "5e-324"))),
    # two, three and four months from 0000-01: none, one and, at --smooth 3,
    # none again has a three-state dynamics term
    *(Case(f"panel3-0000{suffix}", f"simulate --three-state --horizon {n} --start 0000-01")
      for suffix, n in (("", 2), ("-3", 3), ("-4", 4))),

    # runs that write their files
    Case("three-state-cycle", "three-state", "panel3-cycle"),
    Case("estimate", "estimate", "panel"),
    Case("estimate-json", "estimate --format json", "panel"),
    Case("estimate-one-window", "estimate", "panel-60"),
    *(Case(f"estimate-noise-{noise}", "estimate", f"panel-noise-{noise}") for noise in NOISE),
    Case("decompose", "decompose", "panel"),
    Case("decompose-json", "decompose --format json", "panel"),
    Case("shifters-json", "shifters --format json", "panel"),
    # the same panel respelled, which must give the same bytes
    *(Case(f"shifters-{respell.__name__}", "shifters --format json", "panel",
           transform=respell, same_as="shifters-json")
      for respell in (quoted, exponent_no_final_end, exponent)),
    Case("efficiency-json", "efficiency --format json", "panel"),
    # u^400 underflows to zero: u* is then computed in logs, not written as 0.0
    Case("efficiency-steep", "efficiency --steep-elasticity 400", "panel"),
    Case("three-state-json", "three-state --format json", "panel3"),
    Case("three-state-noisy", "three-state", "panel3", transform=noisy),
    *(Case(f"three-state-{panel}", "three-state --reference 2000-06", panel)
      for panel in ("panel3-u0-1e-310", "panel3-n0-5e-324")),
    Case("three-state-0000-one", "three-state --reference 0000-01", "panel3-0000-3"),
    *(Case(f"{command}-24k-{fmt}", f"{command} --format {fmt}",
           "panel3-24k" if command == "three-state" else "panel-24k")
      for fmt in ("csv", "json")
      for command in ("shifters", "efficiency", "decompose", "three-state")),

    # exit 2, configuration errors found after parsing
    *refusals(2, (
        # a path that leaves (0, 1) in its second step and overflows later,
        # with no overflow warning after the month
        ("simulate --horizon 240 --du-amplitude 1e308",
         "unemployment left (0, 1) at 2000-03: 1.3052619222005157e+307"),
        # a panel raking would reject, and a planted vacancy rate that
        # overflows or leaves (0, 1), in either model, with no warning; at
        # alpha 1/2 the identity's powers are a square root and a square,
        # which IEEE rounds correctly, so the value named is the same on
        # every platform
        ("simulate --three-state --s-bar 0.99", STAYERS + "1.01"),
        ("simulate --three-state --s-bar 1e308", STAYERS + "1e+308"),
        ("simulate --sigma-bar 1e-100", PLANTED_V + "inf"),
        ("simulate --three-state --sigma-bar 1e-100", PLANTED_V + "inf"),
        ("simulate --horizon 24 --sigma-bar 0.01 --alpha 0.5",
         PLANTED_V + "58.90666666666668"),
        ("simulate --three-state --horizon 24 --sigma-bar 0.01 --alpha 0.5",
         PLANTED_V + "67.50000000000014"),
        # a three-state panel starting with no unemployed or no nonemployed,
        # which three-state would refuse after raking
        ("simulate --three-state --u0 0", "--u0 " + UNIT + "0.0"),
        ("simulate --three-state --n0 0", "--n0 " + UNIT + "0.0"),
        ("simulate --three-state --n0 1", "--n0 " + UNIT + "1.0"),
        ("simulate --three-state --horizon 24 --u0 nan", "--u0 " + UNIT + "nan"),
        ("simulate --three-state --horizon 24 --n0 nan", "--n0 " + UNIT + "nan"),
        ("simulate --u0 0", "--u0 " + UNIT + "0.0"),
        ("simulate --u0 1.5", "--u0 " + UNIT + "1.5"),
        # the one flag only the three-state model reads, at any value, the
        # planted 0.3 and a value a rounding away from it among them
        *((f"simulate{horizon} --n0 {value}",
           "--n0: three-state only, not read without --three-state")
          for horizon, values in (("", ("0",)), (" --horizon 24", ("0.5", "nan", "0.3",
                                                                   "0.30000001")))
          for value in values),
        # an initial unemployment share whose U -> E flow rounds to zero,
        # which three-state would read with no job finding
        *((f"simulate --three-state{horizon} --u0 {u0}",
           f"unemployment-to-employment flow U * ue rounds to zero at 2000-01: U = {u0}")
          for horizon, u0 in (("", "5e-324"), (" --horizon 24", "5e-324"),
                              (" --horizon 24", "1e-323"))),
        ("simulate --noise -1", "noise_std must be non-negative"),
        ("simulate --three-state --horizon 24 --noise -1 --du-amplitude 0.01 --seed 5",
         "noise_std must be non-negative"),
        ("simulate --start 0001-01 --horizon 120000",
         "120000 months from 0001-01 run past 9999-12"),
        ("simulate --three-state --start 0001-01 --horizon 120000",
         "120000 months from 0001-01 run past 9999-12"),
        *((f"simulate --sigma-break-at {at}",
           f"--sigma-break-at {at} outside the horizon [0, 119]") for at in ("-1", "120", "500")),
        ("shifters --u-bar 0.05 --s-bar 0.02 --sigma-bar 5e-324", V_0 + "inf"),
        ("shifters --u-bar 0.05 --s-bar 0.02 --sigma-bar 1e308", V_0 + "0.0"),
        ("decompose --u-bar 0.05 --s-bar 0.02 --sigma-bar 0.3 --alpha 1e-300", V_0 + "inf"),
        ("efficiency --vacancy-cost 1e308", COSTS + "2.33 * (1e+308 / 0.74) = inf"),
        ("efficiency --unemployment-cost 5e-324", COSTS + "0.9 * (0.92 / 5e-324) = inf"),
        ("efficiency --vacancy-cost 5e-324 --unemployment-cost 1e308",
         COSTS + "0.9 * (5e-324 / 1e+308) = 0.0"),
        ("shifters --u-bar 0.068", "--u-bar, --s-bar and --sigma-bar must be given together"),
        ("shifters --smooth 1000", "--smooth 1000 is longer than the data"),
        # reference months with no dynamics term: before the data, the last
        # month (in three states also the one before it, whose next month has
        # no rates), and edge months that the smoothing leaves blank
        *((f"{command} --reference 1990-01",
           "reference month 1990-01 outside data coverage [2000-01, 2019-12]")
          for command in ("shifters", "three-state")),
        ("shifters --reference 2019-12", REFERENCE.format("2019-12", "2000-01", "2019-11", 1)),
        ("shifters --smooth 3 --reference 2000-01",
         REFERENCE.format("2000-01", "2000-02", "2019-10", 3)),
        ("three-state --reference 2019-11",
         REFERENCE.format("2019-11", "2000-01", "2019-10", 1)),
        ("three-state --smooth 3 --reference 2000-01",
         REFERENCE.format("2000-01", "2000-02", "2019-09", 3)),
        ("three-state --smooth 4 --smooth-align trailing --reference 2000-03",
         REFERENCE.format("2000-03", "2000-04", "2019-10", 4)),
        # estimation windows shorter than the regression's three months, and
        # one outside the data
        ("estimate --sample 2010-01:2010-02", SHORT.format("--sample 2010-01:2010-02")),
        ("estimate --sample 2000-01:2007-12 --sample 2010-01:2010-01",
         SHORT.format("--sample 2010-01:2010-01")),
        ("estimate --sample 1990-01:1995-12",
         "sample [1990-01, 1995-12] outside data coverage [2000-01, 2019-12]"),
        *((f"decompose {flag} 2020-01",
           "swing bound 2020-01 outside data coverage [2000-01, 2019-12]")
          for flag in ("--down-start", "--down-end", "--up-start", "--up-end")),
        ("decompose --down-start 2009-06 --down-end 2007-04",
         "downswing end 2007-04 precedes start 2009-06"),
        ("decompose --up-start 2012-01 --up-end 2011-01",
         "upswing end 2011-01 precedes start 2012-01"))),
    Case("estimate-default-short", "estimate", "panel-2007-11", 2,
         SHORT.format("default --sample 2007-11:2007-12")),
    Case("three-state-0000", "three-state --reference 0000-01", "panel3-0000", 2,
         NO_DYNAMICS.format("0000-01", 1)),
    Case("three-state-0000-beyond", "three-state --reference 0000-02", "panel3-0000-3", 2,
         REFERENCE.format("0000-02", "0000-01", "0000-01", 1)),
    *(Case(f"three-state-0000-smooth-3-{align}",
           f"three-state --reference 0000-02 --smooth 3 --smooth-align {align}",
           "panel3-0000-4", 2, NO_DYNAMICS.format("0000-02", 3))
      for align in ("centered", "trailing")),

    # exit 2 at parsing: argparse's usage text, then the value refused
    *refusals(2, ((argv, usage(argv, why)) for argv, why in (
        ("estimate --smooth 0", "must be at least 1, got 0"),
        ("estimate --smooth -3", "must be at least 1, got -3"),
        ("simulate --horizon 1", "must be at least 2, got 1"),
        ("three-state --rake-max-iter 0", "must be at least 1, got 0"),
        *((f"three-state --rake-tol {tol}", POSITIVE + why)
          for tol, why in (("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"))),
        *((f"three-state --rake-tol {tol}", EPS + tol)
          for tol in ("1e-300", "1e-16", "2.2e-16")),
        ("shifters --reference April-2007", "expected YYYY-MM, got 'April-2007'"),
        ("shifters --alpha 1.5", UNIT + "1.5"),
        ("shifters --alpha 0", UNIT + "0.0"),
        ("shifters --s-bar 0.02 --sigma-bar 0.3 --u-bar 1.5", UNIT + "1.5"),
        # a non-finite calibration, which had given u* of 1.0 or 0.0 with
        # exit 0, or read as bad data (3) or infeasible pairs (4)
        ("efficiency --ms-elasticity -1", POSITIVE + "-1.0"),
        ("efficiency --ms-elasticity nan", POSITIVE + "nan"),
        ("efficiency --vacancy-cost nan", POSITIVE + "nan"),
        *((f"efficiency --{flag} inf", POSITIVE + "inf") for flag in (
            "ms-elasticity", "steep-elasticity", "unemployment-cost", "vacancy-cost")),
        *((f"{command} --u-bar 0.06 --s-bar 0.02 --sigma-bar {value}", POSITIVE + value)
          for command in ("shifters", "decompose") for value in ("inf", "nan")),
        ("shifters --s-bar 0.02 --sigma-bar 0.3 --u-bar nan", UNIT + "nan"),
        ("decompose --u-bar 0.06 --sigma-bar 0.3 --s-bar inf", UNIT + "inf"),
        # a non-finite simulate value, which had exited 2 only through a
        # bound on the planted paths, naming neither the flag nor the value
        *((f"simulate --horizon 24 {flags} {value}", FINITE + value)
          for flags, value in (("--sigma-bar", "nan"), ("--sigma-bar", "inf"),
                               ("--s-bar", "inf"), ("--three-state --s-bar", "inf"),
                               ("--du-amplitude", "inf"), ("--noise", "inf"),
                               ("--noise", "nan"))),
        *((f"simulate --horizon 24 {flags} {value}", POSITIVE + why)
          for flags in ("--du-amplitude 0.001 --du-period",
                        "--sigma-break-at 3 --sigma-break-factor")
          for value, why in (("0", "0.0"), ("inf", "inf")))))),
    # a flag the command does not read: estimate estimates alpha,
    # efficiency has none, simulate reads no panel
    *refusals(2, ((f"{command} {flags}", f"beveridge: error: unrecognized arguments: {flags}")
                  for command, flags in (
                      *(("estimate", f"--alpha {alpha}") for alpha in ("0.5", "0.9", "1.5")),
                      ("efficiency", "--alpha 0.9"), ("simulate", "--smooth 3"),
                      ("simulate", "--smooth-align trailing")))),

    # exit 3, faults in the data: an input that cannot be read, a column
    # missing, and a quoted cell over csv's field size limit
    Case("missing-file", "estimate", "absent", 3, "{input}: No such file or directory"),
    Case("input-under-a-file", "estimate", "panel/panel.csv", 3, "{input}: Not a directory"),
    Case("missing-column", "estimate", "panel", 3, "missing required columns: u_short",
         drop("u_short")),
    Case("over-field-limit", "estimate", "panel", 3,
         "{input}:2: field larger than field limit (131072)",
         cell("u_rate", "2000-01", '"' + "9" * 140_001 + '"')),
    Case("bad-quoted", "estimate", "panel", 3,
         "{input}:5: non-numeric cell 'x' in column 'u_rate'",
         lambda text: quoted(cell("u_rate", "2000-04", "x")(text))),
    Case("past-9999", "estimate", "panel", 3, "{input}:3: expected YYYY-MM, got '10000-01'",
         past_9999),
    *(Case(f"non-finite-cell-{token}", "estimate", "panel", 3,
           f"{{input}}:3: non-finite cell '{token}' in column 'v_rate'",
           cell("v_rate", "2000-02", token))
      for token in ("inf", "-inf", "1e999")),
    # a share out of (0, 1) in a column a command reads, named with its
    # month, and in u_short, which efficiency does not read
    *(Case(f"{command}-{column}-{value}", command, panel, 3,
           f"{SHARES[column]} outside (0, 1) at {PLANTED}: {value}",
           cell(column, PLANTED, value))
      for command, column, panel in (
          *((command, column, "panel") for command in ("estimate", "shifters", "decompose",
                                                       "efficiency") for column in SHARES
            if (command, column) != ("efficiency", "u_short")),
          ("three-state", "v_rate", "panel3"))
      for value in ("1.5", "0.0", "-0.1")),
    *(Case(f"efficiency-u_short-{value}", "efficiency", "panel",
           transform=cell("u_short", PLANTED, value)) for value in ("1.5", "0.0", "-0.1")),
    # a negative rate, which raking refuses before any Newton step, a
    # negative stock, and an ue of 1.5 in the last month, which starts no
    # month-pair
    Case("en-negative", "three-state", "panel3", 3,
         "month 2000-05: negative transition rate en: -0.1", cell("en", "2000-05", "-0.1")),
    Case("u-negative", "three-state", "panel3", 3,
         "negative stock value at 2000-05: -0.01", cell("u_stock", "2000-05", "-0.01")),
    Case("ue-last", "three-state", "panel3", 3,
         "transition rate ue outside [0, 1] at 2019-12: 1.5", cell("ue", "2019-12", "1.5")),
    # a cell of 1e-320 whose quotient or power overflows, with no numpy
    # warning before the refusal: f, sigma at an alpha near one and
    # xi_N = ne / ue are refused by month, and raking's 1 / R leaves a
    # subnormal row that cannot fit
    *(Case(f"{ident(argv)}-{column}-1e-320", argv, panel, 3, stderr,
           cell(column, "2005-03", "1e-320"))
      for argv, panel, column, stderr in (
          ("estimate", "panel", "u_rate", "infinite value at 2005-03: -inf"),
          ("shifters --alpha 0.999999999", "panel", "v_rate",
           "infinite matching efficiency at 2005-03: inf"),
          ("three-state", "panel3", "ue", "infinite value at 2005-03: inf"),
          ("three-state", "panel3", "e_stock", "month 2005-03: raking did not converge "
           "within 1000 iterations (worst residual 5.917e-01)"))),
    Case("sample-two-usable", "estimate --sample 2010-01:2010-03", "panel", 3,
         "only 2 usable months in sample [2010-01, 2010-03]; need at least 3",
         cell("v_rate", "2010-02", "")),
    Case("reference-blank", "shifters --reference 2007-04", "panel", 3,
         "shifters undefined at reference month 2007-04", cell("u_rate", "2007-04", "")),
    # a downswing and an expansion window with no observed unemployment
    Case("empty-downswing", "decompose --u-bar 0.06 --s-bar 0.02 --sigma-bar 0.36", "panel",
         3, "empty downswing sample", cell("u_rate", "2007-04:2009-06", "")),
    Case("window-unobserved", "shifters --approx-window 2003-01:2003-06", "panel", 3,
         "no jointly observed months in window [2003-01, 2003-06]",
         cell("u_rate", "2003-01:2003-06", "")),
    # a window point at an alpha whose implied vacancies underflow
    *refusals(3, (("decompose --alpha 1e-300", V_0 + "0.0"),)),
    # a window whose one month has no employment: its point leaves none
    Case("point-no-room", "three-state --approx-window 2000-01:2000-01", "panel3", 3,
         "searchers plus non-searchers must leave room for employment",
         cell("e_stock", "2000-01", "0")),

    # exit 4: every matched pair infeasible, as separations held near zero
    # cannot carry a downswing of rising unemployment
    Case("infeasible", "decompose --down-start 2008-02 --down-end 2009-12 --up-start "
         "2010-01 --u-bar 0.068 --s-bar 1e-06 --sigma-bar 0.3", "panel", 4,
         "all matched pairs infeasible under some counterfactual"),
)

"""Iterative proportional fitting of month-pair flow matrices, the reference
that the tests hold Newton's method in `flows_three_state` to.

IPF reaches the same fit of least I-divergence as Newton's method, but
linearly, in about a hundred sweeps per month-pair at 0.1% rate noise.
`reference_rake` is `rake_transition_rates` with `ipf_pairs` in place of
`_rake_pairs`: the same checks before and after raking, the same report,
the same errors, and a sweep count in place of a step count.
"""

from unittest import mock

import numpy as np

from beveridge_accounting import flows_three_state, rake_transition_rates


def reference_rake(stocks, rates, tol=1e-12, max_iter=1000):
    """`rake_transition_rates` with IPF sweeps in place of Newton steps."""
    with mock.patch.object(flows_three_state, "_rake_pairs", ipf_pairs):
        return rake_transition_rates(stocks, rates, tol=tol, max_iter=max_iter)


def _scaling(targets: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Scale factors targets / sums, or 1 where a sum is not positive."""
    positive = sums > 0.0
    return np.where(positive, targets / np.where(positive, sums, 1.0), 1.0)


def ipf_pairs(flows: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              tol: float, max_iter: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, tuple[str, float]]]:
    """Rake each month-pair's cells in `flows` (3, 3, T) to its own row and
    column targets (3, T), as `_rake_pairs` does, by sweeps of every pair
    still active: each scales the rows, then the columns.  A pair leaves
    at its first sweep that met a row, or else a column, with no flow and
    positive target mass (a failure), or whose worst marginal residual is
    <= tol.  Returns the fitted cells, the sweeps and residuals per pair
    (NaN, -1 and NaN where the pair failed) and {pair index: (message,
    worst residual)} for failures, the last sweep's residual for a pair
    still active after max_iter sweeps.
    """
    fitted = np.full_like(flows, np.nan)
    sweeps, residuals = np.full(flows.shape[2], -1), np.full(flows.shape[2], np.nan)
    act, m, sweep, failed = np.arange(flows.shape[2]), flows, 0, {}
    R, res = np.add.reduce(m, axis=1), np.full(act.size, np.inf)
    while act.size and sweep < max_iter:
        sweep += 1
        row = ((R == 0.0) & (rows > 0.0)).any(axis=0)
        m = m * _scaling(rows, R)[:, None]
        C = np.add.reduce(m, axis=0)
        col = ((C == 0.0) & (cols > 0.0)).any(axis=0) & ~row
        m = m * _scaling(cols, C)[None]
        R = np.add.reduce(m, axis=1)
        res = np.maximum(np.abs(R - rows).max(axis=0),
                         np.abs(np.add.reduce(m, axis=0) - cols).max(axis=0))
        stay = ~((res <= tol) | row | col)
        if stay.all():
            continue
        for margin, empty in (("row", row), ("column", col)):
            failed.update(dict.fromkeys(act[empty].tolist(), (
                f"empty flow {margin} with positive target mass", np.inf)))
        done = ~(stay | row | col)
        fitted[:, :, act[done]] = m[..., done]
        sweeps[act[done]], residuals[act[done]] = sweep, res[done]
        act, m, R, rows, cols, res = (x[..., stay] for x in (act, m, R, rows, cols, res))
    for j, worst in zip(act.tolist(), res.tolist()):
        failed[j] = (f"raking did not converge within {max_iter} iterations "
                     f"(worst residual {worst:.3e})", worst)
    return fitted, sweeps, residuals, failed

"""The log-linear shift decomposition as coefficient times coordinate, the
reference that the tests hold `loglinear_shift_decomposition` to.

The two-state expansion around the point (S_0, 0, x_0, sigma_0, alpha),
where S_0 = U_bar and x_0 = s_bar, carries each margin on one coordinate,
with the coefficient

    dynamics     dln U'     -U_bar / (alpha s_bar (1 - U_bar))
    separations  ln s        1 / alpha
    matching     ln sigma   -1 / alpha

and a margin's contribution is its coefficient times the up-down shift of
its coordinate at the matched points.  `loglinear_shift_decomposition`
takes the up-down shift of each term of the expansion instead, which is the
same number up to rounding.
"""

import numpy as np

from beveridge_accounting import ShiftDecomposition, delta_log


def reference_decomposition(U, V, s, sigma, samples, point) -> ShiftDecomposition:
    """Contributions as coefficient times the shift of each coordinate, from
    the series U, V and s and the array sigma; a matched pair with a missing
    contribution is dropped and reported."""
    a, u0 = point.alpha, point.S_0
    with np.errstate(invalid="ignore", divide="ignore"):
        coords = {"dynamics": delta_log(U.values), "separations": np.log(s.values),
                  "matching": np.log(sigma)}
        log_v = np.log(V.values)
    coefs = {"dynamics": -u0 / (a * point.x_0 * (1.0 - u0)),
             "separations": 1.0 / a, "matching": -1.0 / a}
    contrib = {name: coefs[name] * samples.vertical_shift(values)
               for name, values in coords.items()}
    ok = ~np.isnan(np.vstack(list(contrib.values()))).any(axis=0)
    months = samples.down_index
    return ShiftDecomposition(
        months=months[ok],
        u=samples.at_down(U.values)[ok],
        observed=samples.vertical_shift(log_v)[ok],
        contributions={name: c[ok] for name, c in contrib.items()},
        dropped_months=np.concatenate([samples.dropped_months, months[~ok]]),
    )

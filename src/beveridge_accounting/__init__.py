"""Dynamic Beveridge-curve accounting.

From observed unemployment and vacancy series this package constructs
monthly flow probabilities and matching efficiency, decomposes shifts of the
Beveridge curve into the contributions of the margins in `MARGINS`
(dynamics, separations and matching efficiency), log-linearly and exactly
from the counterfactual vacancy paths of `counterfactual_vacancies`, gives
the shifter paths in two and three states, and computes the
slope-dependent efficient unemployment rate.
"""

from .csvio import SchemaError, read_panel, require_columns, write_panel
from .curve import (ApproximationPoint, ThreeStateLoglinear, loglinear_slope,
                    shifter_paths, three_state_loglinear)
from .efficiency import (EfficiencyCalibration, MS_ELASTICITY, MS_UNEMPLOYMENT_COST,
                         MS_VACANCY_COST, STEEP_ELASTICITY, efficient_unemployment,
                         unemployment_gap)
from .flows_three_state import (RakingError, RakingReport, ThreeStatePanel,
                                build_three_state_panel, rake_transition_rates,
                                total_hires)
from .flows_two_state import (ProbabilityRangeWarning, TwoStatePanel,
                              build_two_state_panel, implied_separation_probability,
                              job_finding_probability)
from .matching import (DEFAULT_ALPHA, MatchingEstimate, estimate_matching,
                       matching_efficiency_path, tightness)
from .series import (ConfigError, DataError, InfeasibleError, MonthDate, MonthlySeries,
                     Refusal, delta, delta_log, moving_average, normalize_shares,
                     require_aligned)
from .shift_decomposition import (AllPairsInfeasibleError, MARGIN_DYNAMICS,
                                  MARGIN_MATCHING, MARGIN_SEPARATIONS, MARGINS,
                                  OrderingRow, OrderingTable, ShiftDecomposition,
                                  SwingBounds, SwingSamples, all_orderings_report,
                                  build_swing_samples,
                                  counterfactual_vacancies,
                                  loglinear_shift_decomposition)
from .simulate import Simulation, SimulationSpec, simulate

__version__ = "0.1.0"

"""Dynamic Beveridge-curve accounting.

From observed unemployment and vacancy series this package constructs
monthly flow probabilities and matching efficiency, decomposes shifts of the
Beveridge curve into dynamics, separations and matching-efficiency
contributions (log-linear and exact nonlinear variants, two-state and
three-state), and computes the slope-dependent efficient unemployment rate.
"""

from .csvio import SchemaError, read_panel, require_columns, write_panel
from .curve import (ApproximationPoint, InfeasibleMonthWarning, ShifterPath,
                    ThreeStateApproximationPoint, ThreeStateLoglinear,
                    dynamics_coefficient, exact_vacancies, loglinear_slope,
                    loglinear_vacancies, matching_coefficient,
                    normalize_to_reference, separations_coefficient, shifter_paths,
                    steady_state_curve, three_state_exact_vacancies,
                    three_state_loglinear)
from .efficiency import (EfficiencyCalibration, MS_ELASTICITY, MS_UNEMPLOYMENT_COST,
                         MS_VACANCY_COST, STEEP_ELASTICITY, efficient_unemployment,
                         ms_calibration, steep_calibration, unemployment_gap)
from .flows_three_state import (RakingError, RakingReport, ThreeStatePanel,
                                build_three_state_panel, derive_aggregates,
                                rake_transition_rates, relative_search_intensity,
                                total_hires)
from .flows_two_state import (ProbabilityRangeWarning, TwoStatePanel,
                              build_two_state_panel, implied_separation_probability,
                              job_finding_probability, unemployment_path)
from .matching import (DEFAULT_ALPHA, MatchingEstimate, estimate_matching,
                       matching_efficiency_path, searcher_finding_rate,
                       three_state_tightness, two_state_tightness)
from .series import (MonthDate, MonthlySeries, delta, delta_log, moving_average,
                     normalize_shares, require_aligned)
from .shift_decomposition import (AllPairsInfeasibleError, MARGIN_DYNAMICS,
                                  MARGIN_MATCHING, MARGIN_SEPARATIONS, MARGINS,
                                  OrderingRow, OrderingTable, ShiftDecomposition,
                                  SwingBounds, SwingSamples, all_orderings_report,
                                  build_swing_samples,
                                  loglinear_shift_decomposition)
from .simulate import (SimulationSpec, ThreeStateSimulation,
                       ThreeStateSimulationSpec, TwoStateSimulation,
                       simulate_three_state, simulate_two_state)

__version__ = "0.1.0"

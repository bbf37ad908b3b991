"""mediamatch: impedance matching of media interfaces with a tunable surface.

Cascaded two-port model of a surface + layered media, a voltage-tunable
surface-admittance circuit, admittance/voltage matching searches, a seeded
multipath feedback channel, and the three-stage black-box surface controller.
"""

from .media import (AIR, BUILTIN_MEDIA, FAT, MUSCLE, SKIN, WATER, FresnelResult,
                    Layer, Medium, complex_permittivity, fresnel_interface,
                    get_medium, intrinsic_impedance, phase_constant)
from .cascade import (CascadeSolution, DegenerateStackError, StackSpec, solve_stack,
                      through_power_db)
from .surface import (CalibrationError, ElementCircuit, ResonanceError,
                      SMV1405_TABLE, VaractorTable,
                      admittance_approx, admittance_at_voltage, admittance_exact,
                      calibrate_inductances, varactor_at)
from .matching import (MatchResult, SweepGrid, best_admittance, best_voltage,
                       reflection_spectrum, sweep_through_power)
from .channel import (ElementResponder, MultipathChannel, SurfaceConfig,
                      backscatter_gain, baseline_channel, composite_channel,
                      oneway_gain, rss_feedback, sample_channel)
from .control import (DEFAULT_VOLTAGE_SET, ControlState, ControlTrace, ProbeRecord,
                      brute_force_baseline, column_groups, config_hash,
                      element_groups, run_controller, stage1_uniform_probe,
                      stage2_majority_voting, stage3_fine_tune)
from .scenario import (ChannelParams, FeedbackOracle, ProductFeedbackOracle,
                       Scenario, ScenarioError, default_tissue_scenario,
                       default_water_scenario, load_scenario, scenario_from_dict)
from .harness import (BudgetError, RunReport, cmd_backscatter,
                      cmd_bench_controller, cmd_links, cmd_match, cmd_sweep,
                      median_lower, percentile_lower)

__version__ = "0.1.0"

"""kaclab: Monte Carlo laboratory for the conservative Kac collision process.

Event-driven simulation of N-particle random binary elastic collisions with
full flux recording, exponential tilting of initial data and dynamics with
exact Radon-Nikodym accounting, an energy-concentration freeze experiment,
numerical evaluation of the entropic rate function, bounded-Lipschitz
metrics, and closed-moment diagnostics.
"""

__version__ = "0.1.0"

from .engine import (CollisionEvent, EventLog, InitialCondition, ParticleState,
                     SimConfig, Trajectory, empirical_measure, flux_measure,
                     make_rng, simulate, step, total_rate)
from .fenwick import FenwickSampler
from .freezing import (ExperimentReport, FreezeScheme, ThetaSchedule,
                       build_freeze_scheme, cumulant_psi, design_freeze_experiment,
                       freeze_thresholds, legendre_psi_star, run_experiment,
                       solve_lambda, tilted_energy, time_partition)
from .girsanov import InitialTilt, RNLedger, TiltingScheme, sample_tilted_initial
from .kinetics import Kernel, eval_kernel, post_collision, sample_sigma
from .metrics import (WeightedMeasure, bl_distance, estimate_ldp_rate, fit_ldp_slope,
                      flux_distance, moment)
from .moment_ode import (MomentTrack, maxwell_m4_coeffs, maxwell_m4_curve,
                         povzner_check, sigma_avg_delta)
from .rate_function import (TestFunctionDescriptor, dynamic_cost,
                            relative_entropy, tau, xi_functionals)
from .reference import ReferenceMeasure

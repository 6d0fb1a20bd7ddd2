"""Inertial augmented Lagrangian solver with a rate-verification harness."""

from .benchgen import GenSpec, SplitMix64, generate, spec_from_json
from .diagnostics import (RateFit, RunRecord, SaddleTerms, dual_bound_series, energy,
                          gap, objective_error, q_norm_sq, rate_fit, saddle_terms)
from .errors import (CertificationError, DimensionMismatch, FalmError,
                     NonFiniteError, SpdSolveError, StepError, ValidationError)
from .inertial import (CertReport, InertialRule, attouch_cabot, certify,
                       chambolle_dossal, constant, nesterov, next_t, phi_m,
                       rule_from_spec, t_value, t_values)
from .linalg import (LinearMap, SpdSolution, SpectralFactor, as_vector, dense_map,
                     norm, op_norm_sq, solve_spd, zero_map)
from .oracle import OracleError, QpInstance, kkt_solve
from .problem import (Objective, Problem, kkt_residuals, least_squares_objective,
                      problem_from_json, quadratic_objective)
from .solver import (IterateState, RunResult, SolverParams, StepTrace,
                     ValidatedConfig, initial_state, run, step, validate)

__version__ = "0.1.0"

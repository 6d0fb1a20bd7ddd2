"""Inertial augmented Lagrangian solver with a rate-verification harness."""

from .benchgen import GenSpec, SplitMix64, generate, spec_from_json
from .diagnostics import (RateFit, RunRecord, dual_bound_series, energy, gap,
                          q_norm_sq, rate_fit)
from .errors import (CertificationError, DimensionMismatch, FalmError,
                     NonFiniteError, SpdSolveError, StepError, ValidationError)
from .inertial import (CertReport, InertialRule, attouch_cabot, certify,
                       chambolle_dossal, constant, nesterov, phi_m,
                       rule_from_spec, t_value, t_values)
from .linalg import (LinearMap, OpNormEstimate, SpdSolution, SpdSystem, as_vector,
                     dense_map, norm, op_norm_sq, solve_spd, zero_map)
from .oracle import OracleError, QpInstance, kkt_solve
from .problem import (Objective, Problem, aug_lagrangian, kkt_residuals, lagrangian,
                      least_squares_objective, problem_from_json, problem_to_json,
                      quadratic_objective, value_and_residual)
from .solver import (IterateState, RunResult, SolverParams, StepTrace,
                     ValidatedConfig, initial_state, run, step, validate)

__version__ = "0.1.0"

"""Inertial augmented Lagrangian solver with a rate-verification harness."""

from .benchgen import GenSpec, SplitMix64, generate
from .diagnostics import (Gap, RateFit, RunRecord, SaddleTerms, energy, gap, objective_error,
                          q_norm_sq, rate_fit, saddle_terms)
from .errors import (CertificationError, DimensionMismatch, FalmError,
                     NonFiniteError, SpdSolveError, StepError, ValidationError)
from .inertial import (CertReport, InertialRule, attouch_cabot, certify,
                       chambolle_dossal, constant, nesterov, next_t, phi_m, t_values)
from .linalg import (LinearMap, SpdSolution, SpectralFactor, as_vector, dense_map,
                     norm, op_norm_sq, solve_spd, zero_map)
from .oracle import OracleError, QpInstance, kkt_solve
from .problem import (Objective, Problem, kkt_residuals, least_squares_objective,
                      quadratic_objective)
from .solver import (IterateState, RunResult, SolverParams, StepTrace,
                     ValidatedConfig, initial_state, run, step, validate)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The readers of the CLI's documents, from cli on first use: importing it
    # here would make ``python -m falm.cli`` run a second copy of the module.
    if name in ("problem_from_json", "rule_from_spec", "spec_from_json"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

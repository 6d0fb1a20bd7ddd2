"""Inertial augmented Lagrangian solver for linearly constrained problems.

Each iteration extrapolates the primal and dual iterates with the momentum
ratio ``(t_k - 1)/t_{k+1}``, solves a strongly convex quadratic subproblem for
the next primal point, and takes a proximal-style dual step against an
extrapolated primal combination. The subproblem is solved exactly (to the
requested residual tolerance ``cg_tol``) via its normal system

    ((1/sigma) Id + (s_{k+1}/gamma) A*A) x = rhs,

because the convergence analysis this package verifies assumes the exact
argmin; an approximate proximal step would void the recorded invariants. The
system matrix changes only through the scalar ``s_{k+1}/gamma``.
:func:`validate` takes one thin SVD of the constraint map from
:func:`~falm.linalg.op_norm_sq`, which rebuilds a matrix-free map from adjoint
probes first, and every step solves the system in closed form from that
factor (two products with ``Vt``), corrected by iterative refinement with the
same factor only if the residual check fails. The same factor gives an upper
bound on ``||A||^2``, so dense, matrix-free and zero maps take one path.

Oracle budget. A dense step applies the map 7 times (``A y``, the three
adjoints of the right-hand side, ``A`` and ``A*`` in the inner solve's residual
check, and ``A z``) and the gradient once; ``A x_k`` is the image the previous
step's residual check computed. Each refinement correction, when a residual
check fails, adds one ``A`` and one ``A*`` (its residual check). Rebuilding a
matrix-free p-by-n map costs p adjoint and 2 forward applies, once per
:func:`validate`.
A record applies the map 3 times (``A* lam`` and, when ``beta != 0``, the two
energy seminorms), the gradient once and the objective value once; ``f`` and
``A x - b`` at the reference saddle point are evaluated once per run. Every
record equals, bit for bit, what the public diagnostics return for its iterates.

Stop-test budget. With ``kkt_tol`` set, an iteration that emits no record
evaluates the exact KKT residuals (one more gradient) only when neither the
cached ``||A x_{k+1} - b||`` nor a lower bound on the stationarity residual
from the step's own gradient rules the stop out (see
:func:`_kkt_unless_ruled_out`), so the run stops at the same index with the
same bits as an exact test at every iteration. The bound relies on the
objective's ``lipschitz`` being a true bound; a too-small L can only delay a
stop, never cause an early one.

Admissibility of the parameters::

    0 < m <= gamma <= 1      and      0 < sigma <= gamma / (L + gamma*beta*||A||^2)

is enforced by :func:`validate`, always with the ``||A||^2`` bound of
:func:`~falm.linalg.op_norm_sq`. Strict versions (``m < gamma < 1``, strict
sigma, ``beta > 0``) additionally guarantee convergence of the iterates and
are flagged in ``ValidatedConfig.convergence_certified``.

A run is single-threaded and owns its state; several runs may proceed
concurrently on a shared immutable problem. The observer receives the live
state each record was computed from; the run never changes a state after
passing it on, and the observer must not change it either, nor block the
iteration beyond record serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .errors import SpdSolveError, StepError, ValidationError
from .inertial import InertialRule, t_value
from .linalg import (Array, SpdSystem, all_finite, as_vector, norm, op_norm_sq,
                     solve_spd)
from .problem import Problem, kkt_residuals, value_and_residual

SIGMA_CONDITION = "σ ≤ γ/(L + γβ‖A‖²)"

# Relative rounding allowance of the lower bound that lets ``run`` skip the
# exact KKT stop test. An affine gradient ``G v + c`` evaluated at v, with G
# and c rounded once when the objective was built (a least-squares ``M'M``
# and ``-M'd``), is off by about n * eps * (2 L||v|| + ||grad f(v)||); this
# covers that, for both gradients, and the norms' rounding, by many orders of
# magnitude.
STOP_MARGIN = 1e-6


@dataclass
class SolverParams:
    """User-facing solver knobs; ``None`` entries get the documented defaults.

    Defaults: ``gamma = (m + 1)/2`` (strictly between the rule's margin and 1
    whenever ``m < 1``; equal to 1 for the Nesterov rule, whose margin forces
    it), ``sigma = 0.99`` of its admissible bound, and ``rho = sigma`` (the
    dual step inherits the primal scale, one fewer knob to tune). ``cg_tol``
    is the inner solve's relative residual target; the name is kept for the
    config format.
    """

    rule: InertialRule
    gamma: float | None = None
    sigma: float | None = None
    rho: float | None = None
    beta: float = 1.0
    max_iter: int = 1000
    kkt_tol: float | None = None
    cg_tol: float = 1e-12
    record_every: int = 1


@dataclass(frozen=True)
class ValidatedConfig:
    """Resolved, admissibility-checked parameters plus derived constants.

    ``a_norm_probes`` counts the adjoint probes ``a_norm_sq`` was read from:
    0 when the map's matrix was factored as is, p for a matrix-free p-row map.
    """

    rule: InertialRule
    m: float
    gamma: float
    sigma: float
    rho: float
    beta: float
    a_norm_sq: float
    a_norm_probes: int
    sigma_bound: float
    convergence_certified: bool
    max_iter: int
    kkt_tol: float | None
    cg_tol: float
    record_every: int
    spectral: tuple[Array, Array] = field(repr=False, compare=False)


def validate(prob: Problem, params: SolverParams) -> ValidatedConfig:
    """Check every admissibility condition and resolve defaulted parameters.

    :func:`~falm.linalg.op_norm_sq` gives the map's spectral factor, kept as
    ``spectral``, and the upper bound on ``||A||^2`` that ``sigma_bound`` is
    computed from; it refuses a matrix-free map over its probe budget or with
    a wrong adjoint. Each violated condition, including a ``max_iter`` or
    ``record_every`` that is a boolean or not an integer and a real parameter
    that is a boolean or not finite, raises a :class:`ValidationError` naming
    it.
    """
    for name in ("gamma", "sigma", "rho", "beta", "kkt_tol", "cg_tol"):
        value = getattr(params, name)
        if value is not None and not _is_real(value):
            raise ValidationError(f"{name} ∈ ℝ",
                                  f"{name}={value!r} must be a finite number")
    rule = params.rule
    m = rule.m
    gamma = params.gamma if params.gamma is not None else (m + 1.0) / 2.0
    if not gamma > 0:
        raise ValidationError("γ > 0", f"gamma={gamma} must be positive")
    if gamma < m:
        raise ValidationError("m ≤ γ",
                              f"m ≤ γ violated: m={m}, gamma={gamma}")
    if gamma > 1.0:
        raise ValidationError("γ ≤ 1", f"gamma={gamma} exceeds 1")
    if params.beta < 0:
        raise ValidationError("β ≥ 0", f"beta={params.beta} is negative")

    if rule.kind == "attouch_cabot":
        # The coupling weight of the first subproblem, s_2 proportional to
        # t_2*(t_2 - 1 + gamma), must be positive or the subproblem is not
        # strongly convex; this pins gamma above 1 - 1/(alpha - 1).
        t2 = t_value(rule, 2)
        if t2 - 1.0 + gamma <= 0.0:
            raise ValidationError("γ > 1 − 1/(α − 1)",
                                  f"gamma={gamma} makes the first subproblem "
                                  f"coupling weight nonpositive; need gamma > "
                                  f"{1.0 - 1.0 / (rule.alpha - 1.0)}")

    estimate = op_norm_sq(prob.a_map)
    a_norm_sq = estimate.value
    lip = prob.objective.lipschitz
    sigma_bound = gamma / (lip + gamma * params.beta * a_norm_sq)
    sigma = params.sigma if params.sigma is not None else 0.99 * sigma_bound
    if not sigma > 0:
        raise ValidationError("σ > 0", f"sigma={sigma} must be positive")
    if sigma > sigma_bound:
        raise ValidationError(SIGMA_CONDITION,
                              f"{SIGMA_CONDITION} violated: sigma={sigma} exceeds "
                              f"bound {sigma_bound} (L={lip}, gamma={gamma}, "
                              f"beta={params.beta}, ‖A‖²={a_norm_sq})")
    rho = params.rho if params.rho is not None else sigma
    if not rho > 0:
        raise ValidationError("ρ > 0", f"rho={rho} must be positive")
    for name in ("max_iter", "record_every"):
        value = getattr(params, name)
        if not _is_integer(value):
            raise ValidationError(f"{name} ∈ ℤ", f"{name}={value!r} must be an integer")
    if params.max_iter < 0:
        raise ValidationError("max_iter ≥ 0", "negative iteration budget")
    if params.record_every < 1:
        raise ValidationError("record_every ≥ 1", "record_every must be >= 1")
    if not params.cg_tol > 0:
        raise ValidationError("cg_tol > 0", "inner solve tolerance must be positive")
    if params.kkt_tol is not None and not params.kkt_tol > 0:
        raise ValidationError("kkt_tol > 0", "stopping tolerance must be positive")

    certified = bool(m < gamma < 1.0 and sigma < sigma_bound and params.beta > 0)
    return ValidatedConfig(rule=rule, m=m, gamma=gamma, sigma=sigma, rho=rho,
                           beta=params.beta, a_norm_sq=a_norm_sq,
                           a_norm_probes=estimate.iterations,
                           sigma_bound=sigma_bound,
                           convergence_certified=certified,
                           max_iter=params.max_iter, kkt_tol=params.kkt_tol,
                           cg_tol=params.cg_tol, record_every=params.record_every,
                           spectral=estimate.factor)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    try:
        return not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond float
        return False


@dataclass
class IterateState:
    """Full recurrence state at index k (two primal and two dual iterates).

    ``ax_k`` caches the image of ``x_k``: when set it is bitwise equal to
    ``a_map.forward(x_k)``. Only a state built by :func:`initial_state` leaves
    it None (unknown); a state whose ``x_k`` is replaced must drop it.
    """

    k: int
    x_k: Array
    x_prev: Array
    lam_k: Array
    lam_prev: Array
    t_k: float
    t_next: float
    ax_k: Array | None = None


def initial_state(rule: InertialRule, x_init: Array, lam_init: Array) -> IterateState:
    """State at k=1; the two trailing iterates coincide with the initial point."""
    x = np.array(x_init, dtype=float)
    lam = np.array(lam_init, dtype=float)
    return IterateState(k=1, x_k=x, x_prev=x.copy(), lam_k=lam,
                        lam_prev=lam.copy(), t_k=t_value(rule, 1),
                        t_next=t_value(rule, 2))


@dataclass
class StepTrace:
    """Auxiliary quantities of one iteration, for invariant checks and records."""

    y_k: Array
    mu_k: Array
    nu_k_gamma: Array
    eta_k: Array
    s_next: float
    z_next_gamma: Array
    cg_iters: int
    grad_y: Array


def step(prob: Problem, cfg: ValidatedConfig, st: IterateState) -> tuple[IterateState, StepTrace]:
    """Advance the recurrence from index k to k+1.

    The primal update solves the subproblem's stationarity system exactly (to
    the configured residual tolerance) by :func:`~falm.linalg.solve_spd` from
    ``cfg.spectral``; for a zero operator that is the accelerated gradient
    step ``y_k - sigma * grad f(y_k)`` up to rounding. ``A x_k`` is read from
    ``st.ax_k`` when cached, and the new state caches the image of ``x_{k+1}``
    that the inner solve's residual check computed. Inner-solve failures raise
    :class:`StepError` carrying the iteration index.
    """
    g = cfg.gamma
    t_k = st.t_k
    t_k1 = st.t_next
    momentum = (t_k - 1.0) / t_k1
    y = st.x_k + momentum * (st.x_k - st.x_prev)
    mu = st.lam_k + momentum * (st.lam_k - st.lam_prev)
    a = prob.a_map
    ax = st.ax_k if st.ax_k is not None else a.forward(st.x_k)
    eta = ax + (g / (t_k1 - 1.0 + g)) * (prob.b - ax)
    nu = g * st.lam_k + (t_k - 1.0) * (st.lam_k - st.lam_prev)
    s_next = (cfg.rho / g) * t_k1 * (t_k1 - 1.0 + g)
    grad_y = prob.objective.gradient(y)
    ay = a.forward(y)
    rhs = (y / cfg.sigma - grad_y - cfg.beta * a.adjoint(ay - prob.b)
           - a.adjoint(nu) / g + (s_next / g) * a.adjoint(eta))
    if not all_finite(rhs):
        raise StepError(st.k, "subproblem right-hand side is not finite")
    system = SpdSystem(shift=1.0 / cfg.sigma, scale=s_next / g, a_map=a,
                       factor=cfg.spectral)
    try:
        sol = solve_spd(system, rhs, tol=cfg.cg_tol)
    except SpdSolveError as exc:
        raise StepError(st.k, f"primal subproblem solve failed: {exc}") from exc
    x_next = sol.x

    z_next = g * x_next + (t_k1 - 1.0) * (x_next - st.x_k)
    lam_next = mu + (cfg.rho / g) * (a.forward(z_next) - g * prob.b)
    if not (all_finite(x_next) and all_finite(lam_next)):
        raise StepError(st.k, "iterate left the finite range (NaN or overflow)")

    trace = StepTrace(y_k=y, mu_k=mu, nu_k_gamma=nu, eta_k=eta, s_next=s_next,
                      z_next_gamma=z_next, cg_iters=sol.iterations, grad_y=grad_y)
    new_state = IterateState(k=st.k + 1, x_k=x_next, x_prev=st.x_k,
                             lam_k=lam_next, lam_prev=st.lam_k, t_k=t_k1,
                             t_next=t_value(cfg.rule, st.k + 2), ax_k=sol.ax)
    return new_state, trace


def _kkt_unless_ruled_out(prob: Problem, cfg: ValidatedConfig, st: IterateState,
                          trace: StepTrace, residual: Array) -> tuple[float, float] | None:
    """:func:`kkt_residuals` of ``st``, or None when a bound rules out both
    being within ``kkt_tol``.

    ``residual`` is ``A x_{k+1} - b``; its norm is the feasibility value the
    exact test compares, so a larger one rules the stop out at no cost.
    Otherwise the stationarity residual is bounded below from the step's
    ``grad f(y_k)``: ``||grad f(x) + A* lam|| >= ||grad f(y) + A* lam|| -
    L||x - y||`` for a gradient with Lipschitz constant L, less a
    ``STOP_MARGIN`` allowance for the rounding of both gradients, the adjoint
    and the norms.
    """
    tol = cfg.kkt_tol
    if norm(residual) > tol:
        return None
    adj = prob.a_map.adjoint(st.lam_k)
    grad_y = trace.grad_y
    lip = prob.objective.lipschitz
    margin = STOP_MARGIN * (norm(grad_y) + norm(adj)
                            + lip * (norm(st.x_k) + norm(trace.y_k)))
    lower = norm(grad_y + adj) - lip * norm(st.x_k - trace.y_k) - margin
    if lower > tol:
        return None
    return kkt_residuals(prob, st.x_k, st.lam_k, residual=residual, adjoint=adj)


@dataclass
class RunResult:
    """Outcome of a solver run plus the recorded diagnostics stream."""

    x: Array
    lam: Array
    iterations: int
    reason: str
    records: list[diagnostics.RunRecord] = field(default_factory=list)
    error: str | None = None


def run(prob: Problem, params: SolverParams, observer=None, saddle=None,
        cfg: ValidatedConfig | None = None) -> RunResult:
    """Iterate from ``x = 0, lam = 0`` until the KKT tolerance is met or the
    budget runs out.

    ``cfg`` is ``validate(prob, params)`` when the caller already has it.
    When ``saddle=(x_star, lam_star)`` is supplied, records additionally carry
    the primal-dual gap, the objective error, and the energy; without it those
    fields are None. Records are emitted at k=1, every ``record_every``
    indices, and at the final index, each passed to ``observer(record,
    state)`` when given, together with the :class:`IterateState` it was
    computed from, for diagnostics that need the raw vectors.

    Two runs with identical configuration produce bit-identical records. An
    inner-solve failure returns a partial result with ``reason`` set to
    "inner solve failure" and the error message attached.
    """
    if cfg is None:
        cfg = validate(prob, params)
    st = initial_state(cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    st.ax_k = prob.a_map.forward(st.x_k)
    if saddle is not None:
        x_star = as_vector(saddle[0], prob.n, "x_star")
        lam_star = as_vector(saddle[1], prob.p, "lam_star")
        at_star = value_and_residual(prob, x_star)
    records: list[diagnostics.RunRecord] = []

    def emit(state: IterateState, cg_iters: int, res: Array | None = None,
             kkt: tuple[float, float] | None = None) -> None:
        if res is None:
            res = state.ax_k - prob.b
        if kkt is None:
            kkt = kkt_residuals(prob, state.x_k, state.lam_k, residual=res)
        feas = kkt[1]
        if saddle is not None:
            at_x = (prob.objective.value(state.x_k), res)
            gap_val = diagnostics.gap(prob, state.x_k, state.lam_k, x_star, lam_star,
                                      at_x=at_x, at_star=at_star)
            obj_err = abs(at_x[0] - at_star[0])
            energy_val = diagnostics.energy(prob, cfg, state.x_k, state.x_prev,
                                            state.lam_k, state.lam_prev, state.t_k,
                                            x_star, lam_star,
                                            at_x=at_x, at_star=at_star)
        else:
            gap_val = obj_err = energy_val = None
        rec = diagnostics.RunRecord(k=state.k, t_k=state.t_k, gap=gap_val,
                                    feas=feas, obj_err=obj_err, kkt_grad=kkt[0],
                                    kkt_feas=feas, energy=energy_val,
                                    cg_iters=cg_iters)
        records.append(rec)
        if observer is not None:
            observer(rec, state)

    emit(st, 0)
    reason = "iteration budget"
    error = None
    last_recorded = st.k
    for i in range(cfg.max_iter):
        try:
            st, trace = step(prob, cfg, st)
        except StepError as exc:
            reason = "inner solve failure"
            error = str(exc)
            break
        k = st.k
        due = (k % cfg.record_every == 0) or i == cfg.max_iter - 1
        res = kkt = None
        if due:
            res = st.ax_k - prob.b
            kkt = kkt_residuals(prob, st.x_k, st.lam_k, residual=res)
        elif cfg.kkt_tol is not None:
            res = st.ax_k - prob.b
            kkt = _kkt_unless_ruled_out(prob, cfg, st, trace, res)
        stop = (cfg.kkt_tol is not None and kkt is not None
                and kkt[0] <= cfg.kkt_tol and kkt[1] <= cfg.kkt_tol)
        if due or stop:
            emit(st, trace.cg_iters, res, kkt)
            last_recorded = k
        if stop:
            reason = "kkt tolerance"
            break
    if last_recorded != st.k:
        emit(st, 0)
    return RunResult(x=st.x_k.copy(), lam=st.lam_k.copy(), iterations=st.k - 1,
                     reason=reason, records=records, error=error)

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
:func:`validate` keeps the constraint map's
:class:`~falm.linalg.SpectralFactor`, one thin SVD from
:func:`~falm.linalg.op_norm_sq`, which rebuilds a matrix-free map from adjoint
probes first. Every step's :func:`~falm.linalg.solve_spd` solves the system in
closed form from that factor (two products with ``Vt``), corrected by
iterative refinement with the same factor only if the residual check fails.
The same factor gives an upper bound on ``||A||^2`` and counts its probes, so
dense, matrix-free and zero maps take one path.

The dual side needs no forward apply: each dual vector of a step is a
linear combination, with scalar weights, of the five rows of
``IterateState.hist`` (``lam_k``, ``A x_k``, ``lam_{k-1}``, ``A x_{k-1}`` and
``b``), so a step forms ``lam_{k+1}`` as a product with that block.
``IterateState.adj`` carries the ``A*`` image of every row, each from one
apply (by linearity the images' rounding would drift with k), so the ``A*``
image of the step's dual argument is the same weights times that block. A
step applies ``A*`` twice: to ``A x_{k+1}`` in the inner solve's residual
check, and to ``lam_{k+1}``. After :func:`initial_state`, only :func:`step`
applies the map: the stop test and every record, its energy included, read
``A x_k``, ``A x_{k-1}`` and ``A* lam_k`` from the state.

The README's "Oracle budget", "Diagnostics" and "Stop-test budget" paragraphs
count the map applies, gradients and objective values of a step, a record and
the ``kkt_tol`` stop test.

Admissibility of the parameters::

    0 < m <= gamma <= 1      and      0 < sigma <= gamma / (L + gamma*beta*||A||^2)

with ``m`` at least the margin of the rule's kind
(:func:`~falm.inertial.min_margin`), is enforced by :func:`validate`, always
with the ``||A||^2`` bound of :func:`~falm.linalg.op_norm_sq`. Strict
versions (``m < gamma < 1``, strict sigma, ``beta > 0``) additionally
guarantee convergence of the iterates and are flagged in
``ValidatedConfig.convergence_certified``.

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
from .inertial import InertialRule, min_margin, next_t, t_values
from .linalg import (Array, SpectralFactor, all_finite, as_vector, norm, op_norm_sq,
                     solve_spd)
from .problem import Problem, kkt_residuals

SIGMA_CONDITION = "σ ≤ γ/(L + γβ‖A‖²)"
NON_FINITE = "non-finite iterate"

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

    ``spectral`` is the map's :class:`~falm.linalg.SpectralFactor`, which
    every step's inner solve reads. ``a_norm_sq`` and ``a_norm_probes`` read
    from it: the ``||A||^2`` bound ``sigma_bound`` was computed from, and the
    adjoint probes it was read from (0 when the map's matrix was factored as
    is, p for a matrix-free p-row map). ``lipschitz`` is the objective's L
    that ``sigma_bound`` was computed from; it only reports.
    """

    rule: InertialRule
    gamma: float
    sigma: float
    rho: float
    beta: float
    spectral: SpectralFactor
    lipschitz: float
    sigma_bound: float
    convergence_certified: bool
    max_iter: int
    kkt_tol: float | None
    cg_tol: float
    record_every: int

    @property
    def a_norm_sq(self) -> float:
        return self.spectral.value

    @property
    def a_norm_probes(self) -> int:
        return self.spectral.iterations


def validate(prob: Problem, params: SolverParams) -> ValidatedConfig:
    """Check every admissibility condition and resolve defaulted parameters.

    :func:`~falm.linalg.op_norm_sq` gives the map's spectral factor, kept as
    ``spectral``, with the upper bound on ``||A||^2`` that ``sigma_bound`` is
    computed from; it refuses a map with no rows or no columns, a matrix-free
    map over its probe budget or with a wrong adjoint, and a ``b`` outside the
    range of ``A`` (``"b ∈ range(A)"``, from the same SVD). Each
    violated condition, including a ``max_iter`` or ``record_every`` that is
    a boolean or not an integer and a real parameter that is a boolean or not
    finite, and a rule whose ``m`` lies below the margin of its kind, raises
    a :class:`ValidationError` naming it.
    """
    for name in ("gamma", "sigma", "rho", "beta", "kkt_tol", "cg_tol"):
        value = getattr(params, name)
        if value is not None and not _is_real(value):
            raise ValidationError(f"{name} ∈ ℝ",
                                  f"{name}={value!r} must be a finite number")
    rule = params.rule
    m = rule.m
    margin = min_margin(rule.kind, rule.alpha)
    if m < margin:
        raise ValidationError("m ≥ margin of the rule",
                              f"m={m} lies below the margin {margin} of the "
                              f"{rule.kind} rule")
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
        t2 = t_values(rule, 2)[-1]
        if t2 - 1.0 + gamma <= 0.0:
            raise ValidationError("γ > 1 − 1/(α − 1)",
                                  f"gamma={gamma} makes the first subproblem "
                                  f"coupling weight nonpositive; need gamma > "
                                  f"{1.0 - 1.0 / (rule.alpha - 1.0)}")

    spectral = op_norm_sq(prob.a_map, prob.b)
    a_norm_sq = spectral.value
    lip = float(prob.objective.lipschitz)
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
    return ValidatedConfig(rule=rule, gamma=gamma, sigma=sigma, rho=rho,
                           beta=params.beta, spectral=spectral, lipschitz=lip,
                           sigma_bound=sigma_bound,
                           convergence_certified=certified,
                           max_iter=params.max_iter, kkt_tol=params.kkt_tol,
                           cg_tol=params.cg_tol, record_every=params.record_every)


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

    The dual side is one p-row block ``hist`` holding ``lam_k``, ``A x_k``,
    ``lam_{k-1}``, ``A x_{k-1}`` and ``b`` in that order; ``lam_k``, ``ax_k``,
    ``lam_prev`` and ``ax_prev`` read its rows as views. Every dual vector of
    a step is a combination of these five rows with scalar weights, so
    :func:`step` forms them from products with the block. Each image row is
    bitwise equal to ``a_map.forward`` of its iterate. The n-column block
    ``adj`` holds the ``A*`` images of the five rows, row i bitwise equal to
    ``a_map.adjoint(hist[i])``. A step builds fresh blocks and never writes
    to its input's, so states passed to an observer stay as they were.
    """

    k: int
    x_k: Array
    x_prev: Array
    t_k: float
    hist: Array
    adj: Array

    @property
    def lam_k(self) -> Array:
        return self.hist[0]

    @property
    def ax_k(self) -> Array:
        return self.hist[1]

    @property
    def lam_prev(self) -> Array:
        return self.hist[2]

    @property
    def ax_prev(self) -> Array:
        return self.hist[3]


def initial_state(prob: Problem, rule: InertialRule, x_init: Array,
                  lam_init: Array) -> IterateState:
    """State at k=1; the two trailing iterates coincide with the initial point,
    whose image is one forward apply. The ``A*`` images of ``lam``, ``A x``
    and ``b`` are three adjoint applies."""
    x = np.array(x_init, dtype=float)
    lam = np.asarray(lam_init, dtype=float)
    a_map = prob.a_map
    ax = a_map.forward(x)
    at_lam, atax, atb = (a_map.adjoint(v) for v in (lam, ax, prob.b))
    return IterateState(k=1, x_k=x, x_prev=x.copy(), t_k=float(t_values(rule, 1)[0]),
                        hist=np.stack((lam, ax, lam, ax, prob.b)),
                        adj=np.stack((at_lam, atax, at_lam, atax, atb)))


@dataclass
class StepTrace:
    """What :func:`run` reads of one iteration besides the new state: the
    extrapolated point ``y_k`` and ``grad f(y_k)`` for the stop test's lower
    bound, and the inner solve's refinement corrections for the record."""

    y_k: Array
    grad_y: Array
    cg_iters: int


def step(prob: Problem, cfg: ValidatedConfig, st: IterateState) -> tuple[IterateState, StepTrace]:
    """Advance the recurrence from index k to k+1.

    The primal update solves the subproblem's stationarity system exactly (to
    the configured residual tolerance) by :func:`~falm.linalg.solve_spd` from
    ``cfg.spectral``; for a zero operator that is the accelerated gradient
    step ``y_k - sigma * grad f(y_k)`` up to rounding. The ``A*`` image of
    the dual argument is a product of five scalar weights with ``st.adj``;
    ``lam_{k+1}`` is a product of five others with ``st.hist`` plus a
    multiple of the image of ``x_{k+1}`` that the inner solve's residual
    check computed. The new state's blocks carry that image, its ``A*``
    image from the same check, and one adjoint apply to ``lam_{k+1}``.
    ``mu``, ``nu``, ``eta``, ``A y_k``, ``A z_{k+1}`` and the dual argument
    are never formed as vectors. A failed step raises :class:`StepError`
    carrying the iteration index and a reason. It is "non-finite iterate" when
    an iterate leaves the finite range, or when the inner solve fails with a
    residual that is not finite, as for a right-hand side with a NaN entry
    (a NaN gradient) or a closed form that overflows. A solve that misses its
    target with a finite residual is "inner solve failure". A finite solve
    residual proves ``x_{k+1}`` finite (see :func:`~falm.linalg.solve_spd`);
    only an infinite one, which needs a right-hand side whose norm overflows,
    leaves an entrywise test to run.
    """
    g, rho, beta = cfg.gamma, cfg.rho, cfg.beta
    t_k = st.t_k
    t_k1 = next_t(cfg.rule, t_k, st.k)
    momentum = (t_k - 1.0) / t_k1
    y = st.x_k + momentum * (st.x_k - st.x_prev)
    s_next = (rho / g) * t_k1 * (t_k1 - 1.0 + g)
    grad_y = prob.objective.gradient(y)
    hist, adj = st.hist, st.adj  # rows lam_k, A x_k, lam_{k-1}, A x_{k-1}, b
    # dual = beta (A y - b) + nu/gamma - (s/gamma) eta over the block's rows,
    # with c = (t_k - 1)/gamma and r = rho/gamma:
    #   A y           = (1 + momentum) A x_k - momentum A x_{k-1}
    #   nu/gamma      = lam_k + c (lam_k - lam_{k-1})
    #   (s/gamma) eta = (r/gamma) t_{k+1} (t_{k+1} - 1) A x_k + r t_{k+1} b
    # since eta = A x_k + gamma/(t_{k+1} - 1 + gamma) (b - A x_k).
    c = (t_k - 1.0) / g
    r = rho / g
    w_ax = beta * (1.0 + momentum) - (r / g) * t_k1 * (t_k1 - 1.0)
    # and A* dual is the same weights over the rows of adj
    adj_dual = np.dot(np.array((1.0 + c, w_ax, -c, -beta * momentum, -beta - r * t_k1)), adj)
    rhs = y / cfg.sigma - grad_y - adj_dual
    try:
        sol = solve_spd(prob.a_map, cfg.spectral, 1.0 / cfg.sigma, s_next / g, rhs,
                        tol=cfg.cg_tol)
    except SpdSolveError as exc:
        reason = "inner solve failure" if math.isfinite(exc.residual) else NON_FINITE
        raise StepError(st.k, f"primal subproblem solve failed: {exc}", reason) from exc
    x_next = sol.x

    # lam_{k+1} = mu + r (A z - gamma b), with
    #   mu  = lam_k + momentum (lam_k - lam_{k-1})
    #   A z = (t_{k+1} - 1 + gamma) A x_{k+1} - (t_{k+1} - 1) A x_k
    new = hist.take((0, 1, 0, 1, 4), axis=0)
    lam_next = new[0]
    np.dot(np.array((1.0 + momentum, -r * (t_k1 - 1.0), -momentum, 0.0, -rho)), hist,
           out=lam_next)
    lam_next += (r * (t_k1 - 1.0 + g)) * sol.ax
    x_finite = math.isfinite(sol.residual) or all_finite(x_next)
    if not (x_finite and all_finite(lam_next)):
        raise StepError(st.k, "iterate left the finite range (NaN or overflow)", NON_FINITE)
    new[1] = sol.ax
    new_adj = adj.take((0, 1, 0, 1, 4), axis=0)
    new_adj[0] = prob.a_map.adjoint(lam_next)
    new_adj[1] = sol.atax

    trace = StepTrace(y_k=y, grad_y=grad_y, cg_iters=sol.iterations)
    new_state = IterateState(k=st.k + 1, x_k=x_next, x_prev=st.x_k, t_k=t_k1, hist=new,
                             adj=new_adj)
    return new_state, trace


def _kkt_unless_ruled_out(prob: Problem, cfg: ValidatedConfig, st: IterateState,
                          trace: StepTrace, residual: Array) -> tuple[float, float] | None:
    """:func:`kkt_residuals` of ``st``, or None when a bound rules out both
    being within ``kkt_tol``.

    ``residual`` is ``A x_{k+1} - b``; its norm is the feasibility value the
    exact test compares, so a larger one rules the stop out at no cost.
    Otherwise the stationarity residual is bounded below from the step's
    ``grad f(y_k)`` and the state's ``A* lam`` (``st.adj[0]``): ``||grad f(x)
    + A* lam|| >= ||grad f(y) + A* lam|| - L||x - y||`` for a gradient with
    Lipschitz constant L, less a ``STOP_MARGIN`` allowance for the rounding of
    both gradients, the adjoint and the norms. The bound applies no map and
    calls no gradient; the exact test calls one gradient.
    """
    tol = cfg.kkt_tol
    if norm(residual) > tol:
        return None
    adj = st.adj[0]
    grad_y = trace.grad_y
    lip = cfg.lipschitz
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

    Every recorded state is measured one way, from the images it carries:
    ``A x_k - b`` and :func:`kkt_residuals` with ``A* lam_k``, and with a
    saddle point the gap, objective error and energy, which apply no map.
    Two runs with identical configuration produce bit-identical records. A
    failed step returns a partial result with ``reason`` set to the
    :class:`StepError`'s, "non-finite iterate" or "inner solve failure" (see
    :func:`step`), and the error message attached; its last record is the
    state before the failed step, with the corrections of the step that
    produced it.
    """
    if cfg is None:
        cfg = validate(prob, params)
    st = initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    if saddle is not None:
        star = diagnostics.saddle_terms(prob, as_vector(saddle[0], prob.n, "x_star"),
                                        as_vector(saddle[1], prob.p, "lam_star"))
    records: list[diagnostics.RunRecord] = []

    def measured(state: IterateState) -> tuple[Array, tuple[float, float]]:
        res = state.ax_k - prob.b
        return res, kkt_residuals(prob, state.x_k, state.lam_k, residual=res,
                                  adjoint=state.adj[0])

    def emit(state: IterateState, cg_iters: int, res: Array,
             kkt: tuple[float, float]) -> None:
        feas = kkt[1]
        if saddle is not None:
            gap_val = diagnostics.gap(prob, state.x_k, state.lam_k, star)
            obj_err = diagnostics.objective_error(prob, state.x_k, state.lam_k, star,
                                                  gap_val)
            energy_val = diagnostics.energy(cfg, state, star, gap_val, res)
        else:
            gap_val = obj_err = energy_val = None
        rec = diagnostics.RunRecord(k=state.k, t_k=state.t_k, gap=gap_val,
                                    feas=feas, obj_err=obj_err, kkt_grad=kkt[0],
                                    kkt_feas=feas, energy=energy_val,
                                    cg_iters=cg_iters)
        records.append(rec)
        if observer is not None:
            observer(rec, state)

    emit(st, 0, *measured(st))
    reason = "iteration budget"
    error = None
    for i in range(cfg.max_iter):
        try:
            st, trace = step(prob, cfg, st)
        except StepError as exc:
            reason = exc.reason
            error = str(exc)
            break
        due = (st.k % cfg.record_every == 0) or i == cfg.max_iter - 1
        kkt = None
        if due:
            res, kkt = measured(st)
        elif cfg.kkt_tol is not None:
            res = st.ax_k - prob.b
            kkt = _kkt_unless_ruled_out(prob, cfg, st, trace, res)
        stop = (cfg.kkt_tol is not None and kkt is not None
                and kkt[0] <= cfg.kkt_tol and kkt[1] <= cfg.kkt_tol)
        if due or stop:
            emit(st, trace.cg_iters, res, kkt)
        if stop:
            reason = "kkt tolerance"
            break
    if records[-1].k != st.k:  # a failed step left the last good state unrecorded
        emit(st, trace.cg_iters, *measured(st))
    return RunResult(x=st.x_k.copy(), lam=st.lam_k.copy(), iterations=st.k - 1,
                     reason=reason, records=records, error=error)

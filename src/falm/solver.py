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
image of the step's dual argument is the same weights times those rows.
``adj`` then carries the iterates ``x_k`` and ``x_{k-1}``, whose weights
``(1 + m_k)/sigma`` and ``-m_k/sigma`` give ``y_k/sigma`` for the momentum
ratio ``m_k``: seven rows, and the system's right-hand side
``y_k/sigma - A* dual`` is one product of weights with the block. A step
applies ``A*`` twice: to ``A x_{k+1}`` in the inner solve's residual check,
and to ``lam_{k+1}``. After :func:`initial_state`, only :func:`step` applies
the map: the stop test and every record, its energy included, read ``A
x_k``, ``A x_{k-1}`` and ``A* lam_k`` from the state.

For an objective with quadratic ``data`` the gradient is affine, so
``grad f(y_k) = (1 + m_k) grad f(x_k) - m_k grad f(x_{k-1})``. ``adj`` then
carries two more rows, ``grad f(x_k)`` and ``grad f(x_{k-1})``, each one
call at the iterate it belongs to: nine rows, and the same product, with
weights ``-(1 + m_k)`` and ``m_k`` on those rows, is the whole right-hand
side, so the step never forms ``y_k``: its :class:`StepTrace` computes
``y_k`` only when read. A step calls the gradient once, at
``x_{k+1}``, and the stop test and every record read ``grad f(x_k)`` from
the state, so the stop test is exact on every step. An objective without
``data`` has no such identity: a step forms ``y_k``, calls its gradient
there and subtracts it from the product, and the stop test bounds the
stationarity residual from it before it calls the gradient at ``x_k``.

Every rule fixes ``t_k`` in advance, so every scalar a step reads is known
before any iterate: ``t_{k+1}``, the momentum ratio, the weights over
``hist`` and ``adj``, the system scale ``s_{k+1}/gamma`` and the Woodbury
gains of the inner solve. :func:`step_block` builds them for ``BLOCK`` steps
at a time as arrays, with the operations of one step's scalar formulas in
the same order, so each row is bitwise what those formulas give; :func:`run`
builds one block per ``BLOCK`` steps and :func:`step` reads its row. A lone
:func:`step` call builds the one-row block of its state.

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

A run owns its state; several runs may proceed concurrently on a shared
immutable problem. A run whose objective keeps quadratic ``data`` with a
``Q`` of at least ``OVERLAP_BYTES`` starts one worker thread and joins it
before it returns or raises. Each step hands the worker its gradient call at
``x_{k+1}`` as soon as the inner solve's closed form gives that point, then
applies ``A`` and ``A*`` in the residual check and forms ``lam_{k+1}`` and
``A* lam_{k+1}`` while the gradient runs: ``lam_{k+1}`` needs only ``A
x_{k+1}``, the gradient feeds only the next step and the stop test, and BLAS
releases the interpreter lock, so the two gemv chains run at once. Outputs
cannot change: the worker calls the same gradient on the same array, which
nothing writes after the hand-over, and the step stores that result where
the inline call's went. A step whose refinement replaced the closed form
drops the worker's result and calls the gradient again at the final
``x_{k+1}``; every exit of the step waits for the worker first. Below the
threshold, without ``data`` and in a lone :func:`step`, the call is inline.
The observer receives the live
state each record was computed from, once per step block, in index order;
the run never changes a state after passing it on, and the observer must
not change it either, nor block the iteration beyond record serialization.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics
from .errors import SpdSolveError, StepError, ValidationError
from .inertial import InertialRule, min_margin, t_after, t_values
from .linalg import (Array, SpectralFactor, all_finite, as_vector, norm, op_norm_sq,
                     solve_spd)
from .problem import Problem, kkt_residuals

SIGMA_CONDITION = "σ ≤ γ/(L + γβ‖A‖²)"
NON_FINITE = "non-finite iterate"

# Relative rounding allowance of the lower bound that lets ``run`` skip the
# exact KKT stop test of an objective without ``data``. An affine gradient
# ``G v + c`` evaluated at v, with G and c rounded once when the objective was
# built (a least-squares ``M'M`` and ``-M'd``), is off by about
# n * eps * (2 L||v|| + ||grad f(v)||); this covers that, for both gradients,
# and the norms' rounding, by many orders of magnitude.
STOP_MARGIN = 1e-6

# Steps whose scalars one step block holds: a run builds a block every BLOCK
# steps, a shorter one when its budget ends sooner.
BLOCK = 256

# Smallest quadratic-form matrix Q, in bytes, for which run computes each
# step's grad f(x_{k+1}) on a worker thread while the step's own thread checks
# the inner solve and forms lam_{k+1}. The hand-over costs about 12 us a step,
# which a gradient pass over a smaller Q does not repay: per in-run cd4 step
# of constrained least-squares instances with p = n/5 (2 cores, BLAS on one
# thread), the worker loses at n = 400 (1.28 MB) and gains from n = 430
# (1.48 MB) on. 1.5 MiB: n >= 444 for an n-by-n float64 Q.
OVERLAP_BYTES = 3 * 2 ** 19

# The rows that a step's new hist and adj blocks copy from the old ones, by
# row count: lam, A x, x and grad f move back one index and b stays, then the
# new iterate's rows overwrite rows 0, 1, 5 and 7. take reads an index array
# faster than a tuple.
_NEXT_ROWS = {5: np.array((0, 1, 0, 1, 4), dtype=np.intp),
              7: np.array((0, 1, 0, 1, 4, 5, 5), dtype=np.intp),
              9: np.array((0, 1, 0, 1, 4, 5, 5, 7, 7), dtype=np.intp)}


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
    ``adj`` holds, in this order, the ``A*`` images of the five rows (``A*
    lam_k``, ``A*A x_k``, ``A* lam_{k-1}``, ``A*A x_{k-1}``, ``A* b``), row i
    bitwise equal to ``a_map.adjoint(hist[i])``, then the iterates ``x_k``
    and ``x_{k-1}``, which ``x_k`` and ``x_prev`` read as views: seven rows.
    For an objective with ``data`` it holds two rows more, ``grad f(x_k)``
    and ``grad f(x_{k-1})``, each bitwise ``objective.gradient`` of its
    iterate: nine rows. ``grad_k`` reads the first, and is None for the
    seven-row block of an objective without ``data``. So the right-hand side
    of a step's system is one product of weights with ``adj``. A step builds
    fresh blocks and never writes to its input's, so states passed to an
    observer stay as they were.
    """

    k: int
    t_k: float
    hist: Array
    adj: Array

    @property
    def x_k(self) -> Array:
        return self.adj[5]

    @property
    def x_prev(self) -> Array:
        return self.adj[6]

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

    @property
    def grad_k(self) -> Array | None:
        return self.adj[7] if len(self.adj) > 7 else None


def initial_state(prob: Problem, rule: InertialRule, x_init: Array,
                  lam_init: Array) -> IterateState:
    """State at k=1; the two trailing iterates coincide with the initial point,
    whose image is one forward apply. The ``A*`` images of ``lam``, ``A x``
    and ``b`` are three adjoint applies; an objective with ``data`` adds one
    gradient call, at the initial point."""
    x = np.asarray(x_init, dtype=float)
    lam = np.asarray(lam_init, dtype=float)
    a_map = prob.a_map
    ax = a_map.forward(x)
    at_lam, atax, atb = (a_map.adjoint(v) for v in (lam, ax, prob.b))
    rows = [at_lam, atax, at_lam, atax, atb, x, x]
    if prob.objective.data is not None:
        rows += [prob.objective.gradient(x)] * 2
    return IterateState(k=1, t_k=float(t_values(rule, 1)[0]),
                        hist=np.stack((lam, ax, lam, ax, prob.b)), adj=np.stack(rows))


@dataclass
class StepTrace:
    """What :func:`run` reads of one iteration besides the new state: the
    extrapolated point ``y_k`` and ``grad f(y_k)`` for the stop test's lower
    bound, and the inner solve's refinement corrections for the record.
    ``y_k`` is computed from the step's input ``state`` and ``momentum`` only
    when read, as ``x_k + momentum (x_k - x_{k-1})``: a step with ``data``
    never forms it. ``grad_y`` is None for an objective with ``data``, whose
    step never forms it as a vector and whose stop test is exact."""

    state: IterateState
    momentum: float
    grad_y: Array | None
    cg_iters: int

    @property
    def y_k(self) -> Array:
        x = self.state.x_k
        return x + self.momentum * (x - self.state.x_prev)


class _Overlap:
    """One run's worker thread for ``grad f(x_{k+1})``, which :func:`step`
    hands to :func:`~falm.linalg.solve_spd` as its ``started`` hook.

    A call hands the worker the inner solve's closed form. :meth:`result`
    returns the gradient at the step's final ``x_{k+1}``: the worker's, or,
    when refinement replaced the closed form, one called on the caller's
    thread after the worker's is dropped. :meth:`wait` waits for a handed-over
    call. The two locks pass the work and the outcome across, each held while
    its waiter has nothing to take; a round trip costs about half of one
    through a ``concurrent.futures`` executor. On exit from a ``with`` block
    the thread stops and is joined.
    """

    def __init__(self, gradient: Callable[[Array], Array]):
        self.gradient = gradient
        self.x = self.out = None
        self.busy = False
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.thread = threading.Thread(target=self._serve, name="falm-gradient")
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self.go.acquire()
            if self.x is None:  # set by __exit__
                return
            try:
                self.out = (self.gradient(self.x), None)
            except BaseException as exc:  # raised on the caller's thread by result
                self.out = (None, exc)
            self.done.release()

    def __call__(self, x: Array) -> None:
        self.x, self.busy = x, True
        self.go.release()

    def wait(self) -> tuple:
        """The ``(gradient, exception)`` of the handed-over call, once it ended."""
        if self.busy:
            self.done.acquire()
            self.busy = False
        return self.out

    def result(self, x: Array) -> Array:
        grad, exc = self.wait()
        if x is not self.x:
            return self.gradient(x)
        if exc is not None:
            raise exc
        return grad

    def __enter__(self) -> "_Overlap":
        return self

    def __exit__(self, *exc) -> None:
        self.wait()
        self.x = None
        self.go.release()
        self.thread.join()


def _overlap(prob: Problem):
    """The context of a run's steps: an :class:`_Overlap` when the objective's
    quadratic ``data`` holds a ``Q`` of at least ``OVERLAP_BYTES`` and the
    process may run on at least two CPUs (``os.sched_getaffinity`` where the
    platform has it, else ``os.cpu_count``), else one that gives None."""
    data = prob.objective.data
    if data is None or data[1].nbytes < OVERLAP_BYTES:
        return nullcontext()
    affinity = getattr(os, "sched_getaffinity", None)
    if (len(affinity(0)) if affinity else os.cpu_count() or 1) < 2:
        return nullcontext()  # the worker would only take turns with this thread
    return _Overlap(prob.objective.gradient)


class StepBlock(NamedTuple):
    """The scalars of the steps from index ``k`` on, one row per step, as
    :func:`step_block` builds them.

    Row i belongs to the step from index ``k + i`` and is the tuple
    ``(t_{k+i+1}, momentum, scale, ax_weight, adj_weights, hist_weights,
    gain)``: the momentum ratio ``(t - 1)/t_{k+i+1}`` of that step's ``t``,
    the system scale ``s_{k+i+1}/gamma`` of its inner solve, the weight of
    ``A x_{k+i+1}`` in ``lam_{k+i+1}``, the weights over ``adj`` whose
    product with it is the right-hand side of the step's system, the five
    weights over ``hist``, and the
    :meth:`~falm.linalg.SpectralFactor.gains` row of the scale. The scalars
    are Python floats and the weight and gain rows are views of one array
    each. The ``adj`` weights take the block's rows in order: the negated
    weights of the dual argument over the ``A*`` images of ``lam_k``, ``A
    x_k``, ``lam_{k-1}``, ``A x_{k-1}`` and ``b``; ``(1 + m)/sigma`` and
    ``-m/sigma`` over ``x_k`` and ``x_{k-1}``, which give ``y_k/sigma``; and,
    with ``data``, ``-(1 + m)`` and ``m`` over ``grad f(x_k)`` and ``grad
    f(x_{k-1})``, which give ``-grad f(y_k)``: nine weights, seven without
    ``data``.
    """

    k: int
    rows: list[tuple]


def step_block(cfg: ValidatedConfig, st: IterateState, count: int) -> StepBlock:
    """The :class:`StepBlock` of the ``count`` steps from ``st``.

    The rules fix ``t`` in advance (:func:`~falm.inertial.t_after`, from
    ``st.t_k``), so every scalar a step reads is known before any iterate.
    Each column is built with the operations, in the order, that one step's
    scalar formula takes, so a row is bitwise what that formula gives. ``st``
    sets the layout: nine weights over ``adj`` for a state that carries
    gradient rows, seven otherwise.
    """
    g, rho, beta, sigma = cfg.gamma, cfg.rho, cfg.beta, cfg.sigma
    t_k1 = t_after(cfg.rule, st.t_k, st.k, count)
    # each subexpression that several columns share is formed once
    t_k_m1 = np.concatenate(([st.t_k], t_k1[:-1])) - 1.0
    t_k1_m1 = t_k1 - 1.0
    t_k1_m1_g = t_k1_m1 + g
    momentum = t_k_m1 / t_k1
    one_plus_m = 1.0 + momentum
    minus_m = -momentum
    # The step's right-hand side is y/sigma - A* dual - grad f(y), with
    # y = (1 + momentum) x_k - momentum x_{k-1} and dual = beta (A y - b)
    # + nu/gamma - (s/gamma) eta over hist's rows, for c = (t_k - 1)/gamma and
    # r = rho/gamma:
    #   A y           = (1 + momentum) A x_k - momentum A x_{k-1}
    #   nu/gamma      = lam_k + c (lam_k - lam_{k-1})
    #   (s/gamma) eta = (r/gamma) t_{k+1} (t_{k+1} - 1) A x_k + r t_{k+1} b
    # since eta = A x_k + gamma/(t_{k+1} - 1 + gamma) (b - A x_k). A* dual is
    # the same weights over adj's image rows, negated here; the x rows follow.
    # With data, adj adds grad f(x_k) and grad f(x_{k-1}), and grad f(y)
    # = (1 + momentum) grad f(x_k) - momentum grad f(x_{k-1}).
    c = t_k_m1 / g
    r = rho / g
    w_ax = beta * one_plus_m - (r / g) * t_k1 * t_k1_m1
    adj_weights = (-(1.0 + c), -w_ax, c, beta * momentum, beta + r * t_k1,
                   one_plus_m / sigma, minus_m / sigma, -one_plus_m,
                   momentum)[:len(st.adj)]
    # lam_{k+1} = mu + r (A z - gamma b), with
    #   mu  = lam_k + momentum (lam_k - lam_{k-1})
    #   A z = (t_{k+1} - 1 + gamma) A x_{k+1} - (t_{k+1} - 1) A x_k
    hist_weights = (one_plus_m, -r * t_k1_m1, minus_m, np.zeros(count),
                    np.full(count, -rho))
    scale = r * t_k1 * t_k1_m1_g / g
    gains = cfg.spectral.gains(1.0 / sigma, scale)
    rows = list(zip(t_k1.tolist(), momentum.tolist(), scale.tolist(),
                    (r * t_k1_m1_g).tolist(), np.column_stack(adj_weights),
                    np.column_stack(hist_weights), gains))
    return StepBlock(st.k, rows)


def step(prob: Problem, cfg: ValidatedConfig, st: IterateState,
         block: StepBlock | None = None,
         overlap: _Overlap | None = None) -> tuple[IterateState, StepTrace]:
    """Advance the recurrence from index k to k+1.

    Every scalar of the step, ``t_{k+1}`` and its weights, comes from row
    ``k - block.k`` of ``block``, a :func:`step_block` of an earlier state of
    the same run that covers index k (a ``ValueError`` otherwise); :func:`run`
    builds one every ``BLOCK`` steps. Without ``block`` the step builds the
    one-row block of ``st``.

    The primal update solves the subproblem's stationarity system exactly (to
    the configured residual tolerance) by :func:`~falm.linalg.solve_spd` from
    ``cfg.spectral`` and the row's gains; for a zero operator that is the
    accelerated gradient step ``y_k - sigma * grad f(y_k)`` up to rounding.
    The system's right-hand side ``y_k/sigma - A* dual - grad f(y_k)`` is one
    product of the row's weights with ``st.adj`` (see :class:`StepBlock`):
    over the ``A*`` images it gives minus the image of the dual argument,
    over the rows ``x_k`` and ``x_{k-1}`` it gives ``y_k/sigma``, and over the
    gradient rows of an objective with ``data`` it gives ``-grad f(y_k)``.
    Without ``data`` the step forms ``y_k``, calls the gradient there and
    subtracts it. ``lam_{k+1}`` is a product of five weights with ``st.hist``
    plus a multiple of the image of ``x_{k+1}`` that the inner solve's
    residual check computed. The new state's blocks carry that image, its
    ``A*`` image from the same check, one adjoint apply to ``lam_{k+1}``,
    ``x_{k+1}`` and, with ``data``, one gradient call at ``x_{k+1}``; each
    block is one ``take`` of the old one's rows with the new rows written in.
    ``mu``, ``nu``, ``eta``, ``A y_k``, ``A z_{k+1}``, the dual argument and,
    with ``data``, ``y_k`` and ``grad f(y_k)`` are never formed as vectors:
    the trace computes ``y_k`` when it is read. ``overlap``
    is the run's worker thread for that gradient call, which :func:`run`
    passes for an objective whose ``Q`` holds at least ``OVERLAP_BYTES``;
    without it the call is inline. A failed step
    raises :class:`StepError` carrying the iteration index and a reason. It
    is "non-finite iterate" when an iterate or the gradient at ``x_{k+1}``
    leaves the finite range, or when the inner solve fails with a residual
    that is not finite, as for a right-hand side with a NaN entry (a NaN
    gradient) or a closed form that overflows. A solve that misses its
    target with a finite residual is "inner solve failure". A finite solve
    residual proves ``x_{k+1}`` finite (see :func:`~falm.linalg.solve_spd`);
    only an infinite one, which needs a right-hand side whose norm overflows,
    leaves an entrywise test to run.
    """
    if block is None:
        block = step_block(cfg, st, 1)
    row = st.k - block.k
    if not 0 <= row < len(block.rows):
        raise ValueError(f"the step block of indices {block.k} to "
                         f"{block.k + len(block.rows) - 1} does not cover k={st.k}")
    t_k1, momentum, scale, ax_weight, adj_weights, hist_weights, gain = block.rows[row]
    # hist: lam_k, A x_k, lam_{k-1}, A x_{k-1}, b; adj: their A* images, x_k,
    # x_{k-1} and, for an objective with data, grad f(x_k) and grad f(x_{k-1}),
    # and its layout alone picks the path below
    hist, adj = st.hist, st.adj
    affine = st.grad_k is not None
    rhs = adj_weights.dot(adj)
    if affine:
        grad_y = None
        started = overlap
    else:
        grad_y = prob.objective.gradient(st.x_k + momentum * (st.x_k - st.x_prev))
        rhs -= grad_y
        started = None
    try:
        try:
            sol = solve_spd(prob.a_map, cfg.spectral, 1.0 / cfg.sigma, scale, rhs,
                            tol=cfg.cg_tol, gain=gain, started=started)
        except SpdSolveError as exc:
            reason = "inner solve failure" if math.isfinite(exc.residual) else NON_FINITE
            raise StepError(st.k, f"primal subproblem solve failed: {exc}", reason) from exc
        x_next = sol.x

        new = hist.take(_NEXT_ROWS[5], axis=0)
        lam_next = new[0]
        hist_weights.dot(hist, out=lam_next)
        lam_next += ax_weight * sol.ax
        x_finite = math.isfinite(sol.residual) or all_finite(x_next)
        if not (x_finite and all_finite(lam_next)):
            raise StepError(st.k, "iterate left the finite range (NaN or overflow)",
                            NON_FINITE)
        new[1] = sol.ax
        new_adj = adj.take(_NEXT_ROWS[len(adj)], axis=0)
        new_adj[0] = prob.a_map.adjoint(lam_next)
        new_adj[1] = sol.atax
        new_adj[5] = x_next
        if affine:
            new_adj[7] = grad_next = (prob.objective.gradient(x_next) if started is None
                                      else started.result(x_next))
            if not all_finite(grad_next):
                raise StepError(st.k, "gradient at the new iterate is not finite",
                                NON_FINITE)
    except BaseException:
        # the worker may still read x_{k+1}: every exit waits for it
        if started is not None:
            started.wait()
        raise

    return (IterateState(k=st.k + 1, t_k=t_k1, hist=new, adj=new_adj),
            StepTrace(st, momentum, grad_y, sol.iterations))


def _kkt_unless_ruled_out(prob: Problem, cfg: ValidatedConfig, st: IterateState,
                          trace: StepTrace, residual_sq: float) -> tuple[float, float] | None:
    """:func:`kkt_residuals` of ``st``, or None when a bound rules out both
    being within ``kkt_tol``.

    ``residual_sq`` is ``||A x_{k+1} - b||^2``; its root is the feasibility
    value the exact test compares, so a larger one rules the stop out at no
    cost. A state that carries ``grad f(x)`` (``st.grad_k``, an objective with
    ``data``) then takes the exact test, which applies no map and calls no
    gradient. Otherwise the stationarity residual is bounded below from the
    step's ``grad f(y_k)`` and the state's ``A* lam`` (``st.adj[0]``):
    ``||grad f(x) + A* lam|| >= ||grad f(y) + A* lam|| - L||x - y||`` for a
    gradient with Lipschitz constant L, less a ``STOP_MARGIN`` allowance for
    the rounding of both gradients, the adjoint and the norms. The bound
    applies no map and calls no gradient; the exact test then calls one
    gradient.
    """
    tol = cfg.kkt_tol
    if math.sqrt(residual_sq) > tol:
        return None
    adj, grad = st.adj[0], st.grad_k
    if grad is None:
        grad_y = trace.grad_y
        lip = cfg.lipschitz
        y = trace.y_k
        margin = STOP_MARGIN * (norm(grad_y) + norm(adj) + lip * (norm(st.x_k) + norm(y)))
        lower = norm(grad_y + adj) - lip * norm(st.x_k - y) - margin
        if lower > tol:
            return None
    return kkt_residuals(prob, st.x_k, st.lam_k, residual_sq=residual_sq, adjoint=adj,
                         gradient=grad)


class _StateRows(NamedTuple):
    """The vectors of several states stacked one state per row, and their
    ``t_k``: what :func:`~falm.diagnostics.energy` reads of a state."""

    x_k: Array
    x_prev: Array
    t_k: Array
    lam_k: Array
    ax_k: Array
    lam_prev: Array
    ax_prev: Array

    @classmethod
    def of(cls, states: list[IterateState]) -> "_StateRows":
        count = len(states)
        # hist rows 0-3 are lam_k, A x_k, lam_{k-1} and A x_{k-1}, the last
        # four fields in order
        hist = np.concatenate([st.hist for st in states]).reshape(count, 5, -1)
        return cls(np.concatenate([st.x_k for st in states]).reshape(count, -1),
                   np.concatenate([st.x_prev for st in states]).reshape(count, -1),
                   np.array([st.t_k for st in states]), *hist.transpose(1, 0, 2)[:4])


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

    Every recorded state is measured one way, from the images it carries.
    When it is due, ``A x_k - b`` and :func:`kkt_residuals` with ``A* lam_k``
    and, for an objective with ``data``, ``grad f(x_k)``: what the stop test
    reads. The state then waits, with its KKT pair and refinement count, until
    the next step block starts, the run stops or its trailing record is
    taken, so at most ``BLOCK`` due states are held. There the waiting states
    are stacked and, with a saddle point, their gap, objective error and
    energy are computed in one call each, which apply no map; then their
    records are built and passed to the observer in index order. So records
    and observer calls come once per step block, at most ``BLOCK`` steps after
    their state, and a row's values do not depend on the rows it was stacked
    with (see :mod:`falm.diagnostics`).
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
    # states due for a record since the last flush, each with its refinement
    # corrections, ||A x_k - b||^2 and KKT pair
    pending: list[tuple[IterateState, int, float, tuple[float, float]]] = []

    def measured(state: IterateState) -> tuple[float, tuple[float, float]]:
        res = state.ax_k - prob.b
        res_sq = float(res.dot(res))
        return res_sq, kkt_residuals(prob, state.x_k, state.lam_k, residual_sq=res_sq,
                                     adjoint=state.adj[0], gradient=state.grad_k)

    def flush() -> None:
        if saddle is not None and pending:
            rows = _StateRows.of([entry[0] for entry in pending])
            gap = diagnostics.gap(prob, rows.x_k, rows.lam_k, star)
            energy = diagnostics.energy(cfg, rows, star, gap, rows.ax_k - prob.b,
                                        np.array([entry[2] for entry in pending]))
            measures = zip(gap.value.tolist(),
                           diagnostics.objective_error(star, gap).tolist(), energy.tolist())
        else:
            measures = [(None, None, None)] * len(pending)
        for (state, cg_iters, _, (kkt_grad, feas)), (gap_val, obj_err, energy_val) in zip(
                pending, measures):
            rec = diagnostics.RunRecord(k=state.k, t_k=state.t_k, gap=gap_val,
                                        feas=feas, obj_err=obj_err, kkt_grad=kkt_grad,
                                        kkt_feas=feas, energy=energy_val,
                                        cg_iters=cg_iters)
            records.append(rec)
            if observer is not None:
                observer(rec, state)
        pending.clear()

    pending.append((st, 0, *measured(st)))
    recorded = st.k
    reason = "iteration budget"
    error = None
    with _overlap(prob) as overlap:
        for i in range(cfg.max_iter):
            if i % BLOCK == 0:
                flush()
                block = step_block(cfg, st, min(BLOCK, cfg.max_iter - i))
            try:
                st, trace = step(prob, cfg, st, block, overlap)
            except StepError as exc:
                reason = exc.reason
                error = str(exc)
                break
            due = (st.k % cfg.record_every == 0) or i == cfg.max_iter - 1
            kkt = None
            if due:
                res_sq, kkt = measured(st)
            elif cfg.kkt_tol is not None:
                res = st.ax_k - prob.b
                res_sq = float(res.dot(res))
                kkt = _kkt_unless_ruled_out(prob, cfg, st, trace, res_sq)
            stop = (cfg.kkt_tol is not None and kkt is not None
                    and kkt[0] <= cfg.kkt_tol and kkt[1] <= cfg.kkt_tol)
            if due or stop:
                pending.append((st, trace.cg_iters, res_sq, kkt))
                recorded = st.k
            if stop:
                reason = "kkt tolerance"
                break
    if recorded != st.k:  # a failed step left the last good state unrecorded
        pending.append((st, trace.cg_iters, *measured(st)))
    flush()
    return RunResult(x=st.x_k.copy(), lam=st.lam_k.copy(), iterations=st.k - 1,
                     reason=reason, records=records, error=error)

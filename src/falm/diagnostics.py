"""Analysis quantities computed against a known primal-dual solution.

Everything here reads iterates and never changes them, so the diagnostic path
cannot perturb a run. The central object is the energy: a Lyapunov-type
scalar combining the scaled augmented-Lagrangian gap, distances of the
extrapolated primal/dual states measured in the solver's metric, and a dual
velocity term. Along a valid run it is nonincreasing when evaluated at a
saddle point, which is what the acceptance suite verifies.

The gap, objective error and energy compare nearly equal Lagrangian values,
and the energy scales the gap by ``t_k^2``. So they are computed from ``d =
x - x*``, the vectors at ``(x*, lam*)`` that :func:`saddle_terms` forms once,
and the Bregman distance ``D_f(x, x*)``. Only the Bregman term depends on
the objective's form (:func:`_bregman`): ``0.5 d'Qd`` from
``Objective.data``, exact with no large terms cancelling, and a difference of
values without it.

Only :func:`saddle_terms` applies the constraint map, once each way per run.
The energy's seminorms take their images from the caller: ``A (x_k - x*)``
is ``(A x_k - b) - (A x* - b)``, and ``A (x_k - x_{k-1})`` is the difference
of the images an :class:`~falm.solver.IterateState` carries.

:func:`gap`, :func:`objective_error` and :func:`energy` take one point or a
stack of R points, one per row, and return one value per row; a 1-d call is
the one-row case of the same code. :func:`~falm.solver.run` keeps the states
due for a record and measures them in one call each per step block, at most
``BLOCK`` states at a time. A row's value does not depend on the rows that
share its stack: every inner product is one dot product per row
(:func:`_dots`), and the Bregman term takes ``Q d`` with one matrix-vector
product, or ``f(x)`` with one value call, per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .linalg import Array
from .problem import Problem, _check_dims


def _dots(u: Array, v: Array) -> Array:
    """Inner products ``<u_r, v_r>`` of the rows of ``u`` and ``v``, one value
    per row; either may be one vector that every row of the other meets.

    A stack of (1 x n)(n x 1) products: ``np.matmul`` takes one dot product
    per row, the one a lone pair of vectors takes, so a row's value does not
    depend on the other rows. ``np.einsum`` does not guarantee that: it splits
    rows longer than its 8192-element buffer depending on the stack.
    """
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def _row_products(q: Array, d: Array) -> Array:
    """``Q d_r`` for each row of ``d``: a stack of (n x n)(n x 1) products,
    one matrix-vector product per row, as for a lone vector (a single matrix
    product over all rows would change each row with the row count)."""
    return np.matmul(q, d[..., :, None])[..., 0]


def q_norm_sq(params, u: Array, au: Array) -> Array:
    """Squared seminorm ``<u,u>/sigma - beta ||A u||^2`` of a primal vector
    ``u`` whose image ``au = A u`` the caller already holds, one value per row
    of a stack of them.

    ``params`` must expose ``sigma`` and ``beta`` (a validated solver config
    does). The operator ``(1/sigma) Id - beta A*A`` is positive semidefinite
    whenever sigma satisfies its admissibility bound (then ``1/sigma >= L/gamma
    + beta ||A||^2``).
    """
    return (1.0 / params.sigma) * _dots(u, u) - params.beta * _dots(au, au)


@dataclass
class RunRecord:
    """One diagnostics row of a solver run.

    ``gap``, ``obj_err`` and ``energy`` need a reference saddle point and are
    None when the run had no oracle attached. ``kkt_feas`` equals ``feas``
    (both are ``||A x_k - b||``); it is kept so the CSV schema stays fixed,
    as is the name ``cg_iters``, which counts the inner solve's refinement
    corrections.
    """

    k: int
    t_k: float
    gap: float | None
    feas: float
    obj_err: float | None
    kkt_grad: float
    kkt_feas: float
    energy: float | None
    cg_iters: int


class SaddleTerms(NamedTuple):
    """A reference point ``(x*, lam*)`` and the evaluations there that every
    record reuses.

    ``x`` and ``lam`` are the point, ``residual`` is ``A x* - b`` and
    ``residual_sq`` its squared norm, ``adjoint`` is ``A* lam*`` and
    ``dual_grad`` is ``grad f(x*) + A* lam*``. ``bregman(x, d)`` is the
    Bregman distance ``D_f(x, x*)`` with ``d = x - x*``, one value per row of
    a stack; it holds ``f(x*)`` only for an objective without ``data``.
    """

    x: Array
    lam: Array
    residual: Array
    residual_sq: float
    adjoint: Array
    dual_grad: Array
    bregman: Callable[[Array, Array], Array]


def _bregman(prob: Problem, x_star: Array,
             grad_star: Array) -> Callable[[Array, Array], Array]:
    """``D_f(x, x*) = f(x) - f(x*) - <grad f(x*), d>`` as a function of ``x``
    and ``d = x - x*``, one value per row; the only diagnostics code that
    reads ``Objective.data``.

    With ``data = ("quadratic", Q, c)`` it is ``0.5 d'Qd``: one Hessian
    product per row, no value call, and no cancellation. Without, it is a
    difference of values: ``f(x*)`` is taken here, once, and each row takes
    one value call, ``f(x)``.
    """
    obj = prob.objective
    if obj.data is None:
        f_star = obj.value(x_star)

        def by_values(x: Array, d: Array) -> Array:
            values = np.array([obj.value(row) for row in x.reshape(-1, prob.n)])
            return values.reshape(x.shape[:-1]) - f_star - _dots(d, grad_star)
        return by_values
    q = obj.data[1]
    return lambda x, d: 0.5 * _dots(d, _row_products(q, d))


def saddle_terms(prob: Problem, x_star: Array, lam_star: Array) -> SaddleTerms:
    """The :class:`SaddleTerms` of ``(x_star, lam_star)``: one forward apply,
    one adjoint, one gradient, and one value for an objective without
    ``data``."""
    residual = prob.a_map.forward(x_star) - prob.b
    adjoint = prob.a_map.adjoint(lam_star)
    grad = prob.objective.gradient(x_star)
    return SaddleTerms(x_star, lam_star, residual, float(residual.dot(residual)),
                       adjoint, grad + adjoint, _bregman(prob, x_star, grad))


class Gap(NamedTuple):
    """The primal-dual gap of ``(x, lam)`` (``value``) and the terms of it
    that :func:`objective_error` and :func:`energy` reuse: ``d = x - x*``,
    ``dual = lam* - lam`` and ``dual_term = <lam* - lam, A x* - b>``. For
    stacks of points each holds one value or vector per row."""

    value: Array
    d: Array
    dual: Array
    dual_term: Array


def gap(prob: Problem, x: Array, lam: Array, star: SaddleTerms) -> Gap:
    """Primal-dual gap ``L(x, lam*) - L(x*, lam)``; nonnegative at saddle points.

    ``x`` and ``lam`` are one point or stacks of R points, one per row, and
    the gap has one value per row. With ``d = x - x*`` it is ``D_f(x, x*) +
    <grad f(x*) + A* lam*, d> + <lam* - lam, A x* - b>`` for any f, the
    Bregman term ``D_f`` from ``star.bregman``. The two inner products are
    small near a saddle point, where ``grad f(x*) + A* lam*`` and ``A x* - b``
    vanish. Returned as a :class:`Gap` with the terms it formed.
    """
    _check_dims(prob, x, lam)
    d = x - star.x
    dual = star.lam - lam
    dual_term = _dots(dual, star.residual)
    value = star.bregman(x, d) + _dots(d, star.dual_grad) + dual_term
    return Gap(value, d, dual, dual_term)


def objective_error(star: SaddleTerms, gap: Gap) -> Array:
    """Objective error ``|f(x) - f(x*)|`` read off the :func:`gap` of ``(x,
    lam)``, one value per row of a stack.

    With ``d = x - x*``, ``f(x) - f(x*) = gap - <A* lam*, d> - <lam* - lam, A
    x* - b>``, so it needs no oracle call of its own and takes ``d`` and the
    last inner product from ``gap``; ``lam`` enters only through rounding.
    """
    return np.abs(gap.value - _dots(gap.d, star.adjoint) - gap.dual_term)


def energy(params, state, star: SaddleTerms, gap: Gap, residual: Array,
           residual_sq: float | Array) -> Array:
    """Energy of ``state`` at the reference point of ``star``, one value per
    row of a stack of states.

    ``state`` exposes ``x_k``, ``x_prev``, ``lam_k``, ``lam_prev``, ``t_k``
    and the images ``ax_k`` and ``ax_prev``, as an
    :class:`~falm.solver.IterateState` does, or stacks of them with one state
    per row (and an array ``t_k``); ``params`` must expose
    ``gamma``, ``sigma``, ``rho`` and ``beta`` (a validated solver config
    does). ``gap`` is the :func:`gap` of ``(x_k, lam_k)``, whose ``d`` and
    ``dual`` the energy reuses, ``residual`` is ``A x_k - b`` and
    ``residual_sq`` its squared norm (the dot
    :func:`~falm.problem.kkt_residuals` takes for the feasibility), each per
    row. No map is applied: ``A (x_k - x*)`` is ``residual - star.residual``
    and ``A (x_k - x_prev)`` is ``ax_k - ax_prev``. The reference point must
    be a saddle point for the monotonicity and bound properties to hold. The
    augmented gap is the gap plus ``(beta/2)(||A x_k - b||^2 - ||A x* -
    b||^2)``.
    """
    g = params.gamma
    rho = params.rho
    t_k = np.asarray(state.t_k)
    t1 = t_k - 1.0
    t1_rows = t1[..., None]  # t_k - 1 against each row's vectors
    gap_beta = gap.value + 0.5 * params.beta * (residual_sq - star.residual_sq)
    d_x = gap.d
    a_dx = residual - star.residual
    d_z = g * d_x + t1_rows * (state.x_k - state.x_prev)  # z_k - gamma x*
    a_dz = g * a_dx + t1_rows * (state.ax_k - state.ax_prev)
    d_lam = gap.dual  # lam* - lam_k
    d_lam_prev = state.lam_k - state.lam_prev
    d_nu = t1_rows * d_lam_prev - g * d_lam  # nu_k - gamma lam*
    return (t_k * (t1 + g) * gap_beta
            + 0.5 * q_norm_sq(params, d_z, a_dz)
            + 0.5 / rho * _dots(d_nu, d_nu)
            + 0.5 * g * (1.0 - g) * q_norm_sq(params, d_x, a_dx)
            + 0.5 * g * (1.0 - g) / rho * _dots(d_lam, d_lam)
            + 0.5 * (1.0 - g) / rho * t1 * _dots(d_lam_prev, d_lam_prev))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(value) against log(k) over a window.

    ``n_used`` records entered the fit, from index ``k_first`` to ``k_last``;
    ``n_excluded`` records in the window sat in rounding noise, relative to
    the field's largest value there.
    """

    slope: float
    r2: float
    n_used: int
    n_excluded: int
    k_first: int
    k_last: int


def _loglog_fit(ks: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    lx = np.log(ks)
    ly = np.log(values)
    lx_c = lx - lx.mean()
    ly_c = ly - ly.mean()
    denom = float(np.dot(lx_c, lx_c))
    if denom == 0.0:
        raise ValueError("window contains a single distinct index")
    slope = float(np.dot(lx_c, ly_c)) / denom
    ss_res = float(np.sum((ly_c - slope * lx_c) ** 2))
    ss_tot = float(np.dot(ly_c, ly_c))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, r2


# Relative level, against the largest value of a field in the fit window, at
# or below which a value is taken as rounding noise.
NEAR_ZERO = 1e-14


def rate_fit(records, field: str, k_min: int, k_max: int) -> RateFit:
    """Fit the decay exponent of ``field`` over recorded indices in [k_min, k_max].

    Values at or below ``max(0, NEAR_ZERO * v_max)``, with ``v_max`` the
    field's largest value in the window, sit in rounding noise and are
    excluded (their count is reported), so rescaling the data leaves the fit
    unchanged; at least 10 usable records are required.
    """
    ks = []
    vals = []
    for rec in records:
        if not (k_min <= rec.k <= k_max):
            continue
        v = getattr(rec, field)
        if v is not None:
            ks.append(rec.k)
            vals.append(v)
    ks = np.array(ks, dtype=float)
    vals = np.array(vals, dtype=float)
    keep = vals > max(0.0, NEAR_ZERO * vals.max(initial=0.0))
    n_excluded = int(keep.size - keep.sum())
    ks, vals = ks[keep], vals[keep]
    if ks.size < 10:
        raise ValueError(f"too few usable records in window [{k_min}, {k_max}]: "
                         f"{ks.size} usable, {n_excluded} excluded")
    slope, r2 = _loglog_fit(ks, vals)
    return RateFit(slope=slope, r2=r2, n_used=int(ks.size), n_excluded=n_excluded,
                   k_first=int(ks.min()), k_last=int(ks.max()))


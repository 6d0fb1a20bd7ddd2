"""Analysis quantities computed against a known primal-dual solution.

Everything here reads iterates and never changes them, so the diagnostic path
cannot perturb a run. The central object is the energy: a Lyapunov-type
scalar combining the scaled augmented-Lagrangian gap, distances of the
extrapolated primal/dual states measured in the solver's metric, and a dual
velocity term. Along a valid run it is nonincreasing when evaluated at a
saddle point, which is what the acceptance suite verifies.

The gap, objective error and energy compare nearly equal Lagrangian values,
and the energy scales the gap by ``t_k^2``. For an objective that keeps its
dense description (``Objective.data``) they are computed in identity form,
from ``d = x - x*``, one Hessian product and the vectors at ``(x*, lam*)``
that :func:`saddle_terms` forms once, so no large terms cancel. Any other
objective keeps the difference form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .linalg import Array, LinearMap
from .problem import Problem, _check_dims, half_curvature, lagrangian


def q_norm_sq(prob: Problem, params, u: Array) -> float:
    """Squared seminorm ``<u,u>/sigma - beta ||A u||^2`` of a primal vector.

    ``params`` must expose ``sigma`` and ``beta`` (a validated solver config
    does) and ``A`` is ``prob.a_map``. The operator ``(1/sigma) Id - beta A*A``
    is positive semidefinite whenever sigma satisfies its admissibility bound
    (then ``1/sigma >= L/gamma + beta ||A||^2``).
    """
    if u.size != prob.n:
        raise DimensionMismatch(f"vector has dimension {u.size}, expected {prob.n}")
    out = (1.0 / params.sigma) * float(u.dot(u))
    if params.beta != 0.0:
        au = prob.a_map.forward(u)
        out -= params.beta * float(au.dot(au))
    return out


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
    """Evaluations at a reference point ``(x*, lam*)`` that every record reuses.

    ``residual`` is ``A x* - b`` and ``residual_sq`` its squared norm. For an
    objective that keeps ``data`` (the identity form) ``adjoint`` is ``A*
    lam*``, ``dual_grad`` is ``grad f(x*) + A* lam*`` and ``value`` is None.
    For any other objective (the difference form) ``value`` is ``f(x*)`` and
    the two vectors are None.
    """

    residual: Array
    residual_sq: float
    value: float | None
    adjoint: Array | None
    dual_grad: Array | None


def saddle_terms(prob: Problem, x_star: Array, lam_star: Array) -> SaddleTerms:
    """The :class:`SaddleTerms` of ``(x_star, lam_star)``: one forward apply,
    plus one gradient and one adjoint (identity form) or one value (difference
    form)."""
    residual = prob.a_map.forward(x_star) - prob.b
    residual_sq = float(residual.dot(residual))
    if prob.objective.data is None:
        return SaddleTerms(residual, residual_sq, prob.objective.value(x_star), None, None)
    adjoint = prob.a_map.adjoint(lam_star)
    return SaddleTerms(residual, residual_sq, None, adjoint,
                       prob.objective.gradient(x_star) + adjoint)


def gap(prob: Problem, x: Array, lam: Array, x_star: Array, lam_star: Array, *,
        at_star: SaddleTerms | None = None) -> float:
    """Primal-dual gap ``L(x, lam*) - L(x*, lam)``; nonnegative at saddle points.

    With ``d = x - x*`` and ``H`` the objective's Hessian, the identity form
    is ``0.5 d'Hd + <grad f(x*) + A* lam*, d> + <lam* - lam, A x* - b>``:
    exact for a quadratic objective and free of the cancellation between the
    two nearly equal Lagrangian values. It needs one Hessian product and no
    value oracle. An objective without ``data`` keeps the difference form.
    ``at_star`` may supply :func:`saddle_terms` of ``(x_star, lam_star)``.
    """
    _check_dims(prob, x, lam)
    if at_star is None:
        at_star = saddle_terms(prob, x_star, lam_star)
    data = prob.objective.data
    if data is None:
        return (lagrangian(prob, x, lam_star)
                - (at_star.value + float(np.dot(lam, at_star.residual))))
    d = x - x_star
    return (half_curvature(data, d) + float(at_star.dual_grad.dot(d))
            + float((lam_star - lam).dot(at_star.residual)))


def objective_error(prob: Problem, x: Array, lam: Array, x_star: Array, lam_star: Array,
                    *, at_star: SaddleTerms | None = None,
                    gap_value: float | None = None) -> float:
    """Objective error ``|f(x) - f(x*)|``.

    In the identity form it is read off the gap: ``f(x) - f(x*) = gap - <A*
    lam*, d> - <lam* - lam, A x* - b>`` with ``d = x - x*``, so it needs no
    Hessian product of its own; ``lam`` enters only through rounding. An
    objective without ``data`` takes the difference of two values.
    ``at_star`` is as in :func:`gap`; ``gap_value`` may supply :func:`gap` of
    ``(x, lam)``, with the same result to the bit.
    """
    if at_star is None:
        at_star = saddle_terms(prob, x_star, lam_star)
    if prob.objective.data is None:
        return abs(prob.objective.value(x) - at_star.value)
    if gap_value is None:
        gap_value = gap(prob, x, lam, x_star, lam_star, at_star=at_star)
    return abs(gap_value - float(at_star.adjoint.dot(x - x_star))
               - float((lam_star - lam).dot(at_star.residual)))


def energy(prob: Problem, params, x_k: Array, x_prev: Array, lam_k: Array,
           lam_prev: Array, t_k: float, x_star: Array, lam_star: Array, *,
           at_star: SaddleTerms | None = None, gap_value: float | None = None,
           residual: Array | None = None) -> float:
    """Energy of the iterate pair ``(x_k, x_prev, lam_k, lam_prev)`` at index k.

    ``params`` must expose ``gamma``, ``sigma``, ``rho`` and ``beta`` (a
    validated solver config does). The reference ``(x_star, lam_star)`` must
    be a saddle point for the monotonicity and bound properties to hold. The
    augmented gap is :func:`gap` plus ``(beta/2)(||A x_k - b||^2 - ||A x* -
    b||^2)``. ``at_star`` is as in :func:`gap`; ``gap_value`` may supply
    :func:`gap` of ``(x_k, lam_k)`` and ``residual`` may supply ``A x_k - b``.
    The result is the same to the bit.
    """
    if at_star is None:
        at_star = saddle_terms(prob, x_star, lam_star)
    if gap_value is None:
        gap_value = gap(prob, x_k, lam_k, x_star, lam_star, at_star=at_star)
    if residual is None:
        residual = prob.a_map.forward(x_k) - prob.b
    g = params.gamma
    rho = params.rho
    t1 = t_k - 1.0
    gap_beta = gap_value + 0.5 * params.beta * (float(residual.dot(residual))
                                                - at_star.residual_sq)
    d_x = x_k - x_star
    d_z = g * d_x + t1 * (x_k - x_prev)  # z_k - gamma x*
    d_lam = lam_k - lam_star
    d_lam_prev = lam_k - lam_prev
    d_nu = g * d_lam + t1 * d_lam_prev  # nu_k - gamma lam*
    return (t_k * (t1 + g) * gap_beta
            + 0.5 * q_norm_sq(prob, params, d_z)
            + 0.5 / rho * float(d_nu.dot(d_nu))
            + 0.5 * g * (1.0 - g) * q_norm_sq(prob, params, d_x)
            + 0.5 * g * (1.0 - g) / rho * float(d_lam.dot(d_lam))
            + 0.5 * (1.0 - g) / rho * t1 * float(d_lam_prev.dot(d_lam_prev)))


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


def dual_bound_series(states, lam_star: Array,
                      a_map: LinearMap) -> tuple[np.ndarray, np.ndarray]:
    """Series ``t_k * ||A*(lam_k - lam*)||`` over iterate states.

    Each state exposes ``k``, ``t_k`` and ``lam_k``, as the
    :class:`~falm.solver.IterateState` a run passes to its observer does. The
    series' supremum estimates the constant of the dual decay bound; a run
    that honors the bound shows no upward trend.
    """
    ks = np.array([s.k for s in states], dtype=float)
    vals = np.array([s.t_k * float(np.linalg.norm(a_map.adjoint(s.lam_k - lam_star)))
                     for s in states])
    return ks, vals

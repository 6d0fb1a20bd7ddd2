"""Analysis quantities computed against a known primal-dual solution.

Everything here consumes recorded snapshots, never live solver state, so the
diagnostic path cannot perturb a run. The central object is the energy: a
Lyapunov-type scalar combining the scaled augmented-Lagrangian gap, distances
of the extrapolated primal/dual states measured in the solver's metric, and a
dual velocity term. Along a valid run it is nonincreasing when evaluated at a
saddle point, which is what the acceptance suite verifies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import Array, LinearMap
from .problem import Problem, aug_lagrangian, lagrangian


def q_norm_sq(prob: Problem, params, u: Array) -> float:
    """Squared seminorm ``<u,u>/sigma - beta ||A u||^2`` of a primal vector.

    ``params`` must expose ``sigma`` and ``beta`` (a validated solver config
    does) and ``A`` is ``prob.a_map``. The operator ``(1/sigma) Id - beta A*A``
    is positive semidefinite whenever sigma satisfies its admissibility bound
    (then ``1/sigma >= L/gamma + beta ||A||^2``).
    """
    if u.size != prob.n:
        raise DimensionMismatch(f"vector has dimension {u.size}, expected {prob.n}")
    out = (1.0 / params.sigma) * float(np.dot(u, u))
    if params.beta != 0.0:
        au = prob.a_map.forward(u)
        out -= params.beta * float(np.dot(au, au))
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


@dataclass(frozen=True)
class IterateSnapshot:
    """Copied primal-dual iterate, for diagnostics that need the raw vectors."""

    k: int
    t_k: float
    x: Array
    lam: Array


def gap(prob: Problem, x: Array, lam: Array, x_star: Array, lam_star: Array, *,
        at_x: tuple[float, Array] | None = None,
        at_star: tuple[float, Array] | None = None) -> float:
    """Primal-dual gap ``L(x, lam*) - L(x*, lam)``; nonnegative at saddle points.

    ``at_x`` and ``at_star`` may supply :func:`~falm.problem.value_and_residual`
    of ``x`` and ``x_star`` when the caller already has them.
    """
    return (lagrangian(prob, x, lam_star, at=at_x)
            - lagrangian(prob, x_star, lam, at=at_star))


def energy(prob: Problem, params, x_k: Array, x_prev: Array, lam_k: Array,
           lam_prev: Array, t_k: float, x_star: Array, lam_star: Array, *, at_x: tuple[float, Array] | None = None,
           at_star: tuple[float, Array] | None = None) -> float:
    """Energy of the iterate pair ``(x_k, x_prev, lam_k, lam_prev)`` at index k.

    ``params`` must expose ``gamma``, ``sigma``, ``rho`` and ``beta`` (a
    validated solver config does). The reference ``(x_star, lam_star)`` must
    be a saddle point for the monotonicity and bound properties to hold.
    ``at_x`` and ``at_star`` are as in :func:`gap`, at ``x_k`` and ``x_star``.
    """
    g = params.gamma
    rho = params.rho
    beta = params.beta
    gap_beta = (aug_lagrangian(prob, x_k, lam_star, beta, at=at_x)
                - aug_lagrangian(prob, x_star, lam_k, beta, at=at_star))
    z = g * x_k + (t_k - 1.0) * (x_k - x_prev)
    d_nu = g * lam_k + (t_k - 1.0) * (lam_k - lam_prev) - g * lam_star
    d_lam = lam_k - lam_star
    d_lam_prev = lam_k - lam_prev
    return (t_k * (t_k - 1.0 + g) * gap_beta
            + 0.5 * q_norm_sq(prob, params, z - g * x_star)
            + 0.5 / rho * float(np.dot(d_nu, d_nu))
            + 0.5 * g * (1.0 - g) * q_norm_sq(prob, params, x_k - x_star)
            + 0.5 * g * (1.0 - g) / rho * float(np.dot(d_lam, d_lam))
            + 0.5 * (1.0 - g) / rho * (t_k - 1.0) * float(np.dot(d_lam_prev, d_lam_prev)))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(value) against log(k) over a window.

    ``n_used`` records entered the fit, from index ``k_first`` to ``k_last``;
    ``n_excluded`` records in the window sat in rounding noise.
    """

    slope: float
    r2: float
    n_used: int
    n_excluded: int
    k_first: int
    k_last: int

    def to_dict(self) -> dict:
        return asdict(self)


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


NEAR_ZERO = 1e-14


def rate_fit(records, field: str, k_min: int, k_max: int) -> RateFit:
    """Fit the decay exponent of ``field`` over recorded indices in [k_min, k_max].

    Values at or below ``1e-14`` sit in rounding noise and are excluded (their
    count is reported); at least 10 usable records are required.
    """
    ks = []
    vals = []
    n_excluded = 0
    for rec in records:
        if not (k_min <= rec.k <= k_max):
            continue
        v = getattr(rec, field)
        if v is None:
            continue
        if v <= NEAR_ZERO:
            n_excluded += 1
            continue
        ks.append(rec.k)
        vals.append(v)
    if len(ks) < 10:
        raise ValueError(f"too few usable records in window [{k_min}, {k_max}]: "
                         f"{len(ks)} usable, {n_excluded} excluded")
    slope, r2 = _loglog_fit(np.array(ks, dtype=float), np.array(vals))
    return RateFit(slope=slope, r2=r2, n_used=len(ks), n_excluded=n_excluded,
                   k_first=min(ks), k_last=max(ks))


def dual_bound_series(snapshots, lam_star: Array,
                      a_map: LinearMap) -> tuple[np.ndarray, np.ndarray]:
    """Series ``t_k * ||A*(lam_k - lam*)||`` over the recorded snapshots.

    Its supremum estimates the constant of the dual decay bound; a run that
    honors the bound shows no upward trend.
    """
    ks = np.array([s.k for s in snapshots], dtype=float)
    vals = np.array([s.t_k * float(np.linalg.norm(a_map.adjoint(s.lam - lam_star)))
                     for s in snapshots])
    return ks, vals

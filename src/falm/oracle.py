"""Ground-truth saddle points for quadratic test problems.

Solves the stationarity system directly by a dense factorization, so the
reference solution is independent of the iterative machinery it validates.
One LU factorization of the (n+p)-square KKT matrix: the benchmark's
1000x200 instances take a 1200-square solve. No sparse path is provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FalmError
from .linalg import Array
from .problem import Problem


class OracleError(FalmError, RuntimeError):
    """The direct solve could not produce a reliable reference solution."""


@dataclass(frozen=True, eq=False)
class QpInstance:
    """A problem the KKT oracle solves: ``min 0.5 x'Qx + c'x  s.t.  A x = b``.

    :class:`~falm.problem.Objective` has checked ``Q`` and ``c``, and
    :class:`~falm.problem.Problem` the dimensions; this adds what the direct
    solve needs on top. The objective must keep ``data`` ``("quadratic", Q,
    c)`` and the map a dense ``matrix`` of full row rank (a zero map has rank
    0); otherwise ``ValueError``. The problem's arrays are read, not copied.
    """

    problem: Problem

    def __post_init__(self):
        prob = self.problem
        if prob.objective.data is None:
            raise ValueError("the objective keeps no quadratic form")
        if prob.a_map.matrix is None:
            raise ValueError("the map keeps no dense matrix")
        if np.linalg.matrix_rank(prob.a_map.matrix) < prob.p:
            raise ValueError("A does not have full row rank")


def qp_from_problem(prob: Problem) -> QpInstance | None:
    """The :class:`QpInstance` of ``prob``, or None when it has none."""
    try:
        return QpInstance(prob)
    except ValueError:
        return None


def kkt_solve(qp: QpInstance) -> tuple[Array, Array]:
    """Solve the stationarity-plus-feasibility system by dense factorization.

    Returns ``(x_star, lam_star)`` with ``Q x + c + A' lam = 0`` and
    ``A x = b`` satisfied to ``1e-10`` relative to the data scale, or raises
    :class:`OracleError` (also when the solve overflows to NaN). The
    factorization is deterministic: repeated calls agree bitwise.
    """
    prob = qp.problem
    _, q, c = prob.objective.data
    a = prob.a_map.matrix
    n, p = prob.n, prob.p
    kkt = np.zeros((n + p, n + p))
    kkt[:n, :n] = q
    kkt[:n, n:] = a.T
    kkt[n:, :n] = a
    rhs = np.concatenate([-c, prob.b])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"singular KKT matrix: {exc}") from exc
    x_star = sol[:n]
    lam_star = sol[n:]
    residual = float(np.linalg.norm(kkt @ sol - rhs))
    scale = max(1.0, float(np.linalg.norm(rhs)))
    if not residual <= 1e-10 * scale:  # a NaN residual fails too
        raise OracleError(f"KKT solve residual {residual:.3e} exceeds "
                          f"{1e-10 * scale:.3e}; system too ill-conditioned")
    return x_star, lam_star

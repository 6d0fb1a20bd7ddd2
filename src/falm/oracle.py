"""Ground-truth saddle points for quadratic test problems.

Solves the stationarity system directly by a dense factorization, so the
reference solution is independent of the iterative machinery it validates.
Instances are desk-scale (n up to a few hundred); no sparse path is provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FalmError, NonFiniteError
from .linalg import Array, all_finite, as_vector, check_symmetric, read_only
from .problem import Problem


class OracleError(FalmError, RuntimeError):
    """The direct solve could not produce a reliable reference solution."""


@dataclass(frozen=True, eq=False)
class QpInstance:
    """Equality-constrained QP: ``min 0.5 x'Qx + c'x  s.t.  A x = b``.

    Each array goes through :func:`~falm.linalg.read_only`: one that is
    already read-only and owns its data is shared, any other is copied. A
    non-finite entry raises :class:`~falm.errors.NonFiniteError`.
    """

    q_mat: Array
    c: Array
    a_mat: Array
    b: Array

    def __post_init__(self):
        q = read_only(self.q_mat)
        a = read_only(self.a_mat)
        c = read_only(as_vector(self.c, name="c"))
        b = read_only(as_vector(self.b, name="b"))
        if q.shape != (c.size, c.size):
            raise ValueError(f"Q has shape {q.shape}, expected {(c.size, c.size)}")
        if a.shape != (b.size, c.size):
            raise ValueError(f"A has shape {a.shape}, expected {(b.size, c.size)}")
        for name, mat in (("Q", q), ("A", a)):
            if not all_finite(mat):
                raise NonFiniteError(f"{name} contains NaN or infinite entries")
        check_symmetric(q)
        if np.linalg.matrix_rank(a) < b.size:
            raise ValueError("A does not have full row rank")
        object.__setattr__(self, "q_mat", q)
        object.__setattr__(self, "a_mat", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def p(self) -> int:
        return self.b.size


def qp_from_problem(prob: Problem) -> QpInstance | None:
    """The QP of a problem with a quadratic form and a dense nonzero map.

    The QP reads the objective's ``data`` ``("quadratic", Q, c)`` and shares
    its arrays; for a least-squares objective that is the Gram matrix ``M'M``
    the gradient uses, and ``c = -M'd``. Returns None when the objective
    keeps no ``data``, the map keeps no dense matrix or is zero, or
    :class:`QpInstance` rejects the data (for example ``A`` without full row
    rank).
    """
    a = prob.a_map.matrix
    if prob.objective.data is None or a is None or not np.any(a):
        return None
    _, q, c = prob.objective.data
    try:
        return QpInstance(q_mat=q, c=c, a_mat=a, b=prob.b)
    except ValueError:
        return None


def kkt_solve(qp: QpInstance) -> tuple[Array, Array]:
    """Solve the stationarity-plus-feasibility system by dense factorization.

    Returns ``(x_star, lam_star)`` with ``Q x + c + A' lam = 0`` and
    ``A x = b`` satisfied to ``1e-10`` relative to the data scale, or raises
    :class:`OracleError` (also when the solve overflows to NaN). The
    factorization is deterministic: repeated calls agree bitwise.
    """
    n, p = qp.n, qp.p
    kkt = np.zeros((n + p, n + p))
    kkt[:n, :n] = qp.q_mat
    kkt[:n, n:] = qp.a_mat.T
    kkt[n:, :n] = qp.a_mat
    rhs = np.concatenate([-qp.c, qp.b])
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

"""Ground-truth saddle points for quadratic test problems.

Solves the stationarity system directly by a dense factorization, so the
reference solution is independent of the iterative machinery it validates.
Instances are desk-scale (n up to a few hundred); no sparse path is provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FalmError
from .linalg import Array, as_vector, read_only
from .problem import Problem, lagrangian


class OracleError(FalmError, RuntimeError):
    """The direct solve could not produce a reliable reference solution."""


@dataclass(frozen=True, eq=False)
class QpInstance:
    """Equality-constrained QP: ``min 0.5 x'Qx + c'x  s.t.  A x = b``.

    Each array goes through :func:`~falm.linalg.read_only`: one that is
    already read-only and owns its data is shared, any other is copied.
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
        scale = max(1.0, float(np.abs(q).max()))
        if float(np.abs(q - q.T).max()) > 1e-12 * scale:
            raise ValueError("Q is not symmetric within 1e-12")
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

    The QP reads the objective's ``quadratic`` ``(Q, c)`` and shares its
    arrays; for a least-squares objective that is the Gram matrix ``M'M``
    the gradient uses, and ``c = -M'd``. Returns None when the objective
    keeps no quadratic form, the map keeps no dense matrix or is zero, or
    :class:`QpInstance` rejects the data (for example ``A`` without full row
    rank).
    """
    a = prob.a_map.matrix
    if prob.objective.quadratic is None or a is None or not np.any(a):
        return None
    q, c = prob.objective.quadratic
    try:
        return QpInstance(q_mat=q, c=c, a_mat=a, b=prob.b)
    except ValueError:
        return None


def kkt_solve(qp: QpInstance) -> tuple[Array, Array]:
    """Solve the stationarity-plus-feasibility system by dense factorization.

    Returns ``(x_star, lam_star)`` with ``Q x + c + A' lam = 0`` and
    ``A x = b`` satisfied to ``1e-10`` relative to the data scale. The
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
    if residual > 1e-10 * scale:
        raise OracleError(f"KKT solve residual {residual:.3e} exceeds "
                          f"{1e-10 * scale:.3e}; system too ill-conditioned")
    return x_star, lam_star


@dataclass(frozen=True)
class SaddleReport:
    """Outcome of randomized saddle-point probing."""

    ok: bool
    worst_left: float    # min over probes of L(x*, lam*) - L(x*, lam)
    worst_right: float   # min over probes of L(x, lam*) - L(x*, lam*)
    witness: tuple[Array, Array] | None


def verify_saddle(prob: Problem, x_star: Array, lam_star: Array,
                  probes: int = 1000, seed: int = 0) -> SaddleReport:
    """Probe the two saddle inequalities at random primal-dual pairs.

    Samples Gaussian perturbations around the candidate pair and checks that
    the Lagrangian is maximal in the multiplier and minimal in the primal
    variable there, with slack allowed down to -1e-9. A violation is reported
    with the witnessing pair.
    """
    rng = np.random.default_rng(seed)
    l_star = lagrangian(prob, x_star, lam_star)
    worst_left = np.inf
    worst_right = np.inf
    witness = None
    ok = True
    for _ in range(probes):
        x = x_star + rng.standard_normal(prob.n)
        lam = lam_star + rng.standard_normal(prob.p)
        left = l_star - lagrangian(prob, x_star, lam)
        right = lagrangian(prob, x, lam_star) - l_star
        if left < worst_left:
            worst_left = left
            if left < -1e-9:
                witness = (x_star.copy(), lam)
        if right < worst_right:
            worst_right = right
            if right < -1e-9:
                witness = (x, lam_star.copy())
        ok = ok and left >= -1e-9 and right >= -1e-9
    return SaddleReport(ok=ok, worst_left=float(worst_left),
                        worst_right=float(worst_right), witness=witness)

"""Constrained problem instances and their Lagrangian evaluations.

A :class:`Problem` is ``min f(x) subject to A x = b`` with a smooth convex
objective supplied as value/gradient oracles plus a Lipschitz constant for the
gradient. The constant is user-supplied and never repaired: the admissible
step size depends on it and must stay under caller control. No library code
checks it; the tests' finite-difference and descent-lemma probes do.

Infeasible instances (``b`` outside the range of ``A``) are not detected; the
solver assumes a primal-dual solution exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteError
from .linalg import (Array, LinearMap, as_vector, check_symmetric, dense_map, norm,
                     read_only)

OBJECTIVE_KINDS = ("quadratic", "least_squares")


@dataclass(frozen=True, eq=False)
class Objective:
    """Smooth convex objective given by value/gradient oracles.

    ``lipschitz`` bounds the gradient's Lipschitz constant and must be
    positive. ``data`` optionally keeps the dense description (kind plus
    matrices) used for serialization; matrix-free objectives leave it None.
    ``quadratic`` optionally keeps the read-only ``(Q, c)`` with ``f(x) =
    0.5 x'Qx + c'x`` up to a constant, the arrays the gradient ``Q x + c``
    itself reads; :func:`~falm.oracle.qp_from_problem` shares them.
    Oracles must be reentrant: callers may share a Problem across threads.
    """

    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    lipschitz: float
    data: tuple | None = None
    quadratic: tuple[Array, Array] | None = None

    def __post_init__(self):
        if not (self.lipschitz > 0 and np.isfinite(self.lipschitz)):
            raise ValueError(f"lipschitz must be a positive finite scalar, "
                             f"got {self.lipschitz}")


def _quadratic(q: Array, c: Array, lipschitz: float, value: Callable[[Array], float],
               data: tuple) -> Objective:
    """The objective whose gradient is ``q x + c``: the one gradient path."""
    return Objective(value=value, gradient=lambda x: q @ x + c, lipschitz=lipschitz,
                     data=data, quadratic=(q, c))


def quadratic_objective(q, c, lipschitz: float | None = None) -> Objective:
    """Objective ``f(x) = 0.5 x'Qx + c'x`` for symmetric PSD ``Q``.

    ``Q`` must be finite and symmetric within ``1e-12 * max(1, max|Q_ij|)`` (the
    test of :class:`~falm.oracle.QpInstance`), or ``Qx + c`` is no gradient of f.
    The default Lipschitz constant is the largest eigenvalue of the symmetrized
    ``Q``; its smallest must then not be below minus that allowance, or f is
    not convex. Either violation raises ``ValueError``.
    """
    q = read_only(q)
    c = read_only(as_vector(c, name="c"))
    if q.shape != (c.size, c.size):
        raise DimensionMismatch(f"Q has shape {q.shape}, expected {(c.size, c.size)}")
    if not np.all(np.isfinite(q)):
        raise NonFiniteError("Q contains NaN or infinite entries")
    allowance = check_symmetric(q)
    if lipschitz is None:
        eigs = np.linalg.eigvalsh((q + q.T) / 2.0)
        if eigs[0] < -allowance:
            raise ValueError(f"Q has the negative eigenvalue {eigs[0]:.6g}")
        lipschitz = float(eigs[-1])
    return _quadratic(q, c, lipschitz,
                      value=lambda x: float(0.5 * np.dot(x, q @ x) + np.dot(c, x)),
                      data=("quadratic", q, c))


def least_squares_objective(m, d, lipschitz: float | None = None) -> Objective:
    """Objective ``f(x) = 0.5 ||M x - d||^2`` with Lipschitz constant ``||M||^2``.

    The Gram matrix ``G = M'M`` and ``c = -M'd`` are formed once, so the
    gradient ``G x + c`` is one pass over an n-by-n matrix; the value keeps
    the residual form. The default constant is the largest eigenvalue of
    ``G``. A non-finite ``M`` raises :class:`~falm.errors.NonFiniteError`.
    """
    m = read_only(m)
    d = read_only(as_vector(d, name="d"))
    if m.ndim != 2 or m.shape[0] != d.size:
        raise DimensionMismatch(f"M has shape {m.shape}, incompatible with d of "
                                f"dimension {d.size}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("M contains NaN or infinite entries")
    gram = m.T @ m  # numpy uses syrk: exactly symmetric, so the QP shares it as is
    c = -(m.T @ d)
    gram.flags.writeable = c.flags.writeable = False
    if lipschitz is None:
        lipschitz = float(np.linalg.eigvalsh(gram)[-1])

    def value(x: Array) -> float:
        r = m @ x - d
        return float(0.5 * np.dot(r, r))

    return _quadratic(gram, c, lipschitz, value=value, data=("least_squares", m, d))


@dataclass(frozen=True, eq=False)
class Problem:
    """Instance of ``min f(x) subject to A x = b``; immutable and shareable.

    ``b`` goes through :func:`~falm.linalg.read_only`: a caller's writable
    array is copied, never frozen in place.
    """

    objective: Objective
    a_map: LinearMap
    b: Array

    def __post_init__(self):
        b = read_only(as_vector(self.b, name="b"))
        object.__setattr__(self, "b", b)
        if self.a_map.dims[1] != b.size:
            raise DimensionMismatch(f"operator maps into dimension "
                                    f"{self.a_map.dims[1]} but b has dimension {b.size}")

    @property
    def n(self) -> int:
        return self.a_map.dims[0]

    @property
    def p(self) -> int:
        return self.a_map.dims[1]


def _check_dims(prob: Problem, x: Array, lam: Array) -> None:
    if x.size != prob.n:
        raise DimensionMismatch(f"x has dimension {x.size}, expected {prob.n}")
    if lam.size != prob.p:
        raise DimensionMismatch(f"multiplier has dimension {lam.size}, expected {prob.p}")


def value_and_residual(prob: Problem, x: Array) -> tuple[float, Array]:
    """``(f(x), A x - b)``, the two evaluations every Lagrangian at ``x`` needs."""
    return prob.objective.value(x), prob.a_map.forward(x) - prob.b


def lagrangian(prob: Problem, x: Array, lam: Array, *,
               at: tuple[float, Array] | None = None) -> float:
    """``f(x) + <lam, A x - b>``.

    ``at`` may supply :func:`value_and_residual` of ``x`` when the caller
    already has it; the result is the same to the bit.
    """
    _check_dims(prob, x, lam)
    fx, residual = at if at is not None else value_and_residual(prob, x)
    return fx + float(np.dot(lam, residual))


def aug_lagrangian(prob: Problem, x: Array, lam: Array, beta: float, *,
                   at: tuple[float, Array] | None = None) -> float:
    """Lagrangian plus the quadratic constraint penalty ``(beta/2)||A x - b||^2``.

    ``at`` is as in :func:`lagrangian`.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    _check_dims(prob, x, lam)
    fx, residual = at if at is not None else value_and_residual(prob, x)
    return (fx + float(np.dot(lam, residual))
            + 0.5 * beta * float(np.dot(residual, residual)))


def kkt_residuals(prob: Problem, x: Array, lam: Array, *,
                  residual: Array | None = None,
                  adjoint: Array | None = None) -> tuple[float, float]:
    """Norms of the stationarity and feasibility equations.

    Returns ``(||grad f(x) + A* lam||, ||A x - b||)``; both vanish exactly at
    a primal-dual solution. ``residual`` may supply ``A x - b`` and
    ``adjoint`` may supply ``A* lam`` when the caller already has them; the
    result is the same to the bit.
    """
    _check_dims(prob, x, lam)
    adj = adjoint if adjoint is not None else prob.a_map.adjoint(lam)
    grad_res = prob.objective.gradient(x) + adj
    feas_res = residual if residual is not None else prob.a_map.forward(x) - prob.b
    return norm(grad_res), norm(feas_res)


def problem_to_json(prob: Problem) -> dict:
    """Serialize a dense problem to the documented JSON schema.

    Matrices are emitted as flat row-major lists. Only problems built from a
    dense operator and a quadratic or least-squares objective are
    serializable; matrix-free instances raise ``ValueError``.
    """
    if prob.a_map.matrix is None:
        raise ValueError("operator carries no dense matrix; cannot serialize")
    a = prob.a_map.matrix
    if prob.objective.data is None:
        raise ValueError("objective carries no dense data; cannot serialize")
    kind, m1, v1 = prob.objective.data
    if kind == "quadratic":
        obj_doc = {"kind": "quadratic", "Q": m1.ravel().tolist(), "c": v1.tolist()}
    elif kind == "least_squares":
        obj_doc = {"kind": "least_squares", "M": m1.ravel().tolist(), "d": v1.tolist()}
    else:
        raise ValueError(f"unknown objective kind {kind!r}")
    return {"n": prob.n, "p": prob.p, "A": a.ravel().tolist(),
            "b": prob.b.tolist(), "objective": obj_doc}


def json_number(value, conv=float, name: str = "value"):
    """A JSON number field parsed by ``conv`` (``float`` or ``int``).

    What ``conv`` rejects, a boolean, and for ``int`` a fraction raise
    ``ValueError`` naming the field (``float(true)`` is 1, ``int(2.7)`` is 2).
    """
    try:
        if isinstance(value, bool) or (conv is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        return conv(value)
    except (TypeError, ValueError, OverflowError):
        expected = "an integer" if conv is int else "a number"
        raise ValueError(f"{name} must be {expected}, got {value!r}") from None


def problem_from_json(doc: dict) -> Problem:
    """Rebuild a Problem from the JSON schema produced by :func:`problem_to_json`.

    A field of the wrong type raises ``ValueError``; a missing one ``KeyError``.
    """
    try:
        n = json_number(doc["n"], int, "n")
        p = json_number(doc["p"], int, "p")
        if n < 1 or p < 1:
            raise ValueError(f"dimensions must be positive, got n={n}, p={p}")
        a = np.array(doc["A"], dtype=float).reshape(p, n)
        b = np.array(doc["b"], dtype=float)
        obj_doc = doc["objective"]
        kind = obj_doc["kind"]
        if kind == "quadratic":
            q = np.array(obj_doc["Q"], dtype=float).reshape(n, n)
            objective = quadratic_objective(q, np.array(obj_doc["c"], dtype=float))
        elif kind == "least_squares":
            m_flat = np.array(obj_doc["M"], dtype=float)
            rows = m_flat.size // n
            objective = least_squares_objective(m_flat.reshape(rows, n),
                                                np.array(obj_doc["d"], dtype=float))
        else:
            raise ValueError(f"unknown objective kind {kind!r}; "
                             f"expected one of {OBJECTIVE_KINDS}")
    except (TypeError, OverflowError):
        raise ValueError(f"malformed problem document {doc!r}") from None
    return Problem(objective=objective, a_map=dense_map(a), b=b)

"""Constrained problem instances and their KKT residuals.

A :class:`Problem` is ``min f(x) subject to A x = b`` with a smooth convex
objective supplied as value/gradient oracles plus a Lipschitz constant for the
gradient. The constant is user-supplied and never repaired: the admissible
step size depends on it and must stay under caller control. No library code
checks it; the tests' finite-difference and descent-lemma probes do. The
quadratic and least-squares objectives keep one quadratic form,
``Objective.data = ("quadratic", Q, c)``: the arrays their gradient reads,
which the diagnostics and the KKT oracle read too.

Problems are built in code from these constructors; the CLI's inline
problem document is read by :func:`falm.cli.problem_from_json`, which calls
them.

An infeasible instance, ``b`` outside the range of ``A``, builds a Problem;
:func:`~falm.solver.validate` refuses it with ``ValidationError("b ∈
range(A)")`` from the SVD it computes anyway (:func:`~falm.linalg.op_norm_sq`,
scale-free, no per-step cost). A feasible instance is assumed to have a
primal-dual solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteError
from .linalg import Array, LinearMap, as_vector, norm, read_only


def _check_symmetric(q: Array) -> float:
    """The allowance ``1e-12 * max(1, max|Q_ij|)`` of a square ``Q``, after
    checking ``max|Q - Q'|`` against it; a larger asymmetry raises
    ``ValueError``. Needs one n-by-n temporary."""
    allowance = 1e-12 * max(1.0, float(q.max(initial=0.0)), -float(q.min(initial=0.0)))
    d = q - q.T
    np.abs(d, out=d)
    if float(d.max(initial=0.0)) > allowance:
        raise ValueError("Q is not symmetric within 1e-12")
    return allowance


@dataclass(frozen=True, eq=False)
class Objective:
    """Smooth convex objective given by value/gradient oracles.

    ``lipschitz`` bounds the gradient's Lipschitz constant and must be
    positive. ``data`` optionally keeps ``("quadratic", Q, c)`` with ``f(x) =
    0.5 x'Qx + c'x`` up to a constant: the arrays the gradient ``Q x + c``
    itself reads. Giving ``data`` promises that ``gradient(x)`` is exactly
    ``Q x + c`` of these arrays, an affine map, and nothing else: a gradient
    that reads other arrays, or arrays a caller may still write, breaks it.
    :func:`~falm.solver.step` relies on this, forming ``grad f(y_k)`` as a
    combination of the gradients at the last two iterates. The saddle-point
    diagnostics take the Bregman distance ``0.5 d'Qd`` from it, and
    :class:`~falm.oracle.QpInstance` reads it; without it they take a
    difference of values, :func:`~falm.solver.step` calls the gradient at
    ``y_k``, and there is no QP.

    This is the one check of quadratic data. Any other ``data`` layout raises
    ``ValueError``; ``Q`` must be n-by-n for the n of ``c``
    (:class:`~falm.errors.DimensionMismatch`), finite
    (:class:`~falm.errors.NonFiniteError`) and symmetric within ``1e-12 *
    max(1, max|Q_ij|)`` (``ValueError``), or ``Qx + c`` is no gradient of f.
    Both arrays go through :func:`~falm.linalg.read_only`. With ``data``, a
    ``lipschitz`` of None takes the largest eigenvalue of ``Q``; its smallest
    must then not be below minus the symmetry allowance, or f is not convex.
    Oracles must be reentrant: callers may share a Problem across threads.
    """

    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    lipschitz: float | None
    data: tuple | None = None

    def __post_init__(self):
        if self.data is not None:
            if not (isinstance(self.data, tuple) and len(self.data) == 3
                    and isinstance(self.data[0], str) and self.data[0] == "quadratic"):
                raise ValueError("data must be ('quadratic', Q, c) or None")
            q = read_only(self.data[1])
            c = read_only(as_vector(self.data[2], name="c"))
            if q.shape != (c.size, c.size):
                raise DimensionMismatch(f"Q has shape {q.shape}, expected {(c.size, c.size)}")
            if not np.all(np.isfinite(q)):
                raise NonFiniteError("Q contains NaN or infinite entries")
            allowance = _check_symmetric(q)
            object.__setattr__(self, "data", ("quadratic", q, c))
            if self.lipschitz is None:
                eigs = np.linalg.eigvalsh(q)
                if eigs[0] < -allowance:
                    raise ValueError(f"Q has the negative eigenvalue {eigs[0]:.6g}")
                object.__setattr__(self, "lipschitz", float(eigs[-1]))
        lipschitz = self.lipschitz
        if not (lipschitz is not None and lipschitz > 0 and np.isfinite(lipschitz)):
            raise ValueError(f"lipschitz must be a positive finite scalar, "
                             f"got {lipschitz}")


def _quadratic(q, c, lipschitz: float | None,
               value: Callable[[Array], float] | None = None) -> Objective:
    """The objective whose gradient is ``q x + c``: the one gradient path.
    Without ``value``, f is ``0.5 x'qx + c'x``."""
    obj = Objective(value=value or (lambda x: float(0.5 * np.dot(x, q @ x) + np.dot(c, x))),
                    gradient=lambda x: q.dot(x) + c, lipschitz=lipschitz,
                    data=("quadratic", q, c))
    _, q, c = obj.data  # the oracles read the checked arrays Objective keeps
    return obj


def quadratic_objective(q, c, lipschitz: float | None = None) -> Objective:
    """Objective ``f(x) = 0.5 x'Qx + c'x`` for symmetric PSD ``Q``; the
    default Lipschitz constant is the largest eigenvalue of ``Q``.
    :class:`Objective` checks ``Q`` and ``c``."""
    return _quadratic(q, c, lipschitz)


def least_squares_objective(m, d, lipschitz: float | None = None) -> Objective:
    """Objective ``f(x) = 0.5 ||M x - d||^2`` with Lipschitz constant ``||M||^2``.

    The Gram matrix ``G = M'M`` and ``c = -M'd`` are formed once and kept as
    the objective's ``data``, so the gradient ``G x + c`` is one pass over an
    n-by-n matrix; the value keeps the residual form. The default constant is
    the largest eigenvalue of ``G``. A non-finite ``M`` raises
    :class:`~falm.errors.NonFiniteError`.
    """
    m = read_only(m)
    d = read_only(as_vector(d, name="d"))
    if m.ndim != 2 or m.shape[0] != d.size:
        raise DimensionMismatch(f"M has shape {m.shape}, incompatible with d of "
                                f"dimension {d.size}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("M contains NaN or infinite entries")
    gram = m.T @ m  # numpy uses syrk: exactly symmetric
    c = -(m.T @ d)
    gram.flags.writeable = c.flags.writeable = False

    def value(x: Array) -> float:
        r = m @ x - d
        return float(0.5 * np.dot(r, r))

    return _quadratic(gram, c, lipschitz, value)


@dataclass(frozen=True, eq=False)
class Problem:
    """Instance of ``min f(x) subject to A x = b``; immutable and shareable.

    ``b`` goes through :func:`~falm.linalg.read_only`: a caller's writable
    array is copied, never frozen in place. A ``b`` that does not match the
    map's range, or an objective whose ``data`` does not match the map's
    domain, raises :class:`~falm.errors.DimensionMismatch`.
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
        data = self.objective.data
        if data is not None and data[2].size != self.a_map.dims[0]:
            raise DimensionMismatch(f"objective has dimension {data[2].size} but the "
                                    f"operator acts on dimension {self.a_map.dims[0]}")

    @property
    def n(self) -> int:
        return self.a_map.dims[0]

    @property
    def p(self) -> int:
        return self.a_map.dims[1]


def _check_dims(prob: Problem, x: Array, lam: Array) -> None:
    """``x`` and ``lam``, or every row of stacks of them, have the problem's
    dimensions (their last axes)."""
    if x.shape[-1:] != (prob.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected last axis {prob.n}")
    if lam.shape[-1:] != (prob.p,):
        raise DimensionMismatch(f"multiplier has shape {lam.shape}, expected last axis "
                                f"{prob.p}")


def kkt_residuals(prob: Problem, x: Array, lam: Array, *,
                  residual_sq: float | None = None,
                  adjoint: Array | None = None,
                  gradient: Array | None = None) -> tuple[float, float]:
    """Norms of the stationarity and feasibility equations.

    Returns ``(||grad f(x) + A* lam||, ||A x - b||)``; both vanish exactly at
    a primal-dual solution. ``residual_sq`` may supply ``||A x - b||^2`` (the
    dot of the residual with itself), ``adjoint`` ``A* lam`` and ``gradient``
    ``grad f(x)`` when the caller already has them, as the solver's run does
    from its state (``IterateState.ax_k``, ``adj[0]`` and, for an objective
    with ``data``, ``grad_k``, each bitwise the apply or the call); the result
    is the same to the bit. With all three given, it applies no map and calls
    no oracle.
    """
    _check_dims(prob, x, lam)
    adj = adjoint if adjoint is not None else prob.a_map.adjoint(lam)
    grad = gradient if gradient is not None else prob.objective.gradient(x)
    if residual_sq is None:
        feas_res = prob.a_map.forward(x) - prob.b
        residual_sq = feas_res.dot(feas_res)
    return norm(grad + adj), math.sqrt(residual_sq)

"""Vector primitives, linear operators, and an SPD system solver.

Vectors are plain 1-d float64 numpy arrays. Operators are wrapped in
:class:`LinearMap`, which carries a forward and an adjoint procedure; dense
construction helpers are provided for the desk-scale problems this package
targets. :func:`op_norm_sq` gives every map, dense or rebuilt from adjoint
probes, its :class:`SpectralFactor`: one thin SVD that bounds ``||A||^2``,
counts the probes it was built from, and solves the systems ``shift*Id +
scale*A*A`` in closed form for every shift and scale, its gains from one
formula vectorized over scales. :func:`solve_spd`
checks that closed form's residual and corrects a miss by iterative
refinement with the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteError, SpdSolveError, ValidationError

Array = np.ndarray


def as_vector(x, dim: int | None = None, name: str = "vector") -> Array:
    """Coerce ``x`` to a finite 1-d float64 array, optionally checking its size."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"{name} has dimension {v.size}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    return v


def read_only(x) -> Array:
    """``x`` itself when it is a read-only float64 array owning its data, else
    a read-only float64 copy, so no other holder can change the result."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.flags.owndata and not x.flags.writeable):
        x = np.array(x, dtype=float)
        x.flags.writeable = False
    return x


def all_finite(v: Array) -> bool:
    """True when every entry of ``v`` is finite.

    A finite reduction proves it without a temporary: ``v.dot(v)`` for a 1-d
    ``v`` (a NaN or infinite entry makes it NaN or inf, and one BLAS call
    costs less than a sum), the sum for any other shape. The entrywise test
    decides the rest (finite entries may overflow either reduction). numpy
    warns when a reduction overflows, or when a sum meets infinities of both
    signs.
    """
    total = v.dot(v) if v.ndim == 1 else v.sum()
    return math.isfinite(float(total)) or bool(np.isfinite(v).all())


def norm(u: Array) -> float:
    """Euclidean norm of a 1-d array, bitwise equal to ``np.linalg.norm(u)``."""
    return math.sqrt(u.dot(u))


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Matrix-free linear operator between two coordinate spaces.

    ``forward`` maps dimension ``dims[0]`` to ``dims[1]``; ``adjoint`` goes the
    other way and must satisfy <forward(x), y> == <x, adjoint(y)>. ``matrix``
    optionally keeps the dense representation for factoring and oracles.
    Instances are immutable and safe to share across threads.
    """

    forward: Callable[[Array], Array]
    adjoint: Callable[[Array], Array]
    dims: tuple[int, int]
    matrix: Array | None = None


def dense_map(a) -> LinearMap:
    """Wrap a dense p-by-n matrix as a LinearMap: forward is ``a.dot(x)`` and
    adjoint ``a.T.dot(y)``, bitwise ``a @ x`` and ``a.T @ y`` for a 1-d vector
    (the same gemv) at about half the call cost."""
    a = np.array(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"dense operator must be 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("dense operator contains NaN or infinite entries")
    a.flags.writeable = False
    p, n = a.shape
    return LinearMap(forward=a.dot, adjoint=a.T.dot, dims=(n, p), matrix=a)


def zero_map(n: int, p: int) -> LinearMap:
    """The operator sending everything to zero (unconstrained problems)."""
    return dense_map(np.zeros((p, n)))


# Relative rounding allowance, per matrix dimension, of a computed squared
# singular value (LAPACK's SVD is exact for a matrix within a small multiple of
# dimension * eps * ||A|| of its input) and of a matrix-vector product.
SVD_ROUNDING = 4.0 * float(np.finfo(float).eps)

# Largest part of b, relative to ||b||, that may lie outside the range of A
# before op_norm_sq refuses b as infeasible. Rounding leaves about
# max(p, n) * eps there for a feasible b (at most 2.4e-15 on the generated
# instances); a constraint row duplicated with a different right-hand side
# leaves a part of order 1.
RANGE_TOL = 1e-8

# Largest matrix, in bytes, that op_norm_sq rebuilds from the adjoint probes of
# a matrix-free map; a larger map is refused before any probe runs.
PROBE_BUDGET_BYTES = 64 * 2 ** 20


@dataclass(frozen=True)
class SpectralFactor:
    """Thin SVD factor of a p-by-n map ``A = U S Vt``, with its ``||A||^2`` bound.

    ``vt`` is min(p, n)-by-n with orthonormal rows and ``s2`` holds the
    squared singular values in nonincreasing order; both are read-only, and a
    zero map has ``s2 = 0``. ``value`` is an upper bound on ``||A||^2`` (0 for
    a zero map) and ``iterations`` counts the adjoint probes the matrix was
    rebuilt from: 0 when the map's matrix was factored as is. ``v`` is the
    view ``vt.T``, built once for every solve.
    """

    vt: Array = field(repr=False, compare=False)
    s2: Array = field(repr=False, compare=False)
    value: float
    iterations: int
    v: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "v", self.vt.T)

    def gains(self, shift: float, scale) -> Array:
        """``(shift + scale*S^2)^{-1} - 1/shift``, the Woodbury gains of the
        system ``shift*Id + scale*A*A``: one row for a scalar ``scale``, one
        row per entry for an array of scales, each bitwise the row of its
        scalar."""
        return 1.0 / (shift + np.multiply.outer(scale, self.s2)) - 1.0 / shift

    def solve(self, shift: float, rhs: Array, gain: Array) -> Array:
        """Closed-form ``(shift*Id + scale*A*A)^{-1} rhs`` (Woodbury identity),
        ``gain`` the :meth:`gains` row of ``scale``.

        With ``A*A = V S^2 Vt``: ``x = rhs/shift + V[(shift + scale*S^2)^{-1}
        - 1/shift] Vt rhs``; directions outside the row space of ``vt`` see
        only the shift. The two products are ``vt.dot`` and ``v.dot``,
        bitwise ``vt @ rhs`` and ``v @ (...)``.
        """
        return (1.0 / shift) * rhs + self.v.dot(gain * self.vt.dot(rhs))


def op_norm_sq(a_map: LinearMap, b: Array | None = None) -> SpectralFactor:
    """The :class:`SpectralFactor` of any map, and so ``||A||^2``, from one thin SVD.

    A map that keeps ``matrix`` is factored as is; a matrix-free p-by-n map is
    first rebuilt from its p adjoint probes ``A* e_i``. Either matrix is checked
    the same way before the SVD: it must be p-by-n and finite, and ``forward``
    must agree with it to rounding on two fixed-seed vectors (two forward
    applies). A :class:`ValidationError` names a failed check; it also refuses
    a map with no rows or no columns, which has no singular value, and a
    matrix-free map before any probe runs when its matrix would exceed
    ``PROBE_BUDGET_BYTES``. The value is the top squared singular value raised
    by a relative ``SVD_ROUNDING`` margin per matrix dimension, so it bounds
    the true value of the map that ``forward`` applies.

    Given a right-hand side ``b``, the same SVD's left singular vectors test
    that ``A x = b`` has a solution: the part of ``b`` outside the span of the
    ``u_i`` whose singular value lies above the rounding floor ``max(p, n) *
    eps * s_0`` must not exceed ``RANGE_TOL * ||b||``, or ``ValidationError("b
    ∈ range(A)")`` is raised. The test is scale-free in A and in b; a zero map
    admits only ``b = 0``.
    """
    n, p = a_map.dims
    if p < 1 or n < 1:
        raise ValidationError("p ≥ 1 and n ≥ 1",
                              f"the map with dims {a_map.dims} has no rows or no columns")
    mat, probes = a_map.matrix, 0
    if mat is None:
        if p * n * 8 > PROBE_BUDGET_BYTES:
            raise ValidationError("p·n·8 B ≤ PROBE_BUDGET_BYTES",
                                  f"probing dims {a_map.dims} needs {p * n * 8} B")
        mat = np.array([a_map.adjoint(np.eye(1, p, i)[0]) for i in range(p)],
                       dtype=float).reshape(p, n)
        probes = p
    mat = np.asarray(mat, dtype=float)
    held = "the adjoint probes' matrix" if probes else "the map's matrix"
    if mat.shape != (p, n):
        raise ValidationError("matrix is p×n", f"{held} has shape {mat.shape}, not {(p, n)}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("A* e_i finite" if probes else "matrix finite",
                              f"{held} is not finite")
    allowance = SVD_ROUNDING * max(p, n) * float(np.linalg.norm(mat))
    for v in np.random.default_rng(0).standard_normal((2, n)):
        fv = np.asarray(a_map.forward(v), dtype=float)
        if not (fv.shape == (p,) and norm(fv - mat @ v) <= allowance * norm(v)):
            raise ValidationError("⟨A x, y⟩ = ⟨x, A* y⟩" if probes else "A x = matrix·x",
                                  f"forward disagrees with {held}"
                                  + ("; the adjoint is wrong" if probes else ""))
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    b_max = 0.0 if b is None else float(np.max(np.abs(b), initial=0.0))
    if b_max > 0.0:  # b = 0 lies in every range
        unit = b / b_max  # so that neither norm underflows or overflows
        kept = u[:, s > max(p, n) * float(np.finfo(float).eps) * s[0]]
        outside = norm(unit - kept @ (kept.T @ unit)) / norm(unit)
        if outside > RANGE_TOL:
            raise ValidationError("b ∈ range(A)",
                                  f"the part of b outside the range of A is {outside:.3g} "
                                  f"of ‖b‖, over RANGE_TOL = {RANGE_TOL:g}; no x solves "
                                  "A x = b")
    s2 = s * s
    vt.flags.writeable = s2.flags.writeable = False
    value = float(s2[0]) * (1.0 + SVD_ROUNDING * max(mat.shape))
    return SpectralFactor(vt=vt, s2=s2, value=value, iterations=probes)


# Corrections that iterative refinement may add to the closed form before
# solve_spd gives up on a system.
REFINE_STEPS = 10


class SpdSolution(NamedTuple):
    """Solution ``x`` of :func:`solve_spd` and its true residual norm.

    ``iterations`` counts refinement corrections. ``ax`` and ``atax`` are the
    images ``A x`` and ``A*A x`` computed by the final residual check, bitwise
    equal to ``a_map.forward(x)`` and ``a_map.adjoint(ax)``.
    """

    x: Array
    iterations: int
    residual: float
    ax: Array
    atax: Array


def solve_spd(a_map: LinearMap, factor: SpectralFactor, shift: float, scale: float,
              rhs: Array, *, tol: float = 1e-12, gain: Array | None = None) -> SpdSolution:
    """Solve ``M x = rhs`` for ``M = shift*Id + scale*A*A``, returning once
    ``||M x - rhs|| <= tol * max(1, ||rhs||)``.

    ``shift`` must be positive and ``scale`` nonnegative; ``factor`` is the
    :func:`op_norm_sq` of ``a_map``, and ``gain`` its
    :meth:`SpectralFactor.gains` row of ``shift`` and ``scale`` when the caller
    has it (a run's step blocks build them for many scales at once). The start
    point is the closed form :meth:`SpectralFactor.solve`. Each residual check
    takes one forward and one adjoint apply. While the true residual ``r``
    misses the target, iterative refinement corrects the start with the same
    factor and gains, ``x += factor.solve(shift, r, gain)``; a factor of the
    map itself contracts the
    residual by about ``n * eps * cond(M)`` per correction. Raises
    :class:`SpdSolveError` when ``REFINE_STEPS`` corrections do not meet the
    target.

    A ``rhs`` with a NaN or infinite entry, which makes ``||rhs||`` non-finite,
    is refused before any apply (``iterations == 0``); a finite ``rhs`` whose
    norm overflows is solved against an infinite target. A returned ``x``
    whose ``residual`` is finite is finite, since a NaN or infinite entry of
    ``x`` makes ``shift * x`` and so ``r`` non-finite; with a finite target,
    every returned ``x`` is.
    """
    if not (shift > 0 and scale >= 0):
        raise ValueError("solve_spd requires shift > 0 and scale >= 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    rhs_norm = norm(rhs)
    if not math.isfinite(rhs_norm) and not np.isfinite(rhs).all():
        raise SpdSolveError("right-hand side is not finite", residual=rhs_norm,
                            iterations=0)
    target = tol * max(1.0, rhs_norm)
    if gain is None:
        gain = factor.gains(shift, scale)
    x = factor.solve(shift, rhs, gain)
    for corrections in range(REFINE_STEPS + 1):
        if corrections:
            x = x + factor.solve(shift, r, gain)
        ax = a_map.forward(x)
        atax = a_map.adjoint(ax)
        r = rhs - (shift * x + scale * atax)
        r_norm = norm(r)
        if r_norm <= target:
            return SpdSolution(x, corrections, r_norm, ax, atax)
    raise SpdSolveError(f"iterative refinement missed its target after {REFINE_STEPS} "
                        f"corrections (residual {r_norm:.3e}, target {target:.3e})",
                        residual=r_norm, iterations=REFINE_STEPS)

"""Vector primitives, linear operators, and an SPD system solver.

Vectors are plain 1-d float64 numpy arrays. Operators are wrapped in
:class:`LinearMap`, which carries a forward and an adjoint procedure; dense
construction helpers are provided for the desk-scale problems this package
targets. :func:`op_norm_sq` gives every map, dense or rebuilt from adjoint
probes, ``||A||^2`` and the spectral factor that solves the systems
``shift*Id + scale*A*A`` in closed form for every shift and scale;
:func:`solve_spd` corrects a closed form that misses its residual target by
iterative refinement with the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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

    A finite sum proves it without a temporary; the entrywise test decides the
    rest (a sum of finite entries may overflow). numpy warns when the sum
    overflows or meets infinities of both signs.
    """
    return math.isfinite(float(v.sum())) or bool(np.isfinite(v).all())


def norm(u: Array) -> float:
    """Euclidean norm of a 1-d array, bitwise equal to ``np.linalg.norm(u)``."""
    return math.sqrt(u.dot(u))


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Matrix-free linear operator between two coordinate spaces.

    ``forward`` maps dimension ``dims[0]`` to ``dims[1]``; ``adjoint`` goes the
    other way and must satisfy <forward(x), y> == <x, adjoint(y)>. ``matrix``
    optionally keeps the dense representation for serialization and oracles.
    Instances are immutable and safe to share across threads.
    """

    forward: Callable[[Array], Array]
    adjoint: Callable[[Array], Array]
    dims: tuple[int, int]
    matrix: Array | None = None


def dense_map(a) -> LinearMap:
    """Wrap a dense p-by-n matrix as a LinearMap (forward is ``a @ x``)."""
    a = np.array(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"dense operator must be 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("dense operator contains NaN or infinite entries")
    a.flags.writeable = False
    p, n = a.shape
    return LinearMap(forward=lambda x: a @ x, adjoint=lambda y: a.T @ y,
                     dims=(n, p), matrix=a)


def zero_map(n: int, p: int) -> LinearMap:
    """The operator sending everything to zero (unconstrained problems)."""
    m = np.zeros((p, n))
    m.flags.writeable = False
    return LinearMap(forward=lambda x: np.zeros(p), adjoint=lambda y: np.zeros(n),
                     dims=(n, p), matrix=m)


def scaled_identity(c: float, n: int) -> LinearMap:
    c = float(c)
    return LinearMap(forward=lambda x: c * x, adjoint=lambda y: c * y,
                     dims=(n, n), matrix=None)


def row_selection(indices, n: int) -> LinearMap:
    """Pick the listed coordinates; the adjoint scatters them back.

    Every index must lie in ``[0, n)``, or :class:`DimensionMismatch` is raised.
    """
    idx = np.array(indices, dtype=int)
    if np.any((idx < 0) | (idx >= n)):
        raise DimensionMismatch(f"row_selection indices {idx.tolist()} must lie in [0, {n})")
    idx.flags.writeable = False

    def fwd(x: Array) -> Array:
        return x[idx]

    def adj(y: Array) -> Array:
        out = np.zeros(n)
        np.add.at(out, idx, y)
        return out

    return LinearMap(forward=fwd, adjoint=adj, dims=(n, int(idx.size)), matrix=None)


# Relative rounding allowance, per matrix dimension, of a computed squared
# singular value (LAPACK's SVD is exact for a matrix within a small multiple of
# dimension * eps * ||A|| of its input) and of a matrix-vector product.
SVD_ROUNDING = 4.0 * float(np.finfo(float).eps)

# Largest matrix, in bytes, that op_norm_sq rebuilds from the adjoint probes of
# a matrix-free map; a larger map is refused before any probe runs.
PROBE_BUDGET_BYTES = 64 * 2 ** 20


@dataclass(frozen=True)
class OpNormEstimate:
    """Upper bound on ``||A||^2`` and the spectral factor it was read from.

    ``factor`` is :func:`spectral_factor` of the map's matrix; a zero map has
    ``S^2 = 0`` and ``value`` 0. ``iterations`` counts adjoint probes.
    """

    value: float
    iterations: int
    factor: tuple[Array, Array] = field(repr=False, compare=False)


def op_norm_sq(a_map: LinearMap) -> OpNormEstimate:
    """``||A||^2`` and the spectral factor of any map, from one thin SVD.

    A map that keeps ``matrix`` is factored as is; a matrix-free p-by-n map is
    first rebuilt from its p adjoint probes ``A* e_i``. A :class:`ValidationError`
    refuses it before any probe runs when that matrix would exceed
    ``PROBE_BUDGET_BYTES``, and after probing when a row is not finite or
    ``forward`` disagrees with the matrix beyond rounding on two fixed-seed
    vectors. The value is the top squared singular value raised by a relative
    ``SVD_ROUNDING`` margin per matrix dimension, so it bounds the true value.
    """
    n, p = a_map.dims
    mat, probes = a_map.matrix, 0
    if mat is None:
        if p * n * 8 > PROBE_BUDGET_BYTES:
            raise ValidationError("p·n·8 B ≤ PROBE_BUDGET_BYTES",
                                  f"probing dims {a_map.dims} needs {p * n * 8} B")
        mat = np.array([a_map.adjoint(np.eye(1, p, i)[0]) for i in range(p)],
                       dtype=float).reshape(p, n)
        probes = p
        if not np.all(np.isfinite(mat)):
            raise ValidationError("A* e_i finite", "an adjoint probe is not finite")
        allowance = SVD_ROUNDING * max(p, n) * float(np.linalg.norm(mat))
        for v in np.random.default_rng(0).standard_normal((2, n)):
            fv = np.asarray(a_map.forward(v), dtype=float)
            if not (fv.shape == (p,) and norm(fv - mat @ v) <= allowance * norm(v)):
                raise ValidationError("⟨A x, y⟩ = ⟨x, A* y⟩", "forward disagrees with "
                                      "the adjoint probes' matrix; the adjoint is wrong")
    factor = spectral_factor(mat)
    value = float(factor[1][0]) * (1.0 + SVD_ROUNDING * max(mat.shape))
    return OpNormEstimate(value=value, iterations=probes, factor=factor)


def spectral_factor(matrix: Array) -> tuple[Array, Array]:
    """Thin SVD factor ``(Vt, S^2)`` of a dense p-by-n matrix ``A = U S Vt``.

    ``Vt`` is min(p, n)-by-n with orthonormal rows and ``S^2`` holds the
    squared singular values in nonincreasing order, so ``S^2[0]`` is
    ``||A||^2`` up to the SVD's rounding. Both arrays are read-only.
    """
    _, s, vt = np.linalg.svd(np.asarray(matrix, dtype=float), full_matrices=False)
    s2 = s * s
    vt.flags.writeable = False
    s2.flags.writeable = False
    return vt, s2


@dataclass(frozen=True)
class SpdSystem:
    """The operator ``shift*Id + scale*A*A`` (symmetric positive definite).

    ``shift`` must be positive and ``scale`` nonnegative; ``factor`` is the
    spectral factor of ``a_map`` that :func:`op_norm_sq` returns.
    """

    shift: float
    scale: float
    a_map: LinearMap
    factor: tuple[Array, Array]

    def spectral_solve(self, rhs: Array) -> Array:
        """Closed-form ``M^{-1} rhs`` from ``factor`` (Woodbury identity).

        With ``A*A = V S^2 Vt``: ``x = rhs/shift + V[(shift + scale*S^2)^{-1}
        - 1/shift] Vt rhs``; directions outside the row space of ``Vt`` see
        only the shift.
        """
        vt, s2 = self.factor
        inv_shift = 1.0 / self.shift
        gain = 1.0 / (self.shift + self.scale * s2) - inv_shift
        return inv_shift * rhs + vt.T @ (gain * (vt @ rhs))

    def residual(self, x: Array, rhs: Array) -> tuple[Array, Array]:
        """``(rhs - M x, A x)``, from one forward and one adjoint apply."""
        ax = self.a_map.forward(x)
        return rhs - (self.shift * x + self.scale * self.a_map.adjoint(ax)), ax


# Corrections that iterative refinement may add to the closed form before
# solve_spd gives up on a system.
REFINE_STEPS = 10


@dataclass(frozen=True)
class SpdSolution:
    """Solution ``x`` of :func:`solve_spd` and its true residual norm.

    ``iterations`` counts refinement corrections, and ``ax`` is the image
    ``A x`` computed by the final residual check, bitwise equal to
    ``a_map.forward(x)``.
    """

    x: Array
    iterations: int
    residual: float
    ax: Array


def solve_spd(system: SpdSystem, rhs: Array, *, tol: float = 1e-12) -> SpdSolution:
    """Solve ``M x = rhs``, returning once ``||M x - rhs|| <= tol * max(1, ||rhs||)``.

    The start point is the closed-form :meth:`SpdSystem.spectral_solve`. While
    its true residual ``r`` misses the target, iterative refinement corrects
    it with the same factor, ``x += spectral_solve(r)``; a factor of the map
    itself contracts the residual by about ``n * eps * cond(M)`` per
    correction. Raises :class:`SpdSolveError` when ``REFINE_STEPS``
    corrections do not meet the target.
    """
    if system.shift <= 0 or system.scale < 0:
        raise ValueError("solve_spd requires shift > 0 and scale >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    target = tol * max(1.0, norm(rhs))
    x = system.spectral_solve(rhs)
    for corrections in range(REFINE_STEPS + 1):
        if corrections:
            x = x + system.spectral_solve(r)
        r, ax = system.residual(x, rhs)
        r_norm = norm(r)
        if r_norm <= target:
            return SpdSolution(x=x, iterations=corrections, residual=r_norm, ax=ax)
    raise SpdSolveError(f"iterative refinement missed its target after {REFINE_STEPS} "
                        f"corrections (residual {r_norm:.3e}, target {target:.3e})",
                        residual=r_norm, iterations=REFINE_STEPS)

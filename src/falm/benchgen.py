"""Deterministic, seeded generators for the benchmark problem suite.

All randomness flows through :class:`SplitMix64`, a fully specified 64-bit
generator, so a seed pins the instance bit-for-bit and other implementations
can reproduce the draw stream. The state advance and output scrambler are:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z       <- state
    z       <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z       <- (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output  <- z XOR (z >> 31)

Uniform doubles take the top 53 bits (``output >> 11`` times ``2^-53``).
Normals come from the Box-Muller transform on consecutive uniform pairs
``(u1, u2)``, with ``u1 = 0`` replaced by ``2^-53``: ``r = sqrt(-2 log u1)``
gives ``r cos(2 pi u2)`` and then ``r sin(2 pi u2)``. An odd count leaves the
sine value as a spare that the next normal draw returns first; uniform draws
between them do not touch it.

Draws are made in bulk: the stream and the uniforms are numpy uint64 and
float64 array arithmetic, bitwise equal to the scalar recurrence. Box-Muller
keeps ``math.log``, ``math.cos`` and ``math.sin`` (mapped over each array):
numpy's versions are not libm's, their last bit can differ (``np.log`` did on
about 0.2% of draws) and depends on the CPU's vector unit, and a different
bit would change the instance. The square root, the products and ``2 pi u2``
are correctly rounded in numpy as in ``math``, so numpy computes them.

A symmetric matrix with a drawn spectrum ``d`` is ``diag(d)`` conjugated by
three Householder reflections ``H = I - 2 v v'``. Each ``v`` is a fresh draw
of ``n`` normals divided by its Euclidean norm, and each reflection is the
rank-2 update ``M <- M - v a' - a v'`` with ``w = M v`` and
``a = 2 w - 2 (v'w) v``: first the outer product ``v a'`` is subtracted, then
``a v'``. The result is ``(M + M') / 2``. It equals the explicit product
``H M H'`` to rounding, not bitwise.

Every kind takes its draws in one order. First the spectrum ``cond **
uniforms(n)``, square-rooted for least squares, where it gives the singular
values of ``M``; then the three reflections' normals; then ``n`` normals,
which are the tilt of a constrained kind and ``c`` of ``unconstrained``.
Only the constrained kinds draw on: ``p*n`` normals for ``A`` in row-major
order, each row then scaled to length ``ROW_NORM``, and ``n`` normals that
``DATA_SCALE`` scales to the anchor. With the tilt normals ``g`` they get
``c = -Q x_anchor + TILT*DATA_SCALE*g`` or ``d = M x_anchor +
TILT*DATA_SCALE*g``.

Every objective states its Lipschitz constant from the spectrum it drew, not
from an eigensolve: ``L = max(spectrum) * (1 + LIPSCHITZ_ROUNDING * n)``. The
spectrum is that of ``Q``, or of ``M'M`` for least squares, in exact
arithmetic; by Weyl's inequality, rounding moves the top eigenvalue by at most
the norm of the rounding error (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, §3.5). The conjugation's eigenvalues lie within ``8 n eps
max|d|`` of ``d`` (``test_orthogonal_conjugate_matches_householder_product``
asserts it), which is ``8 n eps L`` for ``Q`` and, squared, ``16 n eps L`` for
the singular values of ``M``. The Gram product ``M'M`` adds at most
``(n eps / 2) || |M|'|M| ||`` (componentwise rounding of inner products of
length n). ``M`` differs from its diagonal by a rank-6 matrix of norm at most
``max sqrt(d)``, so ``|| |M| || <= (1 + sqrt 6) ||M||`` and that term is below
``6 n eps L``. Together that is under ``22 n eps L``; ``LIPSCHITZ_ROUNDING``
is ``32 eps``. So L bounds the gradient's Lipschitz constant, as the step
condition needs, at no n^3 cost.

Constrained instances are always feasible by construction: the right-hand
side is ``A @ x_anchor`` for a drawn anchor point, never sampled directly.
Two normalizations keep desk-scale runs inside the polynomial-rate regime
that the benchmark harness measures. The objective is tilted so its
unconstrained minimizer sits near the anchor, which keeps multipliers at the
data scale instead of at the gradient scale ``L``; and constraint rows are
normalized to a fixed sub-unit length so the dual step stays an order below
the primal one. Without these, a strictly convex instance reaches its
asymptotic geometric phase within the iteration budget and log-log rate fits
measure that tail rather than the rates under study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dense_map, zero_map
from .oracle import QpInstance, qp_from_problem
from .problem import Problem, least_squares_objective, quadratic_objective

GEN_KINDS = ("random_qp", "constrained_least_squares", "unconstrained")

# Benchmark normalization (see module docstring): constraint-row length,
# anchor/data scale, and the relative tilt of the objective minimizer away
# from the anchor. The anchor scale also keeps the rounding noise of gap
# evaluations (amplified by t_k^2 in the energy) below the 1e-9 verification
# tolerances over a 10^4-iteration horizon.
ROW_NORM = 0.4
DATA_SCALE = 0.003
TILT = 0.1

# Relative allowance per dimension of the Lipschitz constant an instance
# states over the top of its drawn spectrum; the module docstring derives it.
LIPSCHITZ_ROUNDING = 32.0 * float(np.finfo(float).eps)

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


class SplitMix64:
    """The documented 64-bit generator; see the module docstring."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK
        self._spare_normal: float | None = None

    def _stream(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as uint64 (numpy wraps mod 2^64)."""
        z = self._state + np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
        self._state = (self._state + count * _GOLDEN) & _MASK
        z = (z ^ (z >> 30)) * _MIX1
        z = (z ^ (z >> 27)) * _MIX2
        return z ^ (z >> 31)

    def uniforms(self, count: int) -> np.ndarray:
        """Doubles in [0, 1) with 53 random bits."""
        return (self._stream(count) >> 11).astype(np.float64) * 2.0 ** -53

    def normals(self, count: int) -> np.ndarray:
        """Box-Muller normals; a pending spare comes first, an unused one is kept."""
        out = np.empty(count)
        head = 0
        if count and self._spare_normal is not None:
            out[0], self._spare_normal, head = self._spare_normal, None, 1
        pairs = (count - head + 1) // 2
        u = self.uniforms(2 * pairs)
        # u1 is a multiple of 2^-53, so this lifts only u1 = 0 to 2^-53.
        r = np.sqrt(-2.0 * _libm(math.log, np.maximum(u[0::2], 2.0 ** -53)))
        theta = 2.0 * math.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = r * _libm(math.cos, theta)
        z[1::2] = r * _libm(math.sin, theta)
        out[head:] = z[:count - head]
        if 2 * pairs > count - head:
            self._spare_normal = float(z[-1])
        return out


def _libm(fn, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, values.tolist()), float, values.size)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one benchmark instance."""

    kind: str
    n: int
    p: int
    seed: int
    cond: float = 1.0

    def __post_init__(self):
        if self.kind not in GEN_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1 or self.p < 1:
            raise ValueError("dimensions must be positive")
        if self.kind != "unconstrained" and self.p > self.n:
            raise ValueError("constrained instances require p <= n")
        if not (np.isfinite(self.cond) and self.cond >= 1.0):
            raise ValueError(f"cond must be a finite scalar >= 1, got {self.cond}")


def _orthogonal_conjugate(diag: np.ndarray, rng: SplitMix64) -> np.ndarray:
    """Conjugate a diagonal matrix by three random Householder maps.

    Each reflection ``H = I - 2 v v'`` is applied as the rank-2 update
    ``H M H = M - v a' - a v'`` with ``w = M v`` and ``a = 2 w - 2 (v'w) v``,
    O(n^2) work and no n-by-n ``H``. The result is fresh and read-only, so
    the objective constructors share it instead of copying it.
    """
    mat = np.diag(diag)
    for _ in range(3):
        v = rng.normals(diag.size)
        v /= np.linalg.norm(v)
        w = mat @ v
        a = 2.0 * w - 2.0 * np.dot(v, w) * v
        mat -= np.outer(v, a)
        mat -= np.outer(a, v)
    mat = (mat + mat.T) / 2.0
    mat.flags.writeable = False
    return mat


def _constraints(spec: GenSpec, rng: SplitMix64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-row-rank constraints with rows of length ROW_NORM, plus an anchor
    point that makes them feasible."""
    a = rng.normals(spec.p * spec.n).reshape(spec.p, spec.n)
    a *= ROW_NORM / np.linalg.norm(a, axis=1, keepdims=True)
    x_anchor = DATA_SCALE * rng.normals(spec.n)
    return a, a @ x_anchor, x_anchor


def generate(spec: GenSpec) -> tuple[Problem, QpInstance | None]:
    """Materialize the instance described by ``spec``.

    * ``random_qp``: strictly convex quadratic with eigenvalues log-uniform in
      ``[1, cond]`` in a random orthogonal basis, full-row-rank unit-row
      constraints, and a feasible right-hand side.
    * ``constrained_least_squares``: ``f(x) = 0.5||Mx - d||^2`` where the
      singular values of ``M`` make the Gram spectrum log-uniform in
      ``[1, cond]``; same constraint construction.
    * ``unconstrained``: the quadratic objective with the zero operator and
      zero right-hand side (no companion QP oracle).

    Every kind draws in the order of the module docstring: the spectrum, the
    reflections of :func:`_orthogonal_conjugate`, ``n`` normals (the tilt, or
    ``c`` of ``unconstrained``), then for the constrained kinds
    :func:`_constraints`. The same seed yields the same instance bitwise.

    Every kind's objective gets the Lipschitz constant ``max(spectrum) * (1 +
    LIPSCHITZ_ROUNDING * n)``, an upper bound on the top eigenvalue of ``Q``
    or ``M'M`` as rounded (module docstring), so no eigensolve runs.
    """
    rng = SplitMix64(spec.seed)
    spectrum = spec.cond ** rng.uniforms(spec.n)
    lipschitz = float(spectrum.max()) * (1.0 + LIPSCHITZ_ROUNDING * spec.n)
    least_squares = spec.kind == "constrained_least_squares"
    mat = _orthogonal_conjugate(np.sqrt(spectrum) if least_squares else spectrum, rng)
    normals = rng.normals(spec.n)
    if spec.kind == "unconstrained":
        objective = quadratic_objective(mat, normals, lipschitz)
        a_map, b = zero_map(spec.n, spec.p), np.zeros(spec.p)
    else:
        a, b, x_anchor = _constraints(spec, rng)
        tilt = TILT * DATA_SCALE * normals
        objective = (least_squares_objective(mat, mat @ x_anchor + tilt, lipschitz)
                     if least_squares else
                     quadratic_objective(mat, -(mat @ x_anchor) + tilt, lipschitz))
        a_map = dense_map(a)
    prob = Problem(objective=objective, a_map=a_map, b=b)
    return prob, qp_from_problem(prob)

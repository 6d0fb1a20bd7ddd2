"""Inertial parameter sequences and their certification.

Four rules are supported. Each rule carries its margin ``m``, the constant
for which the sequence provably satisfies the one-step quadratic condition
``t_{k+1}^2 - m*t_{k+1} <= t_k^2`` while staying nondecreasing. ``m``
defaults to the kind's certified margin (:func:`min_margin`), whichever
constructor builds the rule:

* ``nesterov``: the square-root recurrence, margin 1 (condition tight).
* ``chambolle_dossal(alpha)``: ``t_k = 1 + (k-1)/(alpha-1)``, margin
  ``2/(alpha-1)`` with constant slack ``-1/(alpha-1)^2``.
* ``attouch_cabot(alpha)``: ``t_k = (k-1)/(alpha-1)``, same margin and slack;
  the sequence starts at 0 and only reaches 1 at index ``k1`` (reported by
  :func:`certify`), so rate estimates downstream start there.
* ``constant``: ``t_k = 1``, the non-accelerated baseline; admits any margin
  in (0, 1], and ``m`` defaults to 1.

:func:`next_t` takes any rule from ``t_k`` to ``t_{k+1}``; a run's steps and
:func:`t_values` share it, and nothing is cached between calls.

``SPEC_KEYS`` names the parameters each kind takes besides its name; the
rule's document form is read by :func:`falm.cli.rule_from_spec`.

:func:`certify` measures the quadratic slack, the per-step growth against the
bound :func:`phi_m`, and the empirical linear-growth ratio ``min_k t_k/k``.
For the closed-form rules the slack is evaluated in exact rational arithmetic
(floating-point cancellation at large k would otherwise swamp it) at the two
endpoints of the index range, since it is affine in k; the
Nesterov recurrence has no rational closed form, so its slack is measured in
floating point and judged relative to ``t_{k+1}^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificationError

# The parameters each rule kind takes besides its name: the keys that its
# document form reads besides "rule".
SPEC_KEYS = {"nesterov": (), "chambolle_dossal": ("alpha",),
             "attouch_cabot": ("alpha",), "constant": ("m",)}
RULE_KINDS = tuple(SPEC_KEYS)


@dataclass(frozen=True)
class InertialRule:
    """One of the supported inertial parameter rules, with its margin ``m``.

    ``m`` defaults to the margin of the kind (:func:`min_margin`), or to 1
    for ``constant``, which admits any margin in (0, 1]. An ``alpha`` on a
    kind that does not read it (``nesterov``, ``constant``) and a boolean
    ``m`` raise ``ValueError`` naming the field.
    """

    kind: str
    alpha: float | None = None
    m: float | None = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if "alpha" in SPEC_KEYS[self.kind]:
            if self.alpha is None or not 3.0 <= self.alpha < math.inf:  # refuses NaN too
                raise ValueError(f"{self.kind} requires a finite alpha >= 3, got {self.alpha}")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} does not read alpha, got {self.alpha!r}")
        if isinstance(self.m, (bool, np.bool_)):
            raise ValueError(f"margin m must be a number, got {self.m!r}")
        # After the alpha check, since the margin divides by alpha - 1. The
        # margin 0 of constant, which admits any m, gives the default m = 1.
        if self.m is None:
            object.__setattr__(self, "m", min_margin(self.kind, self.alpha) or 1.0)
        if not (0.0 < self.m <= 1.0):
            raise ValueError(f"margin m must lie in (0, 1], got {self.m}")


def min_margin(kind: str, alpha: float | None = None) -> float:
    """The smallest ``m`` for which the rule's sequence meets the quadratic
    condition: 1 for ``nesterov``, ``2/(alpha-1)`` for the alpha rules, and 0
    for ``constant``, which admits any margin in (0, 1]."""
    if kind == "nesterov":
        return 1.0
    if kind == "constant":
        return 0.0
    return 2.0 / (alpha - 1.0)


def nesterov() -> InertialRule:
    return InertialRule("nesterov")


def chambolle_dossal(alpha: float) -> InertialRule:
    return InertialRule("chambolle_dossal", float(alpha))


def attouch_cabot(alpha: float) -> InertialRule:
    return InertialRule("attouch_cabot", float(alpha))


def constant(m: float = 1.0) -> InertialRule:
    return InertialRule("constant", m=float(m))


def _closed_form(kind: str, k, alpha):
    """t_k of a rule other than Nesterov, in the type of ``k``.

    ``k`` and ``alpha`` are floats, Fractions, which make the value exact,
    or a float array ``k``, which gives every value at once;
    ``constant`` ignores ``alpha`` and gives 1.
    """
    if kind == "chambolle_dossal":
        return (k + alpha - 2) / (alpha - 1)
    if kind == "attouch_cabot":
        return (k - 1) / (alpha - 1)
    return k ** 0


def next_t(rule: InertialRule, t: float, k: int) -> float:
    """t_{k+1} of the rule from ``t = t_k``: Nesterov's ``(1 + sqrt(1 +
    4t^2))/2``, or the closed form of the other rules, which ignores ``t``."""
    if rule.kind == "nesterov":
        return (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
    return _closed_form(rule.kind, float(k + 1), rule.alpha)


def t_values(rule: InertialRule, count: int) -> np.ndarray:
    """The first ``count`` inertial parameters as an array, as a run's steps
    take them: Nesterov's each from the one before by :func:`next_t`, the
    other rules' from their closed form at k = 1, ..., count, which are the
    values ``next_t`` gives."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if rule.kind != "nesterov":
        return _closed_form(rule.kind, np.arange(1.0, count + 1.0), rule.alpha)
    ts = [1.0]
    for k in range(1, count):
        ts.append(next_t(rule, ts[-1], k))
    return np.array(ts)


def phi_m(m: float) -> float:
    """Largest admissible one-step increase of a sequence with margin ``m``.

    Equals ``(m - 2 + sqrt(m^2 + 4))/2``; increasing in m, at most
    ``(sqrt(5) - 1)/2``.
    """
    if not (0.0 < m <= 1.0):
        raise ValueError(f"m must lie in (0, 1], got {m}")
    return (m - 2.0 + math.sqrt(m * m + 4.0)) / 2.0


@dataclass(frozen=True)
class CertReport:
    """Measured properties of the first ``K`` inertial parameters."""

    kind: str
    m: float
    K: int
    max_slack: float        # max of t_{k+1}^2 - m*t_{k+1} - t_k^2 over k <= K
    max_step: float         # max of t_{k+1} - t_k
    phi: float              # admissible step bound for margin m
    kappa: float            # min of t_k / k (empirical linear-growth ratio)
    k_one: int              # first index with t_k >= 1
    ok: bool


def certify(rule: InertialRule, K: int) -> CertReport:
    """Check the rule's certified properties over indices 1..K.

    Raises :class:`CertificationError` naming a violating index if the
    sequence decreases, breaks the quadratic condition, or outgrows the step
    bound: the first one, except for the closed-form rules' quadratic
    condition and the step bound, which name the index of the largest slack
    or step. The quadratic slack is exact for the closed-form rules; for the
    Nesterov recurrence it is measured in floating point and allowed rounding
    noise relative to ``t_{k+1}^2``.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    ts = t_values(rule, K + 1)
    phi = phi_m(rule.m)

    steps = np.diff(ts)
    bad = np.nonzero(steps < -1e-12 * np.maximum(1.0, ts[:-1]))[0]
    if bad.size:
        raise CertificationError("nondecreasing", int(bad[0]) + 1)
    max_step = float(steps.max())
    if max_step > phi + 1e-12:
        k_bad = int(np.argmax(steps)) + 1
        raise CertificationError("t_{k+1} - t_k <= phi_m", k_bad)

    if rule.kind == "nesterov":
        # Factored form avoids the worst of the difference-of-squares
        # cancellation; tolerance scales with t^2 (rounding floor).
        slack = steps * (ts[1:] + ts[:-1]) - rule.m * ts[1:]
        tol = 1e-9 * np.maximum(1.0, ts[1:] ** 2)
        bad = np.nonzero(slack > tol)[0]
        if bad.size:
            raise CertificationError("t_{k+1}^2 - m*t_{k+1} <= t_k^2", int(bad[0]) + 1)
        max_slack = float(slack.max())
    else:
        # t_k is affine in k, so the slack is too: its maximum over 1..K sits
        # at an endpoint (k=1 on ties, the first index attaining it).
        m_exact = Fraction(rule.m)
        alpha = Fraction(rule.alpha if rule.alpha is not None else 0)

        def exact_slack(k: int) -> Fraction:
            t_k = _closed_form(rule.kind, Fraction(k), alpha)
            t_next = _closed_form(rule.kind, Fraction(k + 1), alpha)
            return t_next * t_next - m_exact * t_next - t_k * t_k

        first, last = exact_slack(1), exact_slack(K)
        worst_k, max_slack_exact = (K, last) if last > first else (1, first)
        if max_slack_exact > 0:
            raise CertificationError("t_{k+1}^2 - m*t_{k+1} <= t_k^2", worst_k)
        max_slack = float(max_slack_exact)

    ks = np.arange(1, K + 1, dtype=float)
    kappa = float((ts[:K] / ks).min())
    ge_one = np.nonzero(ts[:K] >= 1.0)[0]
    k_one = int(ge_one[0]) + 1 if ge_one.size else K + 1

    return CertReport(kind=rule.kind, m=rule.m, K=K, max_slack=max_slack,
                      max_step=max_step, phi=phi, kappa=kappa, k_one=k_one,
                      ok=True)

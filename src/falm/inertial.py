"""Inertial parameter sequences and their certification.

Four rules are supported. Each rule carries its certified margin ``m``, the
constant for which the sequence provably satisfies the one-step quadratic
condition ``t_{k+1}^2 - m*t_{k+1} <= t_k^2`` while staying nondecreasing:

* ``nesterov``: the square-root recurrence, margin 1 (condition tight).
* ``chambolle_dossal(alpha)``: ``t_k = 1 + (k-1)/(alpha-1)``, margin
  ``2/(alpha-1)`` with constant slack ``-1/(alpha-1)^2``.
* ``attouch_cabot(alpha)``: ``t_k = (k-1)/(alpha-1)``, same margin and slack;
  the sequence starts at 0 and only reaches 1 at index ``k1`` (reported by
  :func:`certify`), so rate estimates downstream start there.
* ``constant``: ``t_k = 1``, the non-accelerated baseline; admits any margin
  in (0, 1].

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
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificationError

RULE_KINDS = ("nesterov", "chambolle_dossal", "attouch_cabot", "constant")


@dataclass(frozen=True)
class InertialRule:
    """One of the supported inertial parameter rules, with its margin ``m``."""

    kind: str
    alpha: float | None = None
    m: float = 1.0

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if not (0.0 < self.m <= 1.0):
            raise ValueError(f"margin m must lie in (0, 1], got {self.m}")
        if self.kind in ("chambolle_dossal", "attouch_cabot"):
            if self.alpha is None or self.alpha < 3.0:
                raise ValueError(f"{self.kind} requires alpha >= 3")


def nesterov() -> InertialRule:
    return InertialRule(kind="nesterov", m=1.0)


def _alpha_rule(kind: str, alpha: float) -> InertialRule:
    alpha = float(alpha)
    if not alpha >= 3.0:  # also keeps the margin 2/(alpha - 1) finite
        raise ValueError(f"{kind} requires alpha >= 3, got {alpha}")
    return InertialRule(kind=kind, alpha=alpha, m=2.0 / (alpha - 1.0))


def chambolle_dossal(alpha: float) -> InertialRule:
    return _alpha_rule("chambolle_dossal", alpha)


def attouch_cabot(alpha: float) -> InertialRule:
    return _alpha_rule("attouch_cabot", alpha)


def constant(m: float = 1.0) -> InertialRule:
    return InertialRule(kind="constant", m=float(m))


def rule_from_spec(doc: dict) -> InertialRule:
    """Build a rule from its CLI wire format ``{"rule": ..., "alpha": ...}``.

    An unknown rule or a parameter that is not a number raises ``ValueError``.
    """
    kind = doc["rule"]
    if any(isinstance(doc.get(key), bool) for key in ("alpha", "m")):
        raise ValueError(f"rule parameters must be numbers, got {doc!r}")
    try:
        if kind == "nesterov":
            return nesterov()
        if kind == "chambolle_dossal":
            return chambolle_dossal(doc["alpha"])
        if kind == "attouch_cabot":
            return attouch_cabot(doc["alpha"])
        if kind == "constant":
            return constant(doc.get("m", 1.0))
    except (TypeError, OverflowError):
        raise ValueError(f"rule parameters must be numbers, got {doc!r}") from None
    raise ValueError(f"unknown rule {kind!r}; expected one of {RULE_KINDS}")


# Nesterov values are defined by a recurrence, so they are memoized. The cache
# only ever grows and is guarded for concurrent extension; t_value stays
# observably pure.
_NES_CACHE: list[float] = [1.0]
_NES_LOCK = threading.Lock()


def _nesterov_t(k: int) -> float:
    if k <= len(_NES_CACHE):
        return _NES_CACHE[k - 1]
    with _NES_LOCK:
        while len(_NES_CACHE) < k:
            t = _NES_CACHE[-1]
            _NES_CACHE.append((1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0)
    return _NES_CACHE[k - 1]


def _closed_form(kind: str, k, alpha):
    """t_k of a rule other than Nesterov, in the type of ``k``.

    ``k`` and ``alpha`` are floats (``k`` may be a float array) or Fractions,
    which make the value exact; ``constant`` ignores ``alpha`` and gives 1.
    """
    if kind == "chambolle_dossal":
        return (k + alpha - 2) / (alpha - 1)
    if kind == "attouch_cabot":
        return (k - 1) / (alpha - 1)
    return k ** 0


def t_value(rule: InertialRule, k: int) -> float:
    """The k-th inertial parameter of the rule (k >= 1)."""
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    if rule.kind == "nesterov":
        return _nesterov_t(k)
    return _closed_form(rule.kind, float(k), rule.alpha)


def t_values(rule: InertialRule, count: int) -> np.ndarray:
    """The first ``count`` inertial parameters as an array."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if rule.kind == "nesterov":
        _nesterov_t(count)
        return np.array(_NES_CACHE[:count])
    return _closed_form(rule.kind, np.arange(1, count + 1, dtype=float), rule.alpha)


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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "m": self.m, "K": self.K,
                "max_slack": self.max_slack, "max_step": self.max_step,
                "phi": self.phi, "kappa": self.kappa, "k_one": self.k_one,
                "ok": self.ok}


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

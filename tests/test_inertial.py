import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falm.errors import CertificationError
from falm.cli import rule_from_spec
from falm.inertial import (ALPHA_MAX, InertialRule, attouch_cabot, certify,
                           chambolle_dossal, constant, nesterov, next_t, phi_m,
                           t_values)

GOLDEN_STEP = (math.sqrt(5.0) - 1.0) / 2.0


def test_nesterov_first_values():
    rule = nesterov()
    assert t_values(rule, 2)[0] == 1.0
    assert t_values(rule, 2)[1] == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)


def test_chambolle_dossal_values():
    rule = chambolle_dossal(3.0)
    assert t_values(rule, 3)[2] == pytest.approx(2.0, abs=1e-15)
    assert rule.m == 1.0


def test_attouch_cabot_values():
    rule = attouch_cabot(4.0)
    assert t_values(rule, 4)[0] == 0.0
    assert t_values(rule, 4)[3] == pytest.approx(1.0, abs=1e-15)


def test_constant_rule_is_one():
    rule = constant(0.5)
    assert np.all(t_values(rule, 1000) == 1.0)


def test_t_values_rejects_bad_count():
    with pytest.raises(ValueError):
        t_values(nesterov(), 0)


def test_rule_constructor_validation():
    with pytest.raises(ValueError):
        chambolle_dossal(2.5)
    # 1.0 used to divide by zero; inf made the margin 2/(inf - 1) = 0,
    # refused as a bad m
    for alpha in (1.0, float("nan"), float("inf")):
        for factory in (chambolle_dossal, attouch_cabot):
            with pytest.raises(ValueError, match=f"finite alpha >= 3, got {alpha}"):
                factory(alpha)
    # nan < 3.0 is false and inf >= 3.0 is true, so the constructor used to
    # take both; an infinite alpha certified and ran with t_1 = NaN
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"finite alpha >= 3, got {alpha}"):
            InertialRule("chambolle_dossal", alpha=alpha, m=0.5)
    with pytest.raises(ValueError):
        constant(0.0)
    with pytest.raises(ValueError):
        constant(1.5)


@pytest.mark.parametrize("factory", [chambolle_dossal, attouch_cabot])
def test_the_largest_accepted_alpha_certifies(factory):
    # above ALPHA_MAX the float margin can round below the exact slack:
    # chambolle_dossal(1e16) failed certify at K = 10^4
    for K in (2, 10_000):
        assert certify(factory(ALPHA_MAX), K).ok
    for alpha in (np.nextafter(ALPHA_MAX, np.inf), 1e16, 3e17, 1e20):
        with pytest.raises(ValueError, match=re.escape(
                f"requires alpha <= ALPHA_MAX = 2**50, whose float margin certifies, "
                f"got {alpha}")):
            factory(alpha)


@pytest.mark.parametrize("alpha", [3.0, 4.0, 7.3])
def test_a_rule_built_from_its_kind_has_its_kinds_margin(alpha):
    # InertialRule used to default every kind to m = 1, so an alpha rule
    # built from its kind ran with another default gamma than its constructor's
    assert InertialRule(kind="chambolle_dossal", alpha=alpha) == chambolle_dossal(alpha)
    assert InertialRule(kind="attouch_cabot", alpha=alpha) == attouch_cabot(alpha)
    assert chambolle_dossal(alpha).m == 2.0 / (alpha - 1.0)
    assert InertialRule("nesterov") == nesterov() and nesterov().m == 1.0
    assert InertialRule("constant") == constant() and constant().m == 1.0


@pytest.mark.parametrize("kind", ["nesterov", "constant"])
def test_a_rule_refuses_an_alpha_its_kind_does_not_read(kind):
    # it was kept, and made the rule compare unequal to one running the same
    # sequence
    with pytest.raises(ValueError, match=f"{kind} does not read alpha, got 4.0"):
        InertialRule(kind, alpha=4.0)


@pytest.mark.parametrize("kind", ["nesterov", "chambolle_dossal", "constant"])
@pytest.mark.parametrize("m", [True, np.bool_(True)], ids=["bool", "numpy_bool"])
def test_a_rule_refuses_a_boolean_margin(kind, m):
    # True passed 0 < m <= 1 and reached summary.json as "m": true
    alpha = 4.0 if kind == "chambolle_dossal" else None
    with pytest.raises(ValueError, match="margin m must be a number, got "):
        InertialRule(kind, alpha=alpha, m=m)


def test_rule_from_spec_wire_format():
    assert rule_from_spec({"rule": "nesterov"}).kind == "nesterov"
    rule = rule_from_spec({"rule": "chambolle_dossal", "alpha": 4.0})
    assert rule.m == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        rule_from_spec({"rule": "fista"})
    for alpha in (None, [4.0], "4", True):
        with pytest.raises(ValueError, match="alpha must be a number"):
            rule_from_spec({"rule": "chambolle_dossal", "alpha": alpha})
    with pytest.raises(ValueError, match="finite alpha >= 3, got inf"):  # JSON Infinity
        rule_from_spec({"rule": "attouch_cabot", "alpha": float("inf")})
    for m in ("0.5", False):
        with pytest.raises(ValueError, match="m must be a number"):
            rule_from_spec({"rule": "constant", "m": m})


@pytest.mark.parametrize("doc, key", [
    ({"rule": "chambolle_dossal", "alpha": 4, "m": 0.1}, "m"),
    ({"rule": "attouch_cabot", "alpha": 4, "m": 0.5}, "m"),
    ({"rule": "nesterov", "alpha": "x"}, "alpha"),
    ({"rule": "nesterov", "m": 1.0}, "m"),
    ({"rule": "constant", "alpha": 4}, "alpha"),
    ({"rule": "constant", "m": 0.5, "beta": 1.0}, "beta"),
], ids=["cd_m", "ac_m", "nesterov_alpha", "nesterov_m", "constant_alpha", "constant_beta"])
def test_rule_from_spec_refuses_keys_its_kind_does_not_read(doc, key):
    # the first gave m = 2/3 and the third the Nesterov rule, both silently
    with pytest.raises(ValueError, match=f"does not read the key '{key}'"):
        rule_from_spec(doc)


def test_rule_from_spec_refuses_a_kind_that_is_not_a_name():
    with pytest.raises(ValueError, match="unknown rule"):
        rule_from_spec({"rule": ["nesterov"]})


def test_phi_m_at_one():
    assert phi_m(1.0) == pytest.approx(GOLDEN_STEP, rel=1e-15)


def test_phi_m_vanishes_with_m():
    assert phi_m(1e-12) == pytest.approx(0.0, abs=1e-9)


def test_phi_m_two_thirds():
    expected = (2.0 / 3.0 - 2.0 + math.sqrt(4.0 / 9.0 + 4.0)) / 2.0
    assert phi_m(2.0 / 3.0) == pytest.approx(expected, rel=1e-15)
    assert phi_m(2.0 / 3.0) <= GOLDEN_STEP


def test_phi_m_out_of_range():
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            phi_m(bad)


def test_certify_nesterov_equality():
    report = certify(nesterov(), 1000)
    assert abs(report.max_slack) <= 1e-9
    assert report.max_step == pytest.approx(GOLDEN_STEP, abs=1e-12)
    assert report.k_one == 1
    assert report.kappa >= 0.5


def test_certify_chambolle_dossal_exact_slack():
    report = certify(chambolle_dossal(3.0), 1000)
    assert report.max_slack == pytest.approx(-0.25, abs=1e-15)
    # t_k/k decreases toward 1/(alpha-1) = 1/2.
    assert 0.5 <= report.kappa <= 0.51


def test_certify_attouch_cabot_first_unit_index():
    # enumerate t_k = (k-1)/3: first index reaching 1 is k = 4
    ks = [k for k in range(1, 10) if (k - 1) / 3.0 >= 1.0]
    assert ks[0] == 4
    report = certify(attouch_cabot(4.0), 1000)
    assert report.k_one == 4
    # the float margin m = fl(2/3) shifts the exact slack by ~t*eps
    assert report.max_slack == pytest.approx(-1.0 / 9.0, abs=1e-12)


def test_certify_rejects_miscertified_margin():
    # A margin below the rule's certified one breaks the quadratic condition.
    bogus = InertialRule(kind="chambolle_dossal", alpha=4.0, m=0.1)
    with pytest.raises(CertificationError) as err:
        certify(bogus, 500)
    assert err.value.index >= 1


def test_certify_requires_two_indices():
    with pytest.raises(ValueError):
        certify(nesterov(), 1)


ALL_RULES = [nesterov(), chambolle_dossal(3.0), chambolle_dossal(4.0),
             attouch_cabot(4.0), constant()]


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.kind + str(r.alpha or ""))
def test_sequence_invariants_at_scale(rule):
    K = 10_000
    ts = t_values(rule, K + 1)
    assert np.all(np.diff(ts) >= -1e-12)
    steps = np.diff(ts)
    phi = phi_m(rule.m)
    assert steps.max() <= phi + 1e-12
    # quadratic condition; the Nesterov recurrence holds it with equality, so
    # its slack is judged relative to t^2 (rounding floor of the recurrence)
    slack = steps * (ts[1:] + ts[:-1]) - rule.m * ts[1:]
    if rule.kind == "nesterov":
        assert np.all(slack <= 1e-9 * np.maximum(1.0, ts[1:] ** 2))
    else:
        assert np.all(slack <= 1e-9)
    if ts[0] == 1.0:
        ks = np.arange(1, K + 1, dtype=float)
        assert np.all(ts[1:] <= 1.0 + ks * phi + 1e-9)


def test_nesterov_recurrence_relative_equality():
    ts = t_values(nesterov(), 10_001)
    resid = np.abs(ts[1:] ** 2 - ts[1:] - ts[:-1] ** 2)
    assert np.all(resid <= 1e-9 * np.maximum(1.0, ts[1:] ** 2))


@given(st.floats(3.0, 50.0))
@settings(max_examples=25, deadline=None)
def test_chambolle_dossal_certifies_for_any_alpha(alpha):
    report = certify(chambolle_dossal(alpha), 200)
    assert report.ok
    assert report.max_slack <= 0.0


@given(st.floats(0.01, 1.0))
@settings(max_examples=25, deadline=None)
def test_constant_rule_certifies_for_any_margin(m):
    report = certify(constant(m), 50)
    assert report.ok
    assert report.max_slack == pytest.approx(-m, rel=1e-12)


def test_t_values_of_a_smaller_count_are_a_prefix():
    for rule in ALL_RULES:
        ts = t_values(rule, 50)
        assert all(np.array_equal(t_values(rule, k), ts[:k]) for k in range(1, 51))


@pytest.mark.parametrize("rule", ALL_RULES[1:] + [chambolle_dossal(7.3), attouch_cabot(7.3)],
                         ids=lambda r: r.kind + str(r.alpha or ""))
def test_closed_form_t_values_equal_the_next_t_chain_bitwise(rule):
    # t_values evaluates a closed-form rule on a whole index array; a run
    # takes each value from the one before by next_t
    count = 20_001
    chain = [t_values(rule, 1)[0]]
    for k in range(1, count):
        chain.append(next_t(rule, chain[-1], k))
    assert t_values(rule, count).tobytes() == np.array(chain).tobytes()


def _loop_slack(rule, K):
    """Exact max of t_{k+1}^2 - m*t_{k+1} - t_k^2 over k = 1..K by enumeration,
    with the first index attaining it."""
    if rule.kind == "constant":
        def t(k):
            return Fraction(1)
    else:
        d = 1 / (Fraction(rule.alpha) - 1)
        offset = 1 if rule.kind == "chambolle_dossal" else 0

        def t(k):
            return offset + (k - 1) * d
    m = Fraction(rule.m)
    best, worst_k = None, 1
    for k in range(1, K + 1):
        slack = t(k + 1) ** 2 - m * t(k + 1) - t(k) ** 2
        if best is None or slack > best:
            best, worst_k = slack, k
    return best, worst_k


@pytest.mark.parametrize("kind", ["chambolle_dossal", "attouch_cabot", "constant"])
def test_certify_closed_form_slack_matches_enumeration(kind):
    alphas = [None] if kind == "constant" else [3.0, 4.0, 7.5, 10.0]
    for alpha in alphas:
        certified = 1.0 if alpha is None else 2.0 / (alpha - 1.0)
        step = 0.0 if alpha is None else 1.0 / (alpha - 1.0)
        for m in sorted({certified, 0.9 * certified, 0.97 * certified,
                         min(1.0, 1.2 * certified), 0.3}):
            if phi_m(m) < step:
                continue  # the step bound fails before the slack is checked
            rule = InertialRule(kind=kind, alpha=alpha, m=m)
            for K in (2, 3, 17, 400):
                expected, worst_k = _loop_slack(rule, K)
                if expected > 0:
                    with pytest.raises(CertificationError) as err:
                        certify(rule, K)
                    assert err.value.condition == "t_{k+1}^2 - m*t_{k+1} <= t_k^2"
                    assert err.value.index == worst_k
                else:
                    assert certify(rule, K).max_slack == float(expected)

import itertools
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from falm.benchgen import GenSpec, generate
from falm.cli import load_experiment
from falm.diagnostics import RunRecord, energy, gap, objective_error, saddle_terms
from falm.errors import SpdSolveError, StepError, ValidationError
from falm.inertial import (InertialRule, attouch_cabot, chambolle_dossal, constant,
                           nesterov, next_t, t_values)
from falm.linalg import REFINE_STEPS, LinearMap, dense_map
from falm.oracle import kkt_solve, qp_from_problem
from falm.problem import Objective, Problem, kkt_residuals, quadratic_objective
from falm import solver
from falm.solver import (SolverParams, initial_state, run, step, validate)


def _matrix_free(prob):
    """The same problem with its operator wrapped forward/adjoint only."""
    a = prob.a_map
    return Problem(objective=prob.objective,
                   a_map=LinearMap(forward=a.forward, adjoint=a.adjoint, dims=a.dims),
                   b=prob.b)


def _without_data(prob):
    """The same problem with an objective that keeps no quadratic ``data``:
    the same value, gradient and Lipschitz constant."""
    obj = prob.objective
    return Problem(objective=Objective(value=obj.value, gradient=obj.gradient,
                                       lipschitz=obj.lipschitz),
                   a_map=prob.a_map, b=prob.b)


def _counting(prob):
    """The same problem with a map that counts its forward and adjoint calls.

    The map keeps ``matrix``, so :func:`validate` factors it without probes.
    """
    a = prob.a_map
    calls = {"forward": 0, "adjoint": 0}

    def forward(x):
        calls["forward"] += 1
        return a.forward(x)

    def adjoint(y):
        calls["adjoint"] += 1
        return a.adjoint(y)

    counted = LinearMap(forward=forward, adjoint=adjoint, dims=a.dims, matrix=a.matrix)
    return Problem(objective=prob.objective, a_map=counted, b=prob.b), calls


def _dense_step_oracle(prob, cfg, x, x_prev, lam, lam_prev, t_k, t_k1):
    """Straight-line transcription of one update with a dense direct solve."""
    a = prob.a_map.matrix
    g = cfg.gamma
    y = x + ((t_k - 1.0) / t_k1) * (x - x_prev)
    mu = lam + ((t_k - 1.0) / t_k1) * (lam - lam_prev)
    eta = a @ x + (g / (t_k1 - 1.0 + g)) * (prob.b - a @ x)
    nu = g * lam + (t_k - 1.0) * (lam - lam_prev)
    s = (cfg.rho / g) * t_k1 * (t_k1 - 1.0 + g)
    m = np.eye(prob.n) / cfg.sigma + (s / g) * (a.T @ a)
    rhs = (y / cfg.sigma - prob.objective.gradient(y)
           - cfg.beta * a.T @ (a @ y - prob.b) - (a.T @ nu) / g
           + (s / g) * (a.T @ eta))
    x_next = np.linalg.solve(m, rhs)
    z = g * x_next + (t_k1 - 1.0) * (x_next - x)
    lam_next = mu + (cfg.rho / g) * (a @ z - g * prob.b)
    return y, x_next, lam_next


def _sigma_bound_problem():
    """L = 2 and ||A||^2 = 4, so gamma = beta = 1 bound sigma by about 1/6."""
    prob = Problem(objective=quadratic_objective(2.0 * np.eye(3), np.zeros(3)),
                   a_map=dense_map(2.0 * np.eye(3)), b=np.zeros(3))
    bound = validate(prob, SolverParams(rule=nesterov(), gamma=1.0)).sigma_bound
    assert bound == pytest.approx(1.0 / 6.0, rel=1e-14)
    return prob, bound


def test_validate_boundary_sigma_accepted():
    prob, bound = _sigma_bound_problem()
    params = SolverParams(rule=nesterov(), gamma=1.0, sigma=bound, beta=1.0)
    cfg = validate(prob, params)
    assert cfg.sigma == cfg.sigma_bound == bound


def test_validate_sigma_above_bound_rejected():
    prob, bound = _sigma_bound_problem()
    params = SolverParams(rule=nesterov(), gamma=1.0, sigma=np.nextafter(bound, 1.0),
                          beta=1.0)
    with pytest.raises(ValidationError) as err:
        validate(prob, params)
    assert "σ ≤ γ/(L + γβ‖A‖²)" in err.value.condition


def test_validate_gamma_below_margin_rejected(small_instance):
    prob, _ = small_instance
    with pytest.raises(ValidationError) as err:
        validate(prob, SolverParams(rule=nesterov(), gamma=0.5))
    assert err.value.condition == "m ≤ γ"


@pytest.mark.parametrize("rule", [InertialRule("chambolle_dossal", alpha=4.0, m=0.1),
                                  InertialRule("nesterov", m=0.5),
                                  InertialRule("attouch_cabot", alpha=4.0, m=0.5)],
                         ids=["cd4_m_0.1", "nesterov_m_0.5", "ac4_m_0.5"])
def test_validate_refuses_a_margin_below_the_rules(small_instance, rule):
    # such a rule used to validate and be certified (gamma = (m + 1)/2 < 1)
    # although certify(rule, K) fails on it
    with pytest.raises(ValidationError) as err:
        validate(small_instance[0], SolverParams(rule=rule))
    assert err.value.condition == "m ≥ margin of the rule"


def test_validate_keeps_any_margin_of_the_constant_rule(small_instance):
    for m in (0.01, 0.5, 1.0):
        assert validate(small_instance[0], SolverParams(rule=constant(m))).gamma == (m + 1) / 2


def test_validate_gamma_above_one_rejected(small_instance):
    prob, _ = small_instance
    with pytest.raises(ValidationError) as err:
        validate(prob, SolverParams(rule=constant(), gamma=1.2))
    assert err.value.condition == "γ ≤ 1"


def test_validate_attouch_cabot_gamma_floor(small_instance):
    prob, _ = small_instance
    # alpha=4 requires gamma > 2/3 so the first coupling weight is positive
    with pytest.raises(ValidationError):
        validate(prob, SolverParams(rule=attouch_cabot(4.0), gamma=2.0 / 3.0))
    cfg = validate(prob, SolverParams(rule=attouch_cabot(4.0), gamma=0.7))
    assert cfg.gamma == 0.7


@pytest.mark.parametrize("params", [SolverParams(rule=chambolle_dossal(4.0), beta=0.0),
                                    SolverParams(rule=nesterov())],
                         ids=["beta_zero", "gamma_one"])
def test_validate_flags_a_config_that_is_not_certified(small_instance, params):
    cfg = validate(small_instance[0], params)
    assert cfg.convergence_certified is False


@pytest.mark.parametrize("name, value", [("max_iter", 2.5), ("max_iter", True),
                                         ("record_every", 2.5), ("record_every", True)])
def test_validate_rejects_non_integer_counts(small_instance, name, value):
    # max_iter=2.5 raised TypeError from range; record_every=2.5 recorded
    # k = 1, 5, 6 of a 5-step run
    params = SolverParams(rule=nesterov(), **{"max_iter": 5, name: value})
    with pytest.raises(ValidationError) as err:
        validate(small_instance[0], params)
    assert err.value.condition == f"{name} ∈ ℤ"


@pytest.mark.parametrize("name, value", [
    ("beta", np.nan), ("rho", np.inf), ("sigma", np.nan), ("beta", True),
    ("gamma", True), ("cg_tol", True), ("kkt_tol", True), ("rho", "0.1")])
def test_validate_rejects_a_real_parameter_that_is_not_a_finite_number(
        small_instance, name, value):
    # beta=nan gave a NaN sigma_bound and a run that failed at k = 1, rho=inf
    # was accepted the same way, and kkt_tol=True stopped a run at k = 1
    params = SolverParams(rule=nesterov(), **{"sigma": 1e-3, name: value})
    with pytest.raises(ValidationError) as err:
        validate(small_instance[0], params)
    assert err.value.condition == f"{name} ∈ ℝ"


def _near_degenerate_problem():
    """10x50 operator whose two largest singular values are 1 and 0.9999."""
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    v, _ = np.linalg.qr(rng.standard_normal((50, 10)))
    s = np.concatenate(([1.0, 0.9999], np.linspace(0.5, 0.1, 8)))
    a = (u * s) @ v.T
    return Problem(objective=quadratic_objective(np.eye(50), np.zeros(50)),
                   a_map=dense_map(a), b=np.zeros(10))


def test_validate_dense_norm_bounds_true_norm():
    # Power iteration stops early below ||A||^2 = 1 on this operator; the
    # spectral factor's value must keep sigma_bound on the safe side.
    prob = _near_degenerate_problem()
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0)))
    lip = prob.objective.lipschitz
    assert cfg.sigma_bound <= cfg.gamma / (lip + cfg.gamma * cfg.beta * 1.0)
    assert cfg.a_norm_sq >= 1.0


def test_validate_matrix_free_norm_bounds_true_norm():
    # The matrix-free wrap is factored from its adjoint probes, so it gets the
    # dense bound (power iteration read 0.999926 < 1 here).
    prob = _near_degenerate_problem()
    params = SolverParams(rule=chambolle_dossal(4.0))
    cfg = validate(_matrix_free(prob), params)
    assert cfg.a_norm_sq >= 1.0
    assert cfg.a_norm_sq == validate(prob, params).a_norm_sq


def test_validate_zero_map_has_a_zero_factor():
    zero, _ = generate(GenSpec("unconstrained", 6, 2, 1, 5.0))
    cfg0 = validate(zero, SolverParams(rule=nesterov()))
    assert cfg0.a_norm_sq == 0.0 and not np.any(cfg0.spectral.s2)
    assert cfg0.sigma_bound == cfg0.gamma / zero.objective.lipschitz


def _duplicated_row(shift):
    """The shipped 50x10 instance with row 9 of A set to row 8 and b_9 = b_8 + shift."""
    prob, _ = generate(GenSpec("random_qp", 50, 10, 7, 100.0))
    a, b = prob.a_map.matrix.copy(), prob.b.copy()
    a[9], b[9] = a[8], b[8] + shift
    return Problem(objective=prob.objective, a_map=dense_map(a), b=b)


@pytest.mark.parametrize("free", [False, True], ids=["dense", "matrix_free"])
def test_validate_refuses_an_infeasible_b(free):
    # b_9 = b_8 + 0.1 ran to the iteration budget with feas stalled at 0.0707
    wrap = _matrix_free if free else (lambda prob: prob)
    params = SolverParams(rule=chambolle_dossal(4.0))
    with pytest.raises(ValidationError, match="outside the range of A") as err:
        validate(wrap(_duplicated_row(0.1)), params)
    assert err.value.condition == "b ∈ range(A)"
    validate(wrap(_duplicated_row(0.0)), params)  # a consistent duplicate is feasible


def test_validate_range_test_is_scale_free():
    params = SolverParams(rule=chambolle_dossal(4.0))
    for scale_a, scale_b in ((1e-6, 1.0), (1.0, 1e-6), (1e6, 1e6)):
        for shift, feasible in ((0.0, True), (0.1, False)):
            prob = _duplicated_row(shift)
            scaled = Problem(objective=prob.objective,
                             a_map=dense_map(scale_a * prob.a_map.matrix),
                             b=scale_a * scale_b * prob.b if feasible else scale_b * prob.b)
            if feasible:
                validate(scaled, params)
            else:
                with pytest.raises(ValidationError, match="outside the range of A"):
                    validate(scaled, params)


def test_validate_range_test_on_a_zero_map_and_more_rows_than_columns():
    params = SolverParams(rule=nesterov())
    obj = quadratic_objective(np.eye(3), np.zeros(3))
    zero = dense_map(np.zeros((2, 3)))
    validate(Problem(objective=obj, a_map=zero, b=np.zeros(2)), params)
    for tiny_or_huge in (1e-300, 1e300):  # neither norm may underflow or overflow
        with pytest.raises(ValidationError, match="outside the range of A"):
            validate(Problem(objective=obj, a_map=zero, b=[0.0, tiny_or_huge]), params)
    rng = np.random.default_rng(2)
    tall = rng.standard_normal((8, 3))  # p > n: the thin U has 3 columns
    validate(Problem(objective=obj, a_map=dense_map(tall), b=tall @ rng.standard_normal(3)),
             params)
    with pytest.raises(ValidationError, match="outside the range of A"):
        validate(Problem(objective=obj, a_map=dense_map(tall), b=rng.standard_normal(8)),
                 params)


def test_validate_accepts_the_generated_instances():
    params = SolverParams(rule=chambolle_dossal(4.0))
    for kind in ("random_qp", "constrained_least_squares", "unconstrained"):
        for n, p in ((50, 10), (20, 19), (200, 40)):
            for seed in (1, 7, 11):
                prob, _ = generate(GenSpec(kind, n, p, seed, 100.0))
                validate(prob, params)
                validate(_matrix_free(prob), params)


def test_validate_defaults(small_instance):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0), beta=1.0))
    assert cfg.gamma == pytest.approx((2.0 / 3.0 + 1.0) / 2.0)
    assert cfg.sigma == pytest.approx(0.99 * cfg.sigma_bound, rel=1e-12)
    assert cfg.rho == cfg.sigma
    assert cfg.convergence_certified


def test_step_unconstrained_is_exact_gradient_step():
    # The zero map's closed form is exactly rhs / (1/sigma), for the step's
    # right-hand side rhs: one product of its weights with adj, whose rows
    # give x0/sigma - grad f(x0) at the first step (no momentum). That is the
    # gradient step up to rounding, accepted without refinement.
    prob, _ = generate(GenSpec("unconstrained", 6, 2, 1, 5.0))
    params = SolverParams(rule=nesterov(), beta=1.0, max_iter=10)
    cfg = validate(prob, params)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(6)
    st = initial_state(prob, cfg.rule, x0, np.zeros(2))
    weights = solver.step_block(cfg, st, 1).rows[0][4]
    rhs = weights.dot(st.adj)
    st, trace = step(prob, cfg, st)
    grad = prob.objective.gradient(x0)
    assert np.array_equal(st.x_k, (1.0 / (1.0 / cfg.sigma)) * rhs)
    expected = x0 - cfg.sigma * grad
    np.testing.assert_allclose(st.x_k, expected, rtol=0,
                               atol=1e-14 * np.linalg.norm(expected))
    assert np.array_equal(st.lam_k, np.zeros(2))
    assert trace.cg_iters == 0


def test_step_start_has_no_momentum(small_instance):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0)))
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(prob.n)
    lam0 = rng.standard_normal(prob.p)
    st = initial_state(prob, cfg.rule, x0, lam0)
    new_st, trace = step(prob, cfg, st)
    assert np.array_equal(trace.y_k, x0)
    # with x_prev = x0 and lam_prev = lam0 the dense update has no momentum:
    # mu_1 = lam0 and nu_1 = gamma lam0
    _, x_next, lam_next = _dense_step_oracle(prob, cfg, x0, x0, lam0, lam0,
                                             st.t_k, next_t(cfg.rule, st.t_k, st.k))
    np.testing.assert_allclose(new_st.x_k, x_next, atol=1e-10)
    np.testing.assert_allclose(new_st.lam_k, lam_next, atol=1e-10)


def test_step_matches_dense_oracle(small_instance, state_at):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0), beta=0.7))
    rng = np.random.default_rng(14)
    rule = cfg.rule
    for _ in range(5):
        k = int(rng.integers(1, 30))
        x, x_prev = rng.standard_normal((2, prob.n))
        lam, lam_prev = rng.standard_normal((2, prob.p))
        st = state_at(prob, rule, k, x, x_prev, lam, lam_prev)
        new_st, trace = step(prob, cfg, st)
        y, x_next, lam_next = _dense_step_oracle(
            prob, cfg, x, x_prev, lam, lam_prev, st.t_k, next_t(rule, st.t_k, k))
        # eta, nu and s enter x_{k+1}; z_{k+1} enters lam_{k+1} through A z
        np.testing.assert_allclose(trace.y_k, y, atol=1e-12)
        np.testing.assert_allclose(new_st.x_k, x_next, atol=1e-10)
        np.testing.assert_allclose(new_st.lam_k, lam_next, atol=1e-10)


_FOUR_RULES = [nesterov(), chambolle_dossal(4.0), attouch_cabot(4.0), constant(0.5)]


@pytest.mark.parametrize("rule", _FOUR_RULES, ids=lambda rule: rule.kind)
def test_step_matches_dense_oracle_late_in_a_run(shipped_instance, state_at, rule):
    # The block's weights grow like t_{k+1}^2, about 1e7 at k = 10^4 for the
    # alpha rules and 2.5e7 for Nesterov's; the step must still match the
    # straight-line update there, to a rounding allowance that grows with them.
    prob = shipped_instance[0]
    cfg = validate(prob, SolverParams(rule=rule, beta=0.7))
    rng = np.random.default_rng(5)
    for k in (1, 10, 100, 1000, 3000, 10_000):
        x, x_prev = rng.standard_normal((2, prob.n))
        lam, lam_prev = rng.standard_normal((2, prob.p))
        st = state_at(prob, rule, k, x, x_prev, lam, lam_prev)
        new_st, trace = step(prob, cfg, st)
        t_k1 = next_t(rule, st.t_k, k)
        want = _dense_step_oracle(prob, cfg, x, x_prev, lam, lam_prev, st.t_k, t_k1)
        tol = 1e-14 * max(1.0, t_k1 ** 2)
        for got, ref in zip((trace.y_k, new_st.x_k, new_st.lam_k), want):
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("rule", _FOUR_RULES, ids=lambda rule: rule.kind)
def test_constrained_run_matches_a_reference_loop(shipped_instance, rule):
    # 2,000 steps of the paper's update written out with dense products and a
    # direct solve; rounding alone separates them (at most 4.2e-11 here)
    prob = shipped_instance[0]
    params = SolverParams(rule=rule, beta=1.0, max_iter=2000, record_every=2000)
    cfg = validate(prob, params)
    res = run(prob, params, cfg=cfg)
    x = x_prev = np.zeros(prob.n)
    lam = lam_prev = np.zeros(prob.p)
    ts = t_values(rule, 2001)
    for k in range(1, 2001):
        _, x_next, lam_next = _dense_step_oracle(prob, cfg, x, x_prev, lam, lam_prev,
                                                 ts[k - 1], ts[k])
        x_prev, x, lam_prev, lam = x, x_next, lam, lam_next
    assert res.iterations == 2000
    assert np.max(np.abs(res.x - x)) <= 1e-9 * np.max(np.abs(x))
    assert np.max(np.abs(res.lam - lam)) <= 1e-9 * np.max(np.abs(lam))


def test_extrapolation_identities_along_run(small_instance):
    # x_{k+1} - y_k = (z_{k+1} - z_k)/t_{k+1} with z_k = x_k + (t_k-1)(x_k - x_{k-1}),
    # and the dual analogue lam_{k+1} - mu_k = (nu_{k+1} - nu_k)/t_{k+1}.
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=nesterov(), beta=1.0, max_iter=200))
    st = initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    for _ in range(200):
        z_old = st.x_k + (st.t_k - 1.0) * (st.x_k - st.x_prev)
        nu_old = st.lam_k + (st.t_k - 1.0) * (st.lam_k - st.lam_prev)
        mu = st.lam_k + ((st.t_k - 1.0) / next_t(cfg.rule, st.t_k, st.k)) * (
            st.lam_k - st.lam_prev)
        st, trace = step(prob, cfg, st)
        z_new = st.x_k + (st.t_k - 1.0) * (st.x_k - st.x_prev)
        nu_new = st.lam_k + (st.t_k - 1.0) * (st.lam_k - st.lam_prev)
        lhs = st.x_k - trace.y_k
        rhs = (z_new - z_old) / st.t_k
        tol = 1e-9 * max(1.0, float(np.linalg.norm(z_new)))
        assert np.linalg.norm(lhs - rhs) <= tol
        lhs_d = st.lam_k - mu
        rhs_d = (nu_new - nu_old) / st.t_k
        tol_d = 1e-9 * max(1.0, float(np.linalg.norm(nu_new)))
        assert np.linalg.norm(lhs_d - rhs_d) <= tol_d


def test_stationarity_residual_along_run(small_instance):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0), beta=1.0))
    a = prob.a_map.matrix
    st = initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    for _ in range(200):
        prev = st
        st, trace = step(prob, cfg, st)
        g, t_k, t_k1 = cfg.gamma, prev.t_k, next_t(cfg.rule, prev.t_k, prev.k)
        nu = g * prev.lam_k + (t_k - 1.0) * (prev.lam_k - prev.lam_prev)
        eta = a @ prev.x_k + (g / (t_k1 - 1.0 + g)) * (prob.b - a @ prev.x_k)
        s = (cfg.rho / g) * t_k1 * (t_k1 - 1.0 + g)
        rhs = (trace.y_k / cfg.sigma - prob.objective.gradient(trace.y_k)
               - cfg.beta * a.T @ (a @ trace.y_k - prob.b)
               - (a.T @ nu) / g
               + (s / g) * (a.T @ eta))
        lhs = st.x_k / cfg.sigma + (s / g) * (a.T @ (a @ st.x_k))
        resid = np.linalg.norm(lhs - rhs)
        assert resid <= cfg.cg_tol * max(1.0, float(np.linalg.norm(rhs))) * 1.01
        assert prev.k + 1 == st.k


def test_run_zero_budget_returns_initial(small_instance):
    prob, _ = small_instance
    res = run(prob, SolverParams(rule=nesterov(), max_iter=0))
    assert res.iterations == 0
    assert res.reason == "iteration budget"
    assert np.array_equal(res.x, np.zeros(prob.n))
    assert len(res.records) == 1


def test_run_reaches_oracle(small_instance):
    prob, qp = small_instance
    x_star, lam_star = kkt_solve(qp)
    params = SolverParams(rule=chambolle_dossal(4.0), gamma=0.9, beta=1.0,
                          max_iter=5000, kkt_tol=1e-7, record_every=100)
    res = run(prob, params)
    assert res.reason == "kkt tolerance"
    grad_res, feas_res = kkt_residuals(prob, res.x, res.lam)
    assert grad_res <= 1e-6 and feas_res <= 1e-6
    assert np.linalg.norm(res.x - x_star) <= 1e-5 * max(1.0, np.linalg.norm(x_star))


def test_run_unconstrained_matches_reference_loop():
    prob, _ = generate(GenSpec("unconstrained", 12, 3, 9, 8.0))
    params = SolverParams(rule=nesterov(), beta=1.0, max_iter=300, record_every=50)
    cfg = validate(prob, params)
    # independently coded accelerated gradient loop
    import math
    x_prev = np.zeros(12)
    x = np.zeros(12)
    t = 1.0
    st = initial_state(prob, cfg.rule, np.zeros(12), np.zeros(3))
    for _ in range(300):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        x_prev, x, t = x, y - cfg.sigma * prob.objective.gradient(y), t_next
        st, _ = step(prob, cfg, st)
        assert np.max(np.abs(st.x_k - x)) <= 1e-12


def test_run_determinism(small_instance):
    prob, qp = small_instance
    saddle = kkt_solve(qp)
    params = SolverParams(rule=attouch_cabot(4.0), beta=0.5, max_iter=400,
                          record_every=7)
    r1 = run(prob, params, saddle=saddle)
    r2 = run(prob, params, saddle=saddle)
    assert len(r1.records) == len(r2.records)
    for a, b in zip(r1.records, r2.records):
        assert a == b  # dataclass equality: bit-identical floats
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(r1.lam, r2.lam)


def test_run_observer_sees_records(small_instance):
    prob, _ = small_instance
    seen = []
    res = run(prob, SolverParams(rule=nesterov(), max_iter=50, record_every=10),
              observer=lambda rec, state: seen.append((rec, state)))
    assert [rec for rec, _ in seen] == res.records
    assert [state.k for _, state in seen] == [rec.k for rec in res.records]
    assert np.array_equal(seen[-1][1].x_k, res.x)


def test_run_inner_solve_failure_is_partial(small_instance):
    # A residual target below rounding fails the closed form's check, and the
    # conjugate-gradient refinement cannot meet it within its budget either.
    prob = small_instance[0]
    params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0, max_iter=50,
                          cg_tol=1e-300)
    res = run(prob, params)
    assert res.reason == "inner solve failure"
    assert res.error is not None
    assert res.records  # at least the initial record survives


def test_trailing_record_after_a_failed_step_carries_its_corrections():
    # The gradient turns NaN at its 251st call: initial_state takes one call
    # and each step one, at its new iterate, so the step to k = 251 fails and
    # k = 250 is recorded after the loop, with the refinement corrections of
    # the step to k = 250 (one here; the trailing record used to say 0). The
    # NaN gradient names the run's end "non-finite iterate".
    prob, _ = generate(GenSpec("random_qp", 20, 19, 7, 1.0))
    obj = prob.objective
    calls = itertools.count(1)

    def gradient(x):
        g = obj.gradient(x)
        return g if next(calls) <= 250 else np.full_like(g, np.nan)

    bad = Problem(objective=Objective(obj.value, gradient, obj.lipschitz, obj.data),
                  a_map=prob.a_map, b=prob.b)
    params = SolverParams(rule=chambolle_dossal(4.0), cg_tol=1e-14, max_iter=300,
                          record_every=1000)
    res = run(bad, params)
    assert res.reason == "non-finite iterate" and res.iterations == 249
    every = run(prob, SolverParams(rule=chambolle_dossal(4.0), cg_tol=1e-14,
                                   max_iter=250, record_every=1))
    assert every.records[249].k == 250 and every.records[249].cg_iters == 1
    assert [(rec.k, rec.cg_iters) for rec in res.records] == [(1, 0), (250, 1)]


@pytest.mark.parametrize("rule", _FOUR_RULES, ids=lambda rule: rule.kind)
def test_recorded_t_k_equals_t_values_bitwise(rule):
    # a run takes t_k from its step blocks, 256 values at a time from the
    # state's t_k; t_values gives the same values
    prob, _ = generate(GenSpec("unconstrained", 3, 1, 5, 4.0))
    params = SolverParams(rule=rule, beta=1.0, max_iter=10_000, record_every=1)
    res = run(prob, params)
    assert len(res.records) == 10_001
    recorded = np.array([rec.t_k for rec in res.records])
    assert recorded.tobytes() == t_values(rule, 10_001).tobytes()


@pytest.mark.parametrize("kind", ["random_qp", "constrained_least_squares"])
def test_objective_rebuilt_from_its_fields_runs_the_same(kind):
    # value, gradient, lipschitz and data are all an objective holds: one
    # rebuilt from them (with wrapped oracles, as a call counter does) gives
    # the same KKT oracle, sharing its arrays, and bitwise-equal records
    prob, qp = generate(GenSpec(kind, 30, 6, 3, 50.0))
    obj = prob.objective
    rebuilt = Problem(objective=Objective(value=lambda x: obj.value(x),
                                          gradient=lambda x: obj.gradient(x),
                                          lipschitz=obj.lipschitz, data=obj.data),
                      a_map=prob.a_map, b=prob.b)
    qp2 = qp_from_problem(rebuilt)
    assert qp2 is not None
    for got, want in zip(qp2.problem.objective.data[1:], obj.data[1:]):
        assert got is want
    params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0, max_iter=300,
                          record_every=7)
    saddle = kkt_solve(qp)
    assert run(rebuilt, params, saddle=saddle).records == run(prob, params,
                                                              saddle=saddle).records


def test_step_rejects_nonfinite_iterates(small_instance):
    prob, _ = small_instance
    bad = Problem(objective=Objective(value=lambda x: 0.0,
                                      gradient=lambda x: np.full(prob.n, np.inf),
                                      lipschitz=1.0),
                  a_map=prob.a_map, b=prob.b)
    cfg = validate(bad, SolverParams(rule=nesterov()))
    st = initial_state(bad, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    with pytest.raises(StepError, match="right-hand side is not finite") as err:
        step(bad, cfg, st)
    assert err.value.reason == "non-finite iterate"


def test_step_rejects_nonfinite_gradient_step(tiny_qp):
    # A finite right-hand side whose dual step overflows: the iterate check fires.
    cfg = validate(tiny_qp, SolverParams(rule=nesterov(), rho=1e300))
    st = initial_state(tiny_qp, cfg.rule, np.zeros(2), np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepError, match="iterate left the finite range") as err:
        step(tiny_qp, cfg, st)
    assert err.value.iteration == 1 and err.value.reason == "non-finite iterate"


def test_step_overflowing_primal_iterate_fails_the_residual_check(tiny_qp):
    # A finite right-hand side near 1e150 with sigma near 1e200 (tiny L,
    # beta = 0): the closed form overflows, so the residual is not finite, every
    # refinement correction misses the target, and the step raises StepError.
    huge = Problem(objective=Objective(value=lambda x: 0.0,
                                       gradient=lambda x: np.full(2, -1e150),
                                       lipschitz=1e-200),
                   a_map=tiny_qp.a_map, b=tiny_qp.b)
    cfg = validate(huge, SolverParams(rule=nesterov(), beta=0.0))
    st = initial_state(huge, cfg.rule, np.zeros(2), np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepError, match="primal subproblem solve failed") as err:
        step(huge, cfg, st)
    assert err.value.iteration == 1
    assert isinstance(err.value.__cause__, SpdSolveError)
    assert err.value.__cause__.iterations == REFINE_STEPS
    assert err.value.reason == "non-finite iterate"


def test_step_rejects_an_infinite_primal_iterate_that_the_map_hides(tiny_qp):
    # A right-hand side near 1e300, orthogonal to A's row, with sigma near 1e10:
    # x_{k+1} overflows to (inf, -inf), and so do ||rhs|| and the target, so the
    # solve returns it with an infinite residual. A map whose image of x_{k+1}
    # is NaN, masked to 0, keeps lam_{k+1} finite; only the test of x_{k+1} is left.
    a = tiny_qp.a_map.matrix

    def masked(x):
        ax = a @ x
        return np.where(np.isfinite(ax), ax, 0.0)

    prob = Problem(objective=Objective(value=lambda x: 0.0,
                                       gradient=lambda x: np.array([-1e300, 1e300]),
                                       lipschitz=1e-10),
                   a_map=LinearMap(forward=masked, adjoint=lambda y: a.T @ y, dims=(2, 1)),
                   b=tiny_qp.b)
    cfg = validate(prob, SolverParams(rule=nesterov(), beta=0.0))
    st = initial_state(prob, cfg.rule, np.zeros(2), np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepError, match="iterate left the finite range") as err:
        step(prob, cfg, st)
    assert err.value.iteration == 1


def test_step_keeps_a_finite_primal_iterate_whose_residual_norm_overflows(tiny_qp):
    # A right-hand side near 1e300 with sigma near 1: x_{k+1} near 1e300 is
    # finite, but ||rhs|| and the norm of the residual's rounding overflow. The
    # infinite residual alone does not end the step; the entrywise test decides.
    prob = Problem(objective=Objective(value=lambda x: 0.0,
                                       gradient=lambda x: np.array([-1e300, 1e300]),
                                       lipschitz=1.0),
                   a_map=tiny_qp.a_map, b=tiny_qp.b)
    cfg = validate(prob, SolverParams(rule=nesterov(), beta=0.0))
    st = initial_state(prob, cfg.rule, np.zeros(2), np.zeros(1))
    with np.errstate(over="ignore"):
        new_st, _ = step(prob, cfg, st)
    assert np.isfinite(new_st.x_k).all() and np.isfinite(new_st.lam_k).all()


@pytest.mark.parametrize("a_map", [
    dense_map(np.zeros((0, 3))),
    LinearMap(forward=lambda x: np.zeros(0), adjoint=lambda y: np.zeros(3), dims=(3, 0)),
], ids=["dense", "matrix-free"])
def test_validate_refuses_a_map_without_rows(a_map):
    prob = Problem(objective=quadratic_objective(np.eye(3), np.zeros(3)), a_map=a_map, b=[])
    with pytest.raises(ValidationError, match="no rows or no columns") as err:
        validate(prob, SolverParams(rule=nesterov()))
    assert err.value.condition == "p ≥ 1 and n ≥ 1"


def test_run_dense_matches_matrix_free(small_instance):
    prob, _ = small_instance
    params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0, max_iter=2000,
                          record_every=100)
    # The matrix-free map is rebuilt from its adjoint probes into the same
    # matrix, so both runs take the same path to the bit.
    dense = run(prob, params)
    free = run(_matrix_free(prob), params)
    assert all(rec.cg_iters == 0 for rec in dense.records)
    assert free.records == dense.records
    assert free.x.tobytes() == dense.x.tobytes()
    assert free.lam.tobytes() == dense.lam.tobytes()


def test_run_refines_the_closed_form_on_a_generated_instance(monkeypatch):
    # Refinement is not dead code: on this well-conditioned 20x19 instance the
    # closed form misses its residual target on 86 of 300 steps at cg_tol
    # 1e-12 (the first at k = 212) and on 259 at 1e-14. A correction from the
    # map's own factor is nearly exact, so no step needs more than 2.
    prob, qp = generate(GenSpec("random_qp", 20, 19, 7, 1.0))
    lone_step = solver.step
    for cg_tol in (1e-12, 1e-14):
        params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0, max_iter=300,
                              record_every=1, cg_tol=cg_tol)
        res = run(prob, params)
        assert (res.reason, res.error, res.iterations) == ("iteration budget", None, 300)
        assert any(rec.cg_iters > 0 for rec in res.records)
        assert max(rec.cg_iters for rec in res.records) <= 2
        free = run(_matrix_free(prob), params)
        assert free.records == res.records
        assert free.x.tobytes() == res.x.tobytes()
        assert free.lam.tobytes() == res.lam.tobytes()
        # a step applies 1 forward and 2 adjoints, and one of each per
        # correction; the records, with or without a saddle point, read the
        # images the states carry, so nothing is applied between two steps or
        # after the last one
        for saddle in (None, kkt_solve(qp)):
            counted, calls = _counting(prob)
            counts = []  # (corrections, applies before the step, applies after it)

            def counting_step(*args, **kwargs):
                before = (calls["forward"], calls["adjoint"])
                new, trace = lone_step(*args, **kwargs)
                counts.append((trace.cg_iters, before, (calls["forward"], calls["adjoint"])))
                return new, trace

            monkeypatch.setattr(solver, "step", counting_step)
            observed = run(counted, params, saddle=saddle)
            monkeypatch.setattr(solver, "step", lone_step)
            assert [replace(rec, gap=None, obj_err=None, energy=None)
                    for rec in observed.records] == res.records
            assert len(counts) == 300
            for cg, (fwd0, adj0), (fwd1, adj1) in counts:
                assert (fwd1 - fwd0, adj1 - adj0) == (1 + cg, 2 + cg)
            afters = [after for _, _, after in counts]
            befores = [before for _, before, _ in counts[1:]]
            assert befores + [(calls["forward"], calls["adjoint"])] == afters


def test_dense_step_applies_the_map_three_times():
    # 1 forward and 2 adjoints per step without refinement; the run adds the
    # image of x_1 and the A* images of lam_1, A x_1 and b, its two records
    # (k = 1 and 21) read A* lam from their states, and validate checks the
    # kept matrix against 2 forward applies
    prob, calls = _counting(generate(GenSpec("random_qp", 50, 10, 7, 1.0))[0])
    params = SolverParams(rule=chambolle_dossal(4.0), max_iter=20, record_every=1000)
    res = run(prob, params)
    assert [rec.k for rec in res.records] == [1, 21]
    assert calls == {"forward": 2 + 1 + 20, "adjoint": 3 + 2 * 20}


def test_run_shipped_cd4_needs_no_cg_iterations():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = load_experiment(os.path.join(here, "configs", "qp_cd.json"))
    spec = next(spec for spec in config.runs if spec.label == "cd4")
    res = run(config.problem, spec.params)
    assert res.reason == "iteration budget"
    assert len(res.records) > 100
    assert all(rec.cg_iters == 0 for rec in res.records)


@pytest.mark.parametrize("kind", ["dense", "matrix_free", "zero", "refining"])
def test_step_caches_exact_image(small_instance, state_at, kind):
    # the blocks' image rows are the map's images of their rows, bit for bit,
    # also after steps that refine their inner solve; adj's iterate rows are
    # the state's x_k and x_{k-1}, which read them as views; a state rebuilt
    # from its four iterates steps to the same bits, and a step builds fresh
    # blocks
    prob = {"dense": small_instance[0], "matrix_free": _matrix_free(small_instance[0]),
            "zero": generate(GenSpec("unconstrained", 6, 2, 1, 5.0))[0],
            "refining": generate(GenSpec("random_qp", 20, 19, 7, 1.0))[0]}[kind]
    params = SolverParams(rule=chambolle_dossal(4.0),
                          cg_tol=1e-14 if kind == "refining" else 1e-12)
    cfg = validate(prob, params)
    a, obj = prob.a_map, prob.objective
    st = initial_state(prob, cfg.rule, np.ones(prob.n), np.zeros(prob.p))
    if kind == "refining":  # the closed form first misses 1e-14 on the step from k = 41
        while st.k < 41:
            st, _ = step(prob, cfg, st)

    def assert_images_exact(state):
        assert state.ax_k.tobytes() == a.forward(state.x_k).tobytes()
        assert state.ax_prev.tobytes() == a.forward(state.x_prev).tobytes()
        assert state.hist[4].tobytes() == prob.b.tobytes()
        for row, image in zip(state.hist, state.adj):
            assert image.tobytes() == a.adjoint(row).tobytes()
        # then the iterate rows x_k and x_{k-1}, the very memory of the views
        assert state.adj[5].tobytes() == state.x_k.tobytes()
        assert state.adj[6].tobytes() == state.x_prev.tobytes()
        assert np.shares_memory(state.x_k, state.adj[5])
        assert np.shares_memory(state.x_prev, state.adj[6])
        # a quadratic objective's state carries the gradients at both iterates
        assert len(state.adj) == 9
        assert state.grad_k.tobytes() == obj.gradient(state.x_k).tobytes()
        assert state.adj[8].tobytes() == obj.gradient(state.x_prev).tobytes()

    corrections = 0
    for _ in range(5):
        assert_images_exact(st)
        rebuilt = state_at(prob, cfg.rule, st.k, st.x_k, st.x_prev, st.lam_k, st.lam_prev)
        assert rebuilt.hist.tobytes() == st.hist.tobytes()
        assert rebuilt.adj.tobytes() == st.adj.tobytes()
        before = (st.hist.copy(), st.adj.copy())
        again, _ = step(prob, cfg, rebuilt)
        new, trace = step(prob, cfg, st)
        corrections += trace.cg_iters
        for name in ("x_k", "lam_k", "ax_k", "ax_prev", "lam_prev", "hist", "adj"):
            assert getattr(again, name).tobytes() == getattr(new, name).tobytes()
        for old, kept in zip((st.hist, st.adj), before):
            assert old.tobytes() == kept.tobytes()
            assert not np.shares_memory(old, new.hist) and not np.shares_memory(old, new.adj)
        st = new
    assert_images_exact(st)
    assert (corrections > 0) == (kind == "refining")


@pytest.fixture(scope="module")
def shipped_instance():
    """The 50x10 instance of configs/qp_cd.json and its KKT saddle point."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = load_experiment(os.path.join(here, "configs", "qp_cd.json"))
    return config.problem, kkt_solve(config.qp)


def _run_with_states(prob, params, saddle, cfg):
    """``run`` plus the ``(record, state)`` pairs its observer received."""
    pairs = []
    res = run(prob, params, saddle=saddle, cfg=cfg,
              observer=lambda rec, state: pairs.append((rec, state)))
    return res, pairs


def _assert_records_are_public_diagnostics(prob, cfg, res, pairs, saddle):
    """Every record equals the public diagnostics of its state, bit for bit."""
    star = saddle_terms(prob, *saddle)
    assert [rec for rec, _ in pairs] == res.records
    prev = pairs[0][1]
    for rec, st in pairs:
        assert (rec.k, rec.t_k) == (st.k, st.t_k)
        assert st.x_prev.tobytes() == prev.x_k.tobytes()
        assert st.lam_prev.tobytes() == prev.lam_k.tobytes()
        grad_res, feas_res = kkt_residuals(prob, st.x_k, st.lam_k)
        assert (rec.kkt_grad, rec.kkt_feas, rec.feas) == (grad_res, feas_res, feas_res)
        gap_terms = gap(prob, st.x_k, st.lam_k, star)
        assert rec.gap == gap_terms.value
        assert rec.obj_err == objective_error(star, gap_terms)
        residual = prob.a_map.forward(st.x_k) - prob.b
        assert rec.energy == energy(cfg, st, star, gap_terms, residual,
                                    float(residual.dot(residual)))
        prev = st


@pytest.mark.parametrize("rule", [constant(), nesterov(), chambolle_dossal(3.0),
                                  chambolle_dossal(4.0), attouch_cabot(4.0)],
                         ids=lambda rule: rule.kind + str(rule.alpha or ""))
def test_records_equal_public_diagnostics(shipped_instance, rule):
    prob, saddle = shipped_instance
    params = SolverParams(rule=rule, max_iter=300, record_every=1)
    cfg = validate(prob, params)
    res, pairs = _run_with_states(prob, params, saddle, cfg)
    assert len(res.records) == 301
    _assert_records_are_public_diagnostics(prob, cfg, res, pairs, saddle)


def test_records_equal_public_diagnostics_matrix_free_and_kkt_tol(shipped_instance):
    prob, saddle = shipped_instance
    free = _matrix_free(prob)
    params = SolverParams(rule=chambolle_dossal(4.0), beta=0.5, max_iter=300,
                          record_every=1)
    cfg = validate(free, params)
    res, pairs = _run_with_states(free, params, saddle, cfg)
    _assert_records_are_public_diagnostics(free, cfg, res, pairs, saddle)

    params = SolverParams(rule=nesterov(), max_iter=5000, kkt_tol=1e-4, record_every=1)
    cfg = validate(prob, params)
    res, pairs = _run_with_states(prob, params, saddle, cfg)
    assert res.reason == "kkt tolerance"
    _assert_records_are_public_diagnostics(prob, cfg, res, pairs, saddle)

    # an objective without data: the Bregman term is a difference of values
    obj = prob.objective
    plain = Problem(objective=Objective(value=obj.value, gradient=obj.gradient,
                                        lipschitz=obj.lipschitz),
                    a_map=prob.a_map, b=prob.b)
    params = SolverParams(rule=chambolle_dossal(4.0), max_iter=300, record_every=1)
    cfg = validate(plain, params)
    res, pairs = _run_with_states(plain, params, saddle, cfg)
    assert len(res.records) == 301
    _assert_records_are_public_diagnostics(plain, cfg, res, pairs, saddle)


def _reference_kkt_run(prob, cfg):
    """Exhaustive stop test: the public step, then the exact KKT residuals of
    every iterate; records as ``run`` emits them without a saddle point."""
    st = initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))

    def record(state, cg_iters, kkt):
        return RunRecord(k=state.k, t_k=state.t_k, gap=None, feas=kkt[1], obj_err=None,
                         kkt_grad=kkt[0], kkt_feas=kkt[1], energy=None,
                         cg_iters=cg_iters)

    records = [record(st, 0, kkt_residuals(prob, st.x_k, st.lam_k))]
    reason = "iteration budget"
    for i in range(cfg.max_iter):
        st, trace = step(prob, cfg, st)
        kkt = kkt_residuals(prob, st.x_k, st.lam_k)
        stop = kkt[0] <= cfg.kkt_tol and kkt[1] <= cfg.kkt_tol
        if stop or st.k % cfg.record_every == 0 or i == cfg.max_iter - 1:
            records.append(record(st, trace.cg_iters, kkt))
        if stop:
            reason = "kkt tolerance"
            break
    return st, reason, records


_RULES = [constant(), nesterov(), chambolle_dossal(3.0), chambolle_dossal(4.0),
          attouch_cabot(4.0)]


def _assert_stops_where_an_exhaustive_kkt_test_stops(prob, rule, beta, kkt_tol,
                                                     record_every, max_iter):
    params = SolverParams(rule=rule, beta=beta, max_iter=max_iter, kkt_tol=kkt_tol,
                          record_every=record_every)
    cfg = validate(prob, params)
    res = run(prob, params, cfg=cfg)
    ref_st, ref_reason, ref_records = _reference_kkt_run(prob, cfg)
    assert (res.reason, res.iterations) == (ref_reason, ref_st.k - 1)
    assert res.records == ref_records
    assert all(rec.kkt_feas == rec.feas for rec in res.records)
    assert res.x.tobytes() == ref_st.x_k.tobytes()
    assert res.lam.tobytes() == ref_st.lam_k.tobytes()


_STOP_CASES = dict(
    kind=hst.sampled_from(["random_qp", "constrained_least_squares", "unconstrained"]),
    seed=hst.integers(0, 2**16), free=hst.booleans(), rule=hst.sampled_from(_RULES),
    beta=hst.sampled_from([0.0, 0.5, 1.0]),
    kkt_tol=hst.sampled_from([1e-2, 1e-3, 1e-4, 1e-6]),
    record_every=hst.integers(1, 40), max_iter=hst.integers(1, 400))


@settings(max_examples=60, deadline=None)
@given(**_STOP_CASES)
def test_run_stops_where_an_exhaustive_kkt_test_stops(kind, seed, free, rule, beta,
                                                      kkt_tol, record_every, max_iter):
    # run tests a stop on the gradient its state carries and skips the test
    # where the feasibility residual rules a stop out; that must change
    # neither where it stops nor a single bit of its output
    prob, _ = generate(GenSpec(kind, 12, 4, seed, 20.0))
    if free:
        prob = _matrix_free(prob)
    _assert_stops_where_an_exhaustive_kkt_test_stops(prob, rule, beta, kkt_tol,
                                                     record_every, max_iter)


@settings(max_examples=60, deadline=None)
@given(**_STOP_CASES)
def test_run_without_data_stops_where_an_exhaustive_kkt_test_stops(
        kind, seed, free, rule, beta, kkt_tol, record_every, max_iter):
    # without data, run skips the exact stop test where a Lipschitz bound
    # rules a stop out; that must change neither where it stops nor a single
    # bit of its output
    prob, _ = generate(GenSpec(kind, 12, 4, seed, 20.0))
    if free:
        prob = _matrix_free(prob)
    _assert_stops_where_an_exhaustive_kkt_test_stops(_without_data(prob), rule, beta,
                                                     kkt_tol, record_every, max_iter)


def test_kkt_tol_run_calls_the_gradient_about_once_per_iteration():
    prob, _ = generate(GenSpec("constrained_least_squares", 200, 40, 3, 10.0))
    calls = []

    def gradient(x):
        calls.append(1)
        return prob.objective.gradient(x)

    counted = Problem(objective=Objective(value=prob.objective.value, gradient=gradient,
                                          lipschitz=prob.objective.lipschitz),
                      a_map=_matrix_free(prob).a_map, b=prob.b)
    res = run(counted, SolverParams(rule=chambolle_dossal(4.0), kkt_tol=1e-4,
                                    max_iter=5000, record_every=100))
    assert res.reason == "kkt tolerance" and res.iterations > 100
    # one gradient per step; an exact stop test (a second one) only near the stop
    assert len(calls) <= 1.3 * res.iterations


def test_kkt_tol_run_of_a_quadratic_objective_calls_the_gradient_once_per_step():
    # one call in initial_state, then one per step at its new iterate; the
    # stop test and the records read grad f(x_k) from the state
    prob, _ = generate(GenSpec("constrained_least_squares", 200, 40, 3, 10.0))
    obj = prob.objective
    calls = []

    def gradient(x):
        calls.append(1)
        return obj.gradient(x)

    counted = Problem(objective=Objective(obj.value, gradient, obj.lipschitz, obj.data),
                      a_map=prob.a_map, b=prob.b)
    res = run(counted, SolverParams(rule=chambolle_dossal(4.0), kkt_tol=1e-4,
                                    max_iter=5000, record_every=100))
    assert res.reason == "kkt tolerance" and res.iterations > 100
    assert len(calls) == 1 + res.iterations


@pytest.mark.parametrize("label, stop", [("nesterov", 327), ("cd4", 274)])
def test_stop_tests_with_and_without_data_agree(label, stop):
    # the instance of configs/cls_kkt.json as generated (the exact test on the
    # gradient the state carries) and rebuilt without data (the gradient at
    # y_k and the lower bound): the same stop, and residuals equal to rounding
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = load_experiment(os.path.join(here, "configs", "cls_kkt.json"))
    params = {spec.label: spec.params for spec in config.runs}[label]
    assert params.kkt_tol == 1e-4
    got = run(config.problem, params)
    want = run(_without_data(config.problem), params)
    assert (got.reason, got.iterations) == (want.reason, want.iterations) == (
        "kkt tolerance", stop)
    assert [rec.k for rec in got.records] == [rec.k for rec in want.records]
    for field in ("kkt_grad", "kkt_feas"):
        np.testing.assert_allclose([getattr(rec, field) for rec in got.records],
                                   [getattr(rec, field) for rec in want.records],
                                   rtol=1e-10)


def test_kkt_tol_run_applies_the_adjoint_only_in_its_steps(monkeypatch):
    # after validate: A* of lam_1, A x_1 and b at the start, then 2 + cg_k in
    # step k; the stop test and the records read A* lam from the state
    prob, _ = generate(GenSpec("constrained_least_squares", 200, 40, 3, 10.0))
    a = prob.a_map
    calls = []

    def adjoint(y):
        calls.append(1)
        return a.adjoint(y)

    free = Problem(objective=prob.objective, b=prob.b,
                   a_map=LinearMap(forward=a.forward, adjoint=adjoint, dims=a.dims))
    params = SolverParams(rule=chambolle_dossal(4.0), kkt_tol=1e-4, max_iter=5000,
                          record_every=100)
    cfg = validate(free, params)
    corrections = []

    def traced_step(*args):
        new, trace = step(*args)
        corrections.append(trace.cg_iters)
        return new, trace

    monkeypatch.setattr(solver, "step", traced_step)
    calls.clear()
    res = run(free, params, cfg=cfg)
    assert res.reason == "kkt tolerance" and res.iterations == len(corrections) > 100
    assert len(calls) == 3 + sum(2 + cg for cg in corrections)


# the rules of configs/qp_cd.json, by their labels there
_SHIPPED_RULES = {"nesterov": nesterov(), "cd3": chambolle_dossal(3.0),
                  "cd4": chambolle_dossal(4.0), "ac4": attouch_cabot(4.0),
                  "constant": constant()}


def _scalar_row(cfg, k, t_k, n_adj):
    """The scalars of the step from index k as one step's scalar formulas
    give them: ``t_{k+1}`` by ``next_t``, then each weight, the system scale
    and the Woodbury gains, in the layout of a :class:`solver.StepBlock` row."""
    g, rho, beta = cfg.gamma, cfg.rho, cfg.beta
    t_k1 = next_t(cfg.rule, t_k, k)
    momentum = (t_k - 1.0) / t_k1
    c = (t_k - 1.0) / g
    r = rho / g
    w_ax = beta * (1.0 + momentum) - (r / g) * t_k1 * (t_k1 - 1.0)
    # minus the dual argument's weights, then y/sigma's and -grad f(y)'s
    adj_weights = (-(1.0 + c), -w_ax, c, beta * momentum, beta + r * t_k1,
                   (1.0 + momentum) / cfg.sigma, -momentum / cfg.sigma,
                   -(1.0 + momentum), momentum)[:n_adj]
    hist_weights = (1.0 + momentum, -r * (t_k1 - 1.0), -momentum, 0.0, -rho)
    scale = (rho / g) * t_k1 * (t_k1 - 1.0 + g) / g
    shift = 1.0 / cfg.sigma
    gain = 1.0 / (shift + scale * cfg.spectral.s2) - 1.0 / shift
    return (t_k1, momentum, scale, r * (t_k1 - 1.0 + g), np.array(adj_weights),
            np.array(hist_weights), gain)


def _bits(row):
    return [np.asarray(value, dtype=float).tobytes() for value in row]


def _assert_block_is_the_scalar_chain(cfg, st, block):
    assert block.k == st.k
    k, t_k = st.k, st.t_k
    for row in block.rows:
        want = _scalar_row(cfg, k, t_k, len(st.adj))
        assert _bits(row) == _bits(want)
        assert all(type(value) is float for value in row[:4])
        k, t_k = k + 1, want[0]


@pytest.mark.parametrize("rule", list(_SHIPPED_RULES.values()), ids=list(_SHIPPED_RULES))
def test_step_block_rows_equal_the_scalar_formulas_bitwise(shipped_instance, rule):
    # nine weights over adj with data, seven without, the iterate rows' two
    # (1 + m)/sigma and -m/sigma among them; three blocks' worth of rows, so a
    # block longer than BLOCK is the same chain
    prob = shipped_instance[0]
    for problem in (prob, _without_data(prob)):
        cfg = validate(problem, SolverParams(rule=rule, max_iter=10))
        st = initial_state(problem, rule, np.zeros(problem.n), np.zeros(problem.p))
        assert rule.kind != "attouch_cabot" or st.t_k == 0.0  # ac4 starts at t_1 = 0
        block = solver.step_block(cfg, st, 2 * solver.BLOCK + 3)
        assert len(block.rows) == 2 * solver.BLOCK + 3
        assert {len(row[4]) for row in block.rows} == {len(st.adj)} == {
            9 if problem is prob else 7}
        _assert_block_is_the_scalar_chain(cfg, st, block)


def test_a_nesterov_block_from_a_state_mid_run_continues_its_t(shipped_instance):
    # the recurrence restarts from the state's t_k, not from t_1
    prob = shipped_instance[0]
    params = SolverParams(rule=nesterov(), max_iter=300, record_every=100)
    cfg = validate(prob, params)
    states = {}
    run(prob, params, cfg=cfg, observer=lambda rec, st: states.setdefault(st.k, st))
    st = states[200]
    block = solver.step_block(cfg, st, 100)
    _assert_block_is_the_scalar_chain(cfg, st, block)
    assert (np.array([row[0] for row in block.rows]).tobytes()
            == t_values(nesterov(), 300)[200:].tobytes())


def _state_bits(st):
    return (st.k, np.float64(st.t_k).tobytes(), st.x_k.tobytes(), st.x_prev.tobytes(),
            st.hist.tobytes(), st.adj.tobytes())


@pytest.mark.parametrize("rule", list(_SHIPPED_RULES.values()), ids=list(_SHIPPED_RULES))
def test_run_steps_equal_lone_steps_across_blocks_bitwise(shipped_instance, rule,
                                                          monkeypatch):
    # a run builds a block at its start and at k = BLOCK + 1, the last one cut
    # to the 5 steps its budget leaves; a lone step builds its own one-row
    # block, and every state is the same to the bit
    prob = shipped_instance[0]
    build = solver.step_block
    for problem in (prob, _without_data(prob)):
        params = SolverParams(rule=rule, max_iter=solver.BLOCK + 5, record_every=1)
        cfg = validate(problem, params)
        built = []
        monkeypatch.setattr(solver, "step_block",
                            lambda cfg, st, count: built.append((st.k, count))
                            or build(cfg, st, count))
        states = []
        run(problem, params, cfg=cfg, observer=lambda rec, st: states.append(st))
        assert built == [(1, solver.BLOCK), (solver.BLOCK + 1, 5)]
        assert [st.k for st in states] == list(range(1, solver.BLOCK + 7))
        st = initial_state(problem, rule, np.zeros(problem.n), np.zeros(problem.p))
        assert _state_bits(st) == _state_bits(states[0])
        for want in states[1:]:
            st, _ = step(problem, cfg, st)
            assert _state_bits(st) == _state_bits(want)
        assert built[2:] == [(k, 1) for k in range(1, solver.BLOCK + 6)]  # one row each


def test_step_refuses_a_block_that_does_not_cover_its_state(small_instance):
    prob = small_instance[0]
    cfg = validate(prob, SolverParams(rule=nesterov(), max_iter=10))
    st = initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    block = solver.step_block(cfg, st, 2)
    st, _ = step(prob, cfg, st, block)
    st, _ = step(prob, cfg, st, block)
    with pytest.raises(ValueError, match="k=3"):
        step(prob, cfg, st, block)
    with pytest.raises(ValueError, match="k=3"):
        step(prob, cfg, st, solver.step_block(cfg, st, 1)._replace(k=4))


def test_an_unbounded_budget_allocates_no_more_than_one_block(shipped_instance):
    # nothing is sized by max_iter: a run with a budget of 10^30 steps that
    # meets its tolerance after 928 (four blocks) stays within 2 MB
    prob = shipped_instance[0]
    params = SolverParams(rule=chambolle_dossal(4.0), max_iter=10 ** 30, kkt_tol=1e-4,
                          record_every=10 ** 30)
    cfg = validate(prob, params)
    tracemalloc.start()
    try:
        res = run(prob, params, cfg=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.reason == "kkt tolerance" and res.iterations == 928
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("data", [True, False], ids=["data", "no_data"])
def test_records_do_not_depend_on_their_step_block(shipped_instance, data):
    # a 300-step run measures its records 258..301 in a 44-row stack, a
    # 700-step run in a 256-row one; the records are the same to the bit
    prob, saddle = shipped_instance
    problem = prob if data else _without_data(prob)
    short, long_ = (run(problem, SolverParams(rule=chambolle_dossal(4.0), max_iter=n,
                                              record_every=1), saddle=saddle)
                    for n in (300, 700))
    assert len(short.records) == 301 and len(long_.records) == 701
    assert short.records == long_.records[:301]


def _observed_run(monkeypatch, prob, params, saddle):
    """``run`` and, for each observer call, the record, its state and the
    number of steps taken so far."""
    lone_step = solver.step
    steps = itertools.count(1)
    taken = [0]

    def counting_step(*args, **kwargs):
        taken[0] = next(steps)
        return lone_step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", counting_step)
    seen = []
    res = run(prob, params, saddle=saddle,
              observer=lambda rec, st: seen.append((rec, st, taken[0])))
    monkeypatch.setattr(solver, "step", lone_step)
    return res, seen


def _assert_observed_in_order_from_their_states(prob, res, seen, saddle):
    star = saddle_terms(prob, *saddle)
    assert [rec for rec, _, _ in seen] == res.records
    ks = [rec.k for rec in res.records]
    assert ks == sorted(set(ks))
    for rec, st, taken in seen:
        assert (rec.k, rec.t_k) == (st.k, st.t_k)
        assert rec.gap == gap(prob, st.x_k, st.lam_k, star).value
        # the state k is made by step k - 1, in block (k - 2) // BLOCK, whose
        # records are measured when the next block starts or the run ends
        assert taken <= ((rec.k - 2) // solver.BLOCK + 1) * solver.BLOCK


def test_the_observer_sees_each_record_with_its_state_by_the_next_block(shipped_instance,
                                                                         monkeypatch):
    prob, saddle = shipped_instance
    params = SolverParams(rule=chambolle_dossal(4.0), max_iter=600, record_every=1)
    res, seen = _observed_run(monkeypatch, prob, params, saddle)
    assert len(res.records) == 601
    _assert_observed_in_order_from_their_states(prob, res, seen, saddle)
    # the records of a block come at the start of the next one, and the last
    # block's at the end of the run
    assert {taken for _, _, taken in seen} == {0, solver.BLOCK, 2 * solver.BLOCK, 600}

    # a stop at the KKT tolerance in the third block is observed at the stop
    params = SolverParams(rule=nesterov(), max_iter=5000, kkt_tol=1e-4, record_every=7)
    res, seen = _observed_run(monkeypatch, prob, params, saddle)
    assert res.reason == "kkt tolerance" and res.iterations > 2 * solver.BLOCK
    assert res.records[-1].k % 7 != 0 and seen[-1][2] == res.iterations
    _assert_observed_in_order_from_their_states(prob, res, seen, saddle)


def test_the_observer_sees_the_trailing_record_of_a_failed_step(monkeypatch):
    # the gradient turns NaN at its 252nd call (the saddle point's terms take
    # one), so the step to k = 251 fails and k = 250 is recorded after the loop
    # (see test_trailing_record_after_a_failed_step_carries_its_corrections)
    prob, qp = generate(GenSpec("random_qp", 20, 19, 7, 1.0))
    obj = prob.objective
    calls = itertools.count(1)

    def gradient(x):
        g = obj.gradient(x)
        return g if next(calls) <= 251 else np.full_like(g, np.nan)

    bad = Problem(objective=Objective(obj.value, gradient, obj.lipschitz, obj.data),
                  a_map=prob.a_map, b=prob.b)
    params = SolverParams(rule=chambolle_dossal(4.0), cg_tol=1e-14, max_iter=300,
                          record_every=100)
    saddle = kkt_solve(qp)
    res, seen = _observed_run(monkeypatch, bad, params, saddle)
    assert res.reason == "non-finite iterate"
    assert [rec.k for rec in res.records] == [1, 100, 200, 250]
    assert [taken for _, _, taken in seen] == [0, 250, 250, 250]
    _assert_observed_in_order_from_their_states(prob, res, seen, saddle)


def _on_cpus(patch, cpus, affinity=True):
    """Let the process look as if it may run on ``cpus`` CPUs, read from
    ``os.sched_getaffinity``, or with ``affinity`` false from ``os.cpu_count``
    on a platform without it."""
    if affinity:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        patch.delattr(os, "sched_getaffinity", raising=False)
        patch.setattr(os, "cpu_count", lambda: cpus)


def _with_and_without_the_worker(monkeypatch, attempt):
    """``attempt()`` with the shipped ``OVERLAP_BYTES``, then with it at 0 on
    two CPUs, so that every objective with ``data`` gets its run's worker
    thread; no thread outlives either call."""
    outcomes = []
    for forced in (False, True):
        with monkeypatch.context() as patch:
            if forced:
                patch.setattr(solver, "OVERLAP_BYTES", 0)
                _on_cpus(patch, 2)
            before = threading.active_count()
            outcomes.append(attempt())
            assert threading.active_count() == before
    return outcomes


def _noting_threads(prob):
    """The same problem with a gradient that notes, per call, whether it ran
    on the main thread."""
    obj = prob.objective
    on_main = []

    def gradient(x):
        on_main.append(threading.current_thread() is threading.main_thread())
        return obj.gradient(x)

    return Problem(objective=Objective(obj.value, gradient, obj.lipschitz, obj.data),
                   a_map=prob.a_map, b=prob.b), on_main


@pytest.mark.parametrize("case", ["qp_cd_cd4", "refining"])
def test_the_worker_thread_changes_no_bit(monkeypatch, case):
    # the worker computes grad f(x_{k+1}) at the closed form while the step
    # checks it; a step whose refinement replaced the closed form drops that
    # gradient and calls it again at the final x_{k+1} on the main thread
    if case == "qp_cd_cd4":
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        config = load_experiment(os.path.join(here, "configs", "qp_cd.json"))
        spec = next(spec for spec in config.runs if spec.label == "cd4")
        prob = config.problem
        cases = [replace(spec.params, max_iter=1000, record_every=1)]
    else:  # the instance of test_run_refines_the_closed_form_on_a_generated_instance
        prob = generate(GenSpec("random_qp", 20, 19, 7, 1.0))[0]
        cases = [SolverParams(rule=chambolle_dossal(4.0), beta=1.0, max_iter=300,
                              record_every=1, cg_tol=cg_tol) for cg_tol in (1e-12, 1e-14)]
    assert prob.objective.data[1].nbytes < solver.OVERLAP_BYTES
    for params in cases:
        def observed():
            noting, on_main = _noting_threads(prob)
            seen = []
            res = run(noting, params, observer=lambda rec, state: seen.append(
                (state, threading.active_count())))
            return res, seen, on_main

        before = threading.active_count()
        (inline, inline_seen, inline_main), (over, over_seen, over_main) = \
            _with_and_without_the_worker(monkeypatch, observed)
        assert over.records == inline.records
        assert (over.x.tobytes(), over.lam.tobytes()) == (inline.x.tobytes(),
                                                        inline.lam.tobytes())
        assert len(over_seen) == len(inline_seen) == params.max_iter + 1
        for (got, _), (want, _) in zip(over_seen, inline_seen):
            assert got.hist.tobytes() == want.hist.tobytes()
            assert got.adj.tobytes() == want.adj.tobytes()
        # the worker lives while the overlapped run goes on, and only then
        assert {count for _, count in inline_seen} == {before}
        assert max(count for _, count in over_seen) == before + 1
        steps = params.max_iter
        refined = sum(rec.cg_iters > 0 for rec in inline.records)
        assert (refined > 0) == (case == "refining")
        assert inline_main == [True] * (1 + steps)
        assert len(over_main) == 1 + steps + refined
        assert over_main.count(False) == steps and over_main.count(True) == 1 + refined


@pytest.mark.parametrize("failure", ["nan_gradient", "inner_solve", "raising_gradient",
                                     "raising_observer"])
def test_a_failing_run_with_the_worker_ends_as_without_it(monkeypatch, shipped_instance,
                                                          failure):
    # the same reason and partial records, or the same exception after the
    # same observed records; cd4 on this instance never refines, so the
    # gradient's calls are counted alike on both paths
    prob, saddle = shipped_instance
    obj = prob.objective
    params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0, max_iter=600,
                          record_every=50,
                          cg_tol=1e-300 if failure == "inner_solve" else 1e-12)

    def attempt():
        calls = itertools.count(1)

        def gradient(x):
            g = obj.gradient(x)
            if next(calls) <= 400 or failure not in ("nan_gradient", "raising_gradient"):
                return g
            if failure == "raising_gradient":
                raise FloatingPointError("no gradient after 400 calls")
            return np.full_like(g, np.nan)

        observed = []

        def observer(rec, state):
            observed.append(rec)
            if failure == "raising_observer" and len(observed) == 5:
                raise KeyError("observer")

        failing = Problem(objective=Objective(obj.value, gradient, obj.lipschitz, obj.data),
                          a_map=prob.a_map, b=prob.b)
        try:
            return run(failing, params, observer=observer, saddle=saddle), observed
        except (FloatingPointError, KeyError) as exc:
            return exc, observed

    (inline, inline_seen), (over, over_seen) = _with_and_without_the_worker(monkeypatch,
                                                                            attempt)
    assert over_seen == inline_seen
    expected = {"nan_gradient": "non-finite iterate", "inner_solve": "inner solve failure",
                "raising_gradient": FloatingPointError, "raising_observer": KeyError}[failure]
    if isinstance(expected, str):
        assert (inline.reason, over.reason) == (expected, expected)
        assert over.error == inline.error and over.records == inline.records
        assert (over.x.tobytes(), over.lam.tobytes()) == (inline.x.tobytes(),
                                                        inline.lam.tobytes())
    else:
        assert type(inline) is type(over) is expected
        assert str(over) == str(inline)


def test_concurrent_runs_with_their_workers_change_no_bit(monkeypatch):
    # four runs at once on one shared problem, each with its own worker (eight
    # threads on two cores), with the interpreter switching threads as often
    # as it can; the instance refines on 259 of 300 steps, so both hand-over
    # outcomes run. Every run's records and iterates equal the inline run's.
    prob = generate(GenSpec("random_qp", 20, 19, 7, 1.0))[0]
    params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0, max_iter=300,
                          record_every=1, cg_tol=1e-14)
    want = run(prob, params)
    monkeypatch.setattr(solver, "OVERLAP_BYTES", 0)
    _on_cpus(monkeypatch, 2)
    results = [None] * 4

    def target(i):
        results[i] = run(prob, params)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for res in results:
        assert res.records == want.records
        assert (res.x.tobytes(), res.lam.tobytes()) == (want.x.tobytes(), want.lam.tobytes())


@pytest.mark.parametrize("affinity", [True, False], ids=["sched_getaffinity", "cpu_count"])
def test_a_process_on_one_cpu_runs_the_gradient_inline(monkeypatch, affinity):
    # on one CPU the worker would only take turns with the run's own thread,
    # so the gate stays shut whatever the size of Q, and the run's records
    # and iterates are bitwise the worker run's; the instance refines, so
    # both of the worker's hand-over outcomes are compared
    prob = generate(GenSpec("random_qp", 20, 19, 7, 1.0))[0]
    params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0, max_iter=300,
                          record_every=1, cg_tol=1e-14)
    monkeypatch.setattr(solver, "OVERLAP_BYTES", 0)
    outcomes = []
    for cpus in (2, 1):
        with monkeypatch.context() as patch:
            _on_cpus(patch, cpus, affinity)
            with solver._overlap(prob) as overlap:
                assert isinstance(overlap, solver._Overlap) == (cpus == 2)
            noting, on_main = _noting_threads(prob)
            outcomes.append((run(noting, params), on_main))
    (worker, worker_main), (inline, inline_main) = outcomes
    assert worker_main.count(False) == params.max_iter
    assert inline_main == [True] * (1 + params.max_iter)
    assert inline.records == worker.records
    assert (inline.x.tobytes(), inline.lam.tobytes()) == (worker.x.tobytes(),
                                                        worker.lam.tobytes())

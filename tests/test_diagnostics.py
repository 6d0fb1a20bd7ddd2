from types import SimpleNamespace

import numpy as np
import pytest

from falm.diagnostics import (RunRecord, dual_bound_series, energy, gap, q_norm_sq,
                              rate_fit)
from falm.errors import DimensionMismatch
from falm.inertial import chambolle_dossal, nesterov
from falm.linalg import dense_map, zero_map
from falm.oracle import kkt_solve
from falm.problem import (Problem, aug_lagrangian, kkt_residuals, lagrangian,
                          quadratic_objective, value_and_residual)
from falm.solver import SolverParams, initial_state, run, step, validate


def _on_map(a_map):
    """A problem with the given constraint map (q_norm_sq reads only A)."""
    n, p = a_map.dims
    return Problem(objective=quadratic_objective(np.eye(n), np.zeros(n)),
                   a_map=a_map, b=np.zeros(p))


def test_q_norm_sq_without_penalty():
    prob = _on_map(zero_map(3, 2))
    u = np.array([1.0, 2.0, -1.0])
    cfg = SimpleNamespace(sigma=0.25, beta=0.0)
    assert q_norm_sq(prob, cfg, u) == pytest.approx(4.0 * 6.0, rel=1e-15)


def test_q_norm_sq_zero_vector():
    prob = _on_map(dense_map([[1.0, 0.0]]))
    assert q_norm_sq(prob, SimpleNamespace(sigma=0.5, beta=1.0), np.zeros(2)) == 0.0


def test_q_norm_sq_matches_dense_form():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 7))
    cfg = SimpleNamespace(sigma=1.0 / 30.0, beta=1.3)
    q_dense = np.eye(7) / cfg.sigma - cfg.beta * (a.T @ a)
    for _ in range(20):
        u = rng.standard_normal(7)
        assert q_norm_sq(_on_map(dense_map(a)), cfg, u) == pytest.approx(
            u @ q_dense @ u, abs=1e-10)


def test_q_norm_sq_dimension_check():
    with pytest.raises(DimensionMismatch):
        q_norm_sq(_on_map(zero_map(3, 2)), SimpleNamespace(sigma=1.0, beta=0.0),
                  np.zeros(4))


def test_metric_nonnegative_under_admissible_step(small_instance):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0), beta=1.0))
    rng = np.random.default_rng(44)
    for _ in range(100):
        u = rng.standard_normal(prob.n)
        assert q_norm_sq(prob, cfg, u) >= -1e-9


def _cfg_and_saddle(small_instance, **kw):
    prob, qp = small_instance
    params = SolverParams(rule=chambolle_dossal(4.0), **kw)
    cfg = validate(prob, params)
    x_star, lam_star = kkt_solve(qp)
    return prob, cfg, x_star, lam_star


def test_energy_zero_at_saddle_start(small_instance):
    prob, cfg, x_star, lam_star = _cfg_and_saddle(small_instance, beta=1.0)
    val = energy(prob, cfg, x_star, x_star, lam_star, lam_star, 1.0,
                 x_star, lam_star)
    assert abs(val) <= 1e-10


def test_energy_gamma_one_drops_distance_terms(small_instance):
    prob, qp = small_instance
    params = SolverParams(rule=nesterov(), beta=0.5)
    cfg = validate(prob, params)
    assert cfg.gamma == 1.0
    x_star, lam_star = kkt_solve(qp)
    rng = np.random.default_rng(2)
    x_k, x_prev = x_star + 0.1 * rng.standard_normal((2, prob.n))
    lam_k, lam_prev = lam_star + 0.1 * rng.standard_normal((2, prob.p))
    t_k = 3.0
    got = energy(prob, cfg, x_k, x_prev, lam_k, lam_prev, t_k,
                 x_star, lam_star)
    # independent evaluation of the three surviving terms
    gap_beta = (aug_lagrangian(prob, x_k, lam_star, cfg.beta)
                - aug_lagrangian(prob, x_star, lam_k, cfg.beta))
    z = x_k + (t_k - 1.0) * (x_k - x_prev)
    nu = lam_k + (t_k - 1.0) * (lam_k - lam_prev)
    expected = (t_k * t_k * gap_beta
                + 0.5 * q_norm_sq(prob, cfg, z - x_star)
                + 0.5 / cfg.rho * float(np.dot(nu - lam_star, nu - lam_star)))
    assert got == pytest.approx(expected, abs=1e-10)


def test_energy_matches_independent_reimplementation(small_instance):
    prob, cfg, x_star, lam_star = _cfg_and_saddle(small_instance, beta=1.0)
    st = initial_state(cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    g, rho, beta = cfg.gamma, cfg.rho, cfg.beta
    for _ in range(5):
        st, _ = step(prob, cfg, st)
        got = energy(prob, cfg, st.x_k, st.x_prev, st.lam_k,
                     st.lam_prev, st.t_k, x_star, lam_star)
        # term-by-term duplicate, written against the dense matrices
        a = prob.a_map.matrix
        q_dense = np.eye(prob.n) / cfg.sigma - beta * (a.T @ a)
        t = st.t_k
        z = g * st.x_k + (t - 1.0) * (st.x_k - st.x_prev)
        nu = g * st.lam_k + (t - 1.0) * (st.lam_k - st.lam_prev)
        gap_beta = (aug_lagrangian(prob, st.x_k, lam_star, beta)
                    - aug_lagrangian(prob, x_star, st.lam_k, beta))
        dz = z - g * x_star
        dnu = nu - g * lam_star
        dx = st.x_k - x_star
        dl = st.lam_k - lam_star
        dls = st.lam_k - st.lam_prev
        want = (t * (t - 1.0 + g) * gap_beta
                + 0.5 * dz @ q_dense @ dz
                + 0.5 / rho * dnu @ dnu
                + 0.5 * g * (1.0 - g) * dx @ q_dense @ dx
                + 0.5 * g * (1.0 - g) / rho * dl @ dl
                + 0.5 * (1.0 - g) / rho * (t - 1.0) * dls @ dls)
        assert got == pytest.approx(want, abs=1e-10)


def test_precomputed_evaluations_change_no_bit(small_instance):
    prob, cfg, x_star, lam_star = _cfg_and_saddle(small_instance, beta=0.7)
    at_star = value_and_residual(prob, x_star)
    st = initial_state(cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    for _ in range(5):
        st, _ = step(prob, cfg, st)
        at_x = value_and_residual(prob, st.x_k)
        assert lagrangian(prob, st.x_k, lam_star, at=at_x) == lagrangian(prob, st.x_k, lam_star)
        assert (aug_lagrangian(prob, st.x_k, st.lam_k, 0.7, at=at_x)
                == aug_lagrangian(prob, st.x_k, st.lam_k, 0.7))
        assert (kkt_residuals(prob, st.x_k, st.lam_k, residual=at_x[1],
                              adjoint=prob.a_map.adjoint(st.lam_k))
                == kkt_residuals(prob, st.x_k, st.lam_k, residual=at_x[1])
                == kkt_residuals(prob, st.x_k, st.lam_k))
        assert (gap(prob, st.x_k, st.lam_k, x_star, lam_star, at_x=at_x, at_star=at_star)
                == gap(prob, st.x_k, st.lam_k, x_star, lam_star))
        args = (prob, cfg, st.x_k, st.x_prev, st.lam_k, st.lam_prev,
                st.t_k, x_star, lam_star)
        assert energy(*args, at_x=at_x, at_star=at_star) == energy(*args)


def test_summability_witnesses(small_instance):
    # the two squared-displacement series the energy controls: each summand is
    # nonnegative and the partial sums stay below the initial energy
    prob, cfg, x_star, lam_star = _cfg_and_saddle(small_instance, beta=1.0)
    lip = prob.objective.lipschitz
    st = initial_state(cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    e1 = energy(prob, cfg, st.x_k, st.x_prev, st.lam_k, st.lam_prev,
                st.t_k, x_star, lam_star)
    sum_primal = 0.0
    sum_dual = 0.0
    for _ in range(2000):
        t_next = st.t_next
        st, trace = step(prob, cfg, st)
        d = st.x_k - trace.y_k
        summand = cfg.gamma * q_norm_sq(prob, cfg, d) - lip * float(np.dot(d, d))
        assert summand >= -1e-12 * max(1.0, abs(summand))
        prev_primal, prev_dual = sum_primal, sum_dual
        sum_primal += t_next ** 2 * summand
        dl = st.lam_k - trace.mu_k
        sum_dual += (cfg.gamma / cfg.rho) * t_next ** 2 * float(np.dot(dl, dl))
        assert sum_primal >= prev_primal and sum_dual >= prev_dual
    assert sum_primal <= e1 + 1e-9
    assert sum_dual <= e1 + 1e-9


def test_gap_zero_at_saddle(small_instance):
    prob, qp = small_instance
    x_star, lam_star = kkt_solve(qp)
    assert abs(gap(prob, x_star, lam_star, x_star, lam_star)) <= 1e-12


def test_gap_nonnegative_on_run_records(small_instance):
    prob, qp = small_instance
    saddle = kkt_solve(qp)
    res = run(prob, SolverParams(rule=nesterov(), beta=1.0, max_iter=500,
                                 record_every=5), saddle=saddle)
    assert all(rec.gap >= -1e-9 for rec in res.records)


def test_gap_feasible_point_reduces_to_objective_excess(tiny_qp):
    x_star = np.array([1.0, 1.0])
    lam_star = np.array([-1.0])
    x = np.array([2.0, 0.0])  # feasible
    val = gap(tiny_qp, x, np.array([5.0]), x_star, lam_star)
    f_excess = tiny_qp.objective.value(x) - tiny_qp.objective.value(x_star)
    assert val == pytest.approx(f_excess, abs=1e-12)
    assert val >= 0.0


def _records_from(ks, values):
    return [RunRecord(k=k, t_k=1.0, gap=v, feas=v, obj_err=v, kkt_grad=v,
                      kkt_feas=v, energy=None, cg_iters=0)
            for k, v in zip(ks, values)]


def test_rate_fit_recovers_quadratic_decay():
    ks = np.arange(10, 2000, 7)
    fit = rate_fit(_records_from(ks, 3.0 / ks**2), "gap", 10, 2000)
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)
    assert fit.r2 >= 1.0 - 1e-12


def test_rate_fit_constant_series():
    ks = np.arange(1, 200)
    fit = rate_fit(_records_from(ks, np.full(ks.size, 0.7)), "gap", 1, 200)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_excludes_rounding_noise():
    ks = np.arange(1, 100)
    vals = 1.0 / ks**2
    vals[50:] = 1e-16
    fit = rate_fit(_records_from(ks, vals), "gap", 1, 100)
    assert fit.n_excluded == 49
    assert fit.n_used == 50


def test_rate_fit_too_few_records():
    ks = np.arange(1, 8)
    with pytest.raises(ValueError, match="too few"):
        rate_fit(_records_from(ks, 1.0 / ks), "gap", 1, 8)


def test_dual_bound_series_zero_cases(small_instance):
    prob, qp = small_instance
    _, lam_star = kkt_solve(qp)
    states = [SimpleNamespace(k=k, t_k=float(k), lam_k=lam_star.copy())
              for k in range(1, 6)]
    _, vals = dual_bound_series(states, lam_star, prob.a_map)
    assert np.all(vals == 0.0)
    zero = zero_map(prob.n, prob.p)
    states2 = [SimpleNamespace(k=1, t_k=1.0, lam_k=lam_star + 1.0)]
    _, vals2 = dual_bound_series(states2, lam_star, zero)
    assert np.all(vals2 == 0.0)


def test_dual_bound_series_values(small_instance):
    prob, qp = small_instance
    _, lam_star = kkt_solve(qp)
    lam = lam_star + np.ones(prob.p)
    states = [SimpleNamespace(k=3, t_k=2.5, lam_k=lam)]
    _, vals = dual_bound_series(states, lam_star, prob.a_map)
    expected = 2.5 * np.linalg.norm(prob.a_map.matrix.T @ np.ones(prob.p))
    assert vals[0] == pytest.approx(expected, rel=1e-12)

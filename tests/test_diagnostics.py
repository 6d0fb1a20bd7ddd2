from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from falm.diagnostics import (RunRecord, energy, gap, objective_error, q_norm_sq,
                              rate_fit, saddle_terms)
from falm.benchgen import GenSpec, generate
from falm.inertial import chambolle_dossal, nesterov, next_t
from falm.linalg import dense_map, zero_map
from falm.oracle import kkt_solve
from falm.problem import Objective, Problem, kkt_residuals
from falm.solver import SolverParams, initial_state, run, step, validate


def test_q_norm_sq_without_penalty():
    u = np.array([1.0, 2.0, -1.0])
    cfg = SimpleNamespace(sigma=0.25, beta=0.0)
    assert q_norm_sq(cfg, u, zero_map(3, 2).forward(u)) == pytest.approx(4.0 * 6.0,
                                                                           rel=1e-15)


def test_q_norm_sq_zero_vector():
    assert q_norm_sq(SimpleNamespace(sigma=0.5, beta=1.0), np.zeros(2), np.zeros(1)) == 0.0


def test_q_norm_sq_matches_dense_form():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 7))
    cfg = SimpleNamespace(sigma=1.0 / 30.0, beta=1.3)
    q_dense = np.eye(7) / cfg.sigma - cfg.beta * (a.T @ a)
    for _ in range(20):
        u = rng.standard_normal(7)
        assert q_norm_sq(cfg, u, dense_map(a).forward(u)) == pytest.approx(
            u @ q_dense @ u, abs=1e-10)


def test_metric_nonnegative_under_admissible_step(small_instance):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0), beta=1.0))
    rng = np.random.default_rng(44)
    for _ in range(100):
        u = rng.standard_normal(prob.n)
        assert q_norm_sq(cfg, u, prob.a_map.forward(u)) >= -1e-9


def _cfg_and_saddle(small_instance, **kw):
    prob, qp = small_instance
    params = SolverParams(rule=chambolle_dossal(4.0), **kw)
    cfg = validate(prob, params)
    x_star, lam_star = kkt_solve(qp)
    return prob, cfg, x_star, lam_star


def _energy(prob, cfg, st, star):
    """:func:`energy` of ``st`` with its gap and residual evaluated here."""
    residual = prob.a_map.forward(st.x_k) - prob.b
    return energy(cfg, st, star, gap(prob, st.x_k, st.lam_k, star), residual,
                  float(residual.dot(residual)))


def test_energy_zero_at_saddle_start(small_instance, state_at):
    prob, cfg, x_star, lam_star = _cfg_and_saddle(small_instance, beta=1.0)
    st = state_at(prob, cfg.rule, 1, x_star, x_star, lam_star, lam_star)
    assert st.t_k == 1.0
    val = _energy(prob, cfg, st, saddle_terms(prob, x_star, lam_star))
    assert abs(val) <= 1e-10


def test_energy_gamma_one_drops_distance_terms(small_instance, aug_lagrangian, state_at):
    prob, qp = small_instance
    params = SolverParams(rule=nesterov(), beta=0.5)
    cfg = validate(prob, params)
    assert cfg.gamma == 1.0
    x_star, lam_star = kkt_solve(qp)
    rng = np.random.default_rng(2)
    x_k, x_prev = x_star + 0.1 * rng.standard_normal((2, prob.n))
    lam_k, lam_prev = lam_star + 0.1 * rng.standard_normal((2, prob.p))
    st = state_at(prob, cfg.rule, 4, x_k, x_prev, lam_k, lam_prev)
    t_k = st.t_k
    got = _energy(prob, cfg, st, saddle_terms(prob, x_star, lam_star))
    # independent evaluation of the three surviving terms
    gap_beta = (aug_lagrangian(prob, x_k, lam_star, cfg.beta)
                - aug_lagrangian(prob, x_star, lam_k, cfg.beta))
    z = x_k + (t_k - 1.0) * (x_k - x_prev)
    nu = lam_k + (t_k - 1.0) * (lam_k - lam_prev)
    expected = (t_k * t_k * gap_beta
                + 0.5 * q_norm_sq(cfg, z - x_star, prob.a_map.forward(z - x_star))
                + 0.5 / cfg.rho * float(np.dot(nu - lam_star, nu - lam_star)))
    assert got == pytest.approx(expected, abs=1e-10)


def test_energy_matches_independent_reimplementation(small_instance, aug_lagrangian):
    prob, cfg, x_star, lam_star = _cfg_and_saddle(small_instance, beta=1.0)
    star = saddle_terms(prob, x_star, lam_star)
    st = initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    g, rho, beta = cfg.gamma, cfg.rho, cfg.beta
    for _ in range(5):
        st, _ = step(prob, cfg, st)
        got = _energy(prob, cfg, st, star)
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


def _without_data(prob):
    """The same problem with an objective that keeps no dense description."""
    obj = prob.objective
    return Problem(objective=Objective(value=obj.value, gradient=obj.gradient,
                                       lipschitz=obj.lipschitz),
                   a_map=prob.a_map, b=prob.b)


def test_precomputed_evaluations_change_no_bit(small_instance):
    prob, cfg, _, _ = _cfg_and_saddle(small_instance, beta=0.7)
    st = initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    for _ in range(5):
        st, _ = step(prob, cfg, st)
        residual = prob.a_map.forward(st.x_k) - prob.b
        residual_sq = residual.dot(residual)
        assert (kkt_residuals(prob, st.x_k, st.lam_k, residual_sq=residual_sq,
                              adjoint=prob.a_map.adjoint(st.lam_k))
                == kkt_residuals(prob, st.x_k, st.lam_k, residual_sq=residual_sq)
                == kkt_residuals(prob, st.x_k, st.lam_k))


def test_both_forms_agree_with_the_lagrangian_definitions(small_instance, aug_lagrangian):
    dense, cfg, x_star, lam_star = _cfg_and_saddle(small_instance, beta=0.7)
    for prob in (dense, _without_data(dense)):  # exact Bregman term, difference of values
        star = saddle_terms(prob, x_star, lam_star)
        st = initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
        for _ in range(20):
            st, _ = step(prob, cfg, st)
            want_gap = (aug_lagrangian(prob, st.x_k, lam_star, 0.0)
                        - aug_lagrangian(prob, x_star, st.lam_k, 0.0))
            want_obj = abs(prob.objective.value(st.x_k) - prob.objective.value(x_star))
            got_gap = gap(prob, st.x_k, st.lam_k, star)
            assert got_gap.value == pytest.approx(want_gap, rel=1e-9, abs=1e-15)
            assert objective_error(star, got_gap) == pytest.approx(
                want_obj, rel=1e-9, abs=1e-15)


def test_data_less_run_takes_one_value_per_record(small_instance):
    # the Bregman term of an objective without data takes f(x) once per record
    # and f(x*) once per run; the gap and objective error share it
    prob, qp = small_instance
    obj = prob.objective
    calls = []

    def value(x):
        calls.append(1)
        return obj.value(x)

    counted = Problem(objective=Objective(value=value, gradient=obj.gradient,
                                          lipschitz=obj.lipschitz),
                      a_map=prob.a_map, b=prob.b)
    res = run(counted, SolverParams(rule=nesterov(), max_iter=40, record_every=3),
              saddle=kkt_solve(qp))
    assert len(res.records) == 15
    assert len(calls) == len(res.records) + 1


def test_summability_witnesses(small_instance):
    # the two squared-displacement series the energy controls: each summand is
    # nonnegative and the partial sums stay below the initial energy
    prob, cfg, x_star, lam_star = _cfg_and_saddle(small_instance, beta=1.0)
    lip = prob.objective.lipschitz
    st = initial_state(prob, cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    e1 = _energy(prob, cfg, st, saddle_terms(prob, x_star, lam_star))
    sum_primal = 0.0
    sum_dual = 0.0
    for _ in range(2000):
        t_next = next_t(cfg.rule, st.t_k, st.k)
        mu = st.lam_k + ((st.t_k - 1.0) / t_next) * (st.lam_k - st.lam_prev)
        st, trace = step(prob, cfg, st)
        d = st.x_k - trace.y_k
        summand = (cfg.gamma * q_norm_sq(cfg, d, prob.a_map.forward(d))
                   - lip * float(np.dot(d, d)))
        assert summand >= -1e-12 * max(1.0, abs(summand))
        prev_primal, prev_dual = sum_primal, sum_dual
        sum_primal += t_next ** 2 * summand
        dl = st.lam_k - mu
        sum_dual += (cfg.gamma / cfg.rho) * t_next ** 2 * float(np.dot(dl, dl))
        assert sum_primal >= prev_primal and sum_dual >= prev_dual
    assert sum_primal <= e1 + 1e-9
    assert sum_dual <= e1 + 1e-9


def _exact(v):
    return [Fraction(e) for e in np.ravel(v).tolist()]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _lincomb(a, u, b, v):
    return [a * x + b * y for x, y in zip(u, v)]


@pytest.mark.parametrize("kind", ["random_qp", "constrained_least_squares"])
def test_record_diagnostics_match_exact_arithmetic(kind):
    # gap, obj_err and energy of recorded float iterates against the same
    # definitions evaluated in exact rational arithmetic on those iterates
    prob, qp = generate(GenSpec(kind, 50, 10, 7, 100.0))
    x_star, lam_star = kkt_solve(qp)
    _, mat, vec = prob.objective.data
    mat, vec = [_exact(row) for row in mat], _exact(vec)
    a_rows, b = [_exact(row) for row in prob.a_map.matrix], _exact(prob.b)

    def f(x):  # 0.5 x'Qx + c'x for both kinds: least squares keeps its Gram matrix
        return _dot(x, [_dot(row, x) for row in mat]) / 2 + _dot(vec, x)

    def aug_lag(x, lam, beta):
        r = _lincomb(1, [_dot(row, x) for row in a_rows], -1, b)
        return f(x) + _dot(lam, r) + beta * _dot(r, r) / 2

    xs, ls = _exact(x_star), _exact(lam_star)
    for rule in (chambolle_dossal(4.0), nesterov()):
        params = SolverParams(rule=rule, beta=1.0, max_iter=2000, record_every=100)
        cfg = validate(prob, params)
        kept = {}
        run(prob, params, saddle=(x_star, lam_star), cfg=cfg,
            observer=lambda rec, st: kept.update({rec.k: (rec, st)}))
        g, sigma, rho, beta = (Fraction(v) for v in (cfg.gamma, cfg.sigma, cfg.rho, cfg.beta))

        def q_norm(u):
            au = [_dot(row, u) for row in a_rows]
            return _dot(u, u) / sigma - beta * _dot(au, au)

        for k in (100, 1000, 2001):
            rec, st = kept[k]
            x, xp, lam, lp = (_exact(v) for v in (st.x_k, st.x_prev, st.lam_k, st.lam_prev))
            t = Fraction(st.t_k)
            dx, dl, dlp = _lincomb(1, x, -1, xs), _lincomb(1, lam, -1, ls), _lincomb(1, lam, -1, lp)
            dz = _lincomb(g, dx, t - 1, _lincomb(1, x, -1, xp))
            dnu = _lincomb(g, dl, t - 1, dlp)
            exact = {
                "gap": aug_lag(x, ls, 0) - aug_lag(xs, lam, 0),
                "obj_err": abs(f(x) - f(xs)),
                "energy": (t * (t - 1 + g) * (aug_lag(x, ls, beta) - aug_lag(xs, lam, beta))
                           + q_norm(dz) / 2 + _dot(dnu, dnu) / (2 * rho)
                           + g * (1 - g) * (q_norm(dx) / 2 + _dot(dl, dl) / (2 * rho))
                           + (1 - g) * (t - 1) * _dot(dlp, dlp) / (2 * rho)),
            }
            for name, want in exact.items():
                err = abs(Fraction(getattr(rec, name)) - want) / abs(want)
                assert err <= 1e-10, f"{rule.kind} k={k} {name}: relative error {float(err):.2e}"


def test_gap_zero_at_saddle(small_instance):
    prob, qp = small_instance
    x_star, lam_star = kkt_solve(qp)
    assert abs(gap(prob, x_star, lam_star, saddle_terms(prob, x_star, lam_star)).value) <= 1e-12


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
    val = gap(tiny_qp, x, np.array([5.0]), saddle_terms(tiny_qp, x_star, lam_star)).value
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


def test_rate_fit_does_not_depend_on_the_data_scale():
    # the noise tail sits 1e-17 below the largest value, and nonpositive
    # values stay excluded at every scale
    ks = np.arange(1, 200)
    vals = 1.0 / ks**2
    vals[150:] = 1e-17
    vals[-2:] = (0.0, -1e-20)
    fits = [rate_fit(_records_from(ks, scale * vals), "gap", 1, 200)
            for scale in (1e-8, 1.0, 1e8)]
    for fit in fits:
        assert (fit.n_used, fit.n_excluded) == (150, 49)
        assert fit.slope == pytest.approx(fits[1].slope, rel=1e-12)


def test_rate_fit_too_few_records():
    ks = np.arange(1, 8)
    with pytest.raises(ValueError, match="too few"):
        rate_fit(_records_from(ks, 1.0 / ks), "gap", 1, 8)


def _stacked(states):
    """The states' vectors stacked one state per row, as ``energy`` reads them."""
    return SimpleNamespace(**{name: np.stack([getattr(st, name) for st in states])
                              for name in ("x_k", "x_prev", "lam_k", "lam_prev",
                                           "ax_k", "ax_prev")},
                           t_k=np.array([st.t_k for st in states]))


@pytest.mark.parametrize("data", [True, False], ids=["data", "no_data"])
def test_a_one_row_call_equals_its_row_of_a_256_row_call(data):
    # gap, objective error and energy of each of 256 recorded states, alone
    # and in one stack, to the bit
    prob, qp = generate(GenSpec("random_qp", 50, 10, 7, 100.0))
    problem = prob if data else _without_data(prob)
    params = SolverParams(rule=chambolle_dossal(4.0), max_iter=300, record_every=1)
    cfg = validate(problem, params)
    states = []
    run(problem, params, cfg=cfg, observer=lambda rec, st: states.append(st))
    states = states[30:286]
    star = saddle_terms(problem, *kkt_solve(qp))
    rows = _stacked(states)
    residual = rows.ax_k - problem.b
    residual_sq = np.array([float(r.dot(r)) for r in residual])
    stacked = gap(problem, rows.x_k, rows.lam_k, star)
    values = (stacked.value, objective_error(star, stacked),
              energy(cfg, rows, star, stacked, residual, residual_sq))
    assert [v.shape for v in values] == [(256,)] * 3
    for i, st in enumerate(states):
        one = gap(problem, st.x_k, st.lam_k, star)
        alone = (one.value, objective_error(star, one),
                 energy(cfg, st, star, one, residual[i], float(residual_sq[i])))
        assert [np.shape(v) for v in alone] == [()] * 3
        assert [float(v) for v in alone] == [float(v[i]) for v in values]


def test_q_norm_sq_rows_do_not_depend_on_their_stack():
    # rows longer than np.einsum's 8192-element buffer too
    rng = np.random.default_rng(9)
    cfg = SimpleNamespace(sigma=0.5, beta=1.0)
    for n in (3, 50, 8193, 20000):
        u, au = rng.standard_normal((17, n)), rng.standard_normal((17, 5))
        stacked = q_norm_sq(cfg, u, au)
        assert stacked.shape == (17,)
        assert [float(q_norm_sq(cfg, u[i], au[i])) for i in range(17)] == stacked.tolist()
        assert q_norm_sq(cfg, u[3:9], au[3:9]).tolist() == stacked[3:9].tolist()

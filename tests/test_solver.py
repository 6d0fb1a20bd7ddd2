import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from falm.benchgen import GenSpec, generate
from falm.cli import load_experiment
from falm.diagnostics import RunRecord, energy, gap
from falm.errors import StepError, ValidationError
from falm.inertial import attouch_cabot, chambolle_dossal, constant, nesterov, t_value
from falm.linalg import LinearMap, dense_map
from falm.oracle import kkt_solve
from falm.problem import Objective, Problem, kkt_residuals, quadratic_objective
from falm.solver import (SolverParams, initial_state, run, step, validate)


def _matrix_free(prob):
    """The same problem with its operator wrapped forward/adjoint only."""
    a = prob.a_map
    return Problem(objective=prob.objective,
                   a_map=LinearMap(forward=a.forward, adjoint=a.adjoint, dims=a.dims),
                   b=prob.b)


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
    return y, mu, eta, nu, s, x_next, z, lam_next


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
    assert cfg0.a_norm_sq == 0.0 and not np.any(cfg0.spectral[1])
    assert cfg0.sigma_bound == cfg0.gamma / zero.objective.lipschitz


def test_validate_defaults(small_instance):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0), beta=1.0))
    assert cfg.gamma == pytest.approx((2.0 / 3.0 + 1.0) / 2.0)
    assert cfg.sigma == pytest.approx(0.99 * cfg.sigma_bound, rel=1e-12)
    assert cfg.rho == cfg.sigma
    assert cfg.convergence_certified


def test_step_unconstrained_is_exact_gradient_step():
    # The zero map's closed form is exactly (y/sigma - grad f(y)) / (1/sigma):
    # the gradient step up to rounding, accepted without refinement.
    prob, _ = generate(GenSpec("unconstrained", 6, 2, 1, 5.0))
    params = SolverParams(rule=nesterov(), beta=1.0, max_iter=10)
    cfg = validate(prob, params)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(6)
    st = initial_state(cfg.rule, x0, np.zeros(2))
    st, trace = step(prob, cfg, st)
    grad = prob.objective.gradient(x0)
    assert np.array_equal(st.x_k, (1.0 / (1.0 / cfg.sigma)) * (x0 / cfg.sigma - grad))
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
    st = initial_state(cfg.rule, x0, lam0)
    _, trace = step(prob, cfg, st)
    assert np.array_equal(trace.y_k, x0)
    assert np.array_equal(trace.mu_k, lam0)
    np.testing.assert_allclose(trace.nu_k_gamma, cfg.gamma * lam0, rtol=0, atol=0)


def test_step_matches_dense_oracle(small_instance):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0), beta=0.7))
    rng = np.random.default_rng(14)
    rule = cfg.rule
    for _ in range(5):
        k = int(rng.integers(1, 30))
        x, x_prev = rng.standard_normal((2, prob.n))
        lam, lam_prev = rng.standard_normal((2, prob.p))
        st = initial_state(rule, x, lam)
        st.k = k
        st.x_prev = x_prev
        st.lam_prev = lam_prev
        st.t_k = t_value(rule, k)
        st.t_next = t_value(rule, k + 1)
        new_st, trace = step(prob, cfg, st)
        y, mu, eta, nu, s, x_next, z, lam_next = _dense_step_oracle(
            prob, cfg, x, x_prev, lam, lam_prev, st.t_k, st.t_next)
        np.testing.assert_allclose(trace.y_k, y, atol=1e-12)
        np.testing.assert_allclose(trace.eta_k, eta, atol=1e-12)
        np.testing.assert_allclose(trace.s_next, s, rtol=1e-12)
        np.testing.assert_allclose(new_st.x_k, x_next, atol=1e-10)
        np.testing.assert_allclose(new_st.lam_k, lam_next, atol=1e-10)
        np.testing.assert_allclose(trace.z_next_gamma, z, atol=1e-10)


def test_extrapolation_identities_along_run(small_instance):
    # x_{k+1} - y_k = (z_{k+1} - z_k)/t_{k+1} with z_k = x_k + (t_k-1)(x_k - x_{k-1}),
    # and the dual analogue lam_{k+1} - mu_k = (nu_{k+1} - nu_k)/t_{k+1}.
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=nesterov(), beta=1.0, max_iter=200))
    st = initial_state(cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    for _ in range(200):
        z_old = st.x_k + (st.t_k - 1.0) * (st.x_k - st.x_prev)
        nu_old = st.lam_k + (st.t_k - 1.0) * (st.lam_k - st.lam_prev)
        st, trace = step(prob, cfg, st)
        z_new = st.x_k + (st.t_k - 1.0) * (st.x_k - st.x_prev)
        nu_new = st.lam_k + (st.t_k - 1.0) * (st.lam_k - st.lam_prev)
        lhs = st.x_k - trace.y_k
        rhs = (z_new - z_old) / st.t_k
        tol = 1e-9 * max(1.0, float(np.linalg.norm(z_new)))
        assert np.linalg.norm(lhs - rhs) <= tol
        lhs_d = st.lam_k - trace.mu_k
        rhs_d = (nu_new - nu_old) / st.t_k
        tol_d = 1e-9 * max(1.0, float(np.linalg.norm(nu_new)))
        assert np.linalg.norm(lhs_d - rhs_d) <= tol_d


def test_stationarity_residual_along_run(small_instance):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0), beta=1.0))
    a = prob.a_map.matrix
    st = initial_state(cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    for _ in range(200):
        prev = st
        st, trace = step(prob, cfg, st)
        g = cfg.gamma
        rhs = (trace.y_k / cfg.sigma - prob.objective.gradient(trace.y_k)
               - cfg.beta * a.T @ (a @ trace.y_k - prob.b)
               - (a.T @ trace.nu_k_gamma) / g
               + (trace.s_next / g) * (a.T @ trace.eta_k))
        lhs = st.x_k / cfg.sigma + (trace.s_next / g) * (a.T @ (a @ st.x_k))
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
    st = initial_state(cfg.rule, np.zeros(12), np.zeros(3))
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


def test_step_rejects_nonfinite_iterates(small_instance):
    prob, _ = small_instance
    bad = Problem(objective=Objective(value=lambda x: 0.0,
                                      gradient=lambda x: np.full(prob.n, np.inf),
                                      lipschitz=1.0),
                  a_map=prob.a_map, b=prob.b)
    cfg = validate(bad, SolverParams(rule=nesterov()))
    st = initial_state(cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    with pytest.raises(StepError, match="right-hand side is not finite"):
        step(bad, cfg, st)


def test_step_rejects_nonfinite_gradient_step(tiny_qp):
    # A finite right-hand side whose dual step overflows: the iterate check fires.
    cfg = validate(tiny_qp, SolverParams(rule=nesterov(), rho=1e300))
    st = initial_state(cfg.rule, np.zeros(2), np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepError, match="iterate left the finite range") as err:
        step(tiny_qp, cfg, st)
    assert err.value.iteration == 1


def test_coupling_weight_formula(small_instance):
    prob, _ = small_instance
    cfg = validate(prob, SolverParams(rule=chambolle_dossal(4.0)))
    st = initial_state(cfg.rule, np.zeros(prob.n), np.zeros(prob.p))
    for _ in range(5):
        t_next = st.t_next
        st, trace = step(prob, cfg, st)
        expected = (cfg.rho / cfg.gamma) * t_next * (t_next - 1.0 + cfg.gamma)
        assert trace.s_next == pytest.approx(expected, rel=1e-15)


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


def test_run_refines_the_closed_form_on_a_generated_instance():
    # Refinement is not dead code: on this well-conditioned 20x19 instance the
    # closed form misses its residual target on 91 of 300 steps at cg_tol
    # 1e-12 (the first at k = 206) and on 259 at 1e-14. A correction from the
    # map's own factor is nearly exact, so no step needs more than 2.
    prob, _ = generate(GenSpec("random_qp", 20, 19, 7, 1.0))
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


def test_run_shipped_cd4_needs_no_cg_iterations():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = load_experiment(os.path.join(here, "configs", "qp_cd.json"))
    spec = next(spec for spec in config.runs if spec.label == "cd4")
    res = run(config.problem, spec.params)
    assert res.reason == "iteration budget"
    assert len(res.records) > 100
    assert all(rec.cg_iters == 0 for rec in res.records)


@pytest.mark.parametrize("kind", ["dense", "matrix_free", "zero"])
def test_step_caches_exact_image(small_instance, kind):
    prob = {"dense": small_instance[0], "matrix_free": _matrix_free(small_instance[0]),
            "zero": generate(GenSpec("unconstrained", 6, 2, 1, 5.0))[0]}[kind]
    params = SolverParams(rule=chambolle_dossal(4.0))
    cfg = validate(prob, params)
    st = initial_state(cfg.rule, np.ones(prob.n), np.zeros(prob.p))
    assert st.ax_k is None
    for _ in range(5):
        st, _ = step(prob, cfg, st)
        assert st.ax_k.tobytes() == prob.a_map.forward(st.x_k).tobytes()


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
    x_star, lam_star = saddle
    f_star = prob.objective.value(x_star)
    assert [rec for rec, _ in pairs] == res.records
    prev = pairs[0][1]
    for rec, st in pairs:
        assert (rec.k, rec.t_k) == (st.k, st.t_k)
        grad_res, feas_res = kkt_residuals(prob, st.x_k, st.lam_k)
        assert (rec.kkt_grad, rec.kkt_feas, rec.feas) == (grad_res, feas_res, feas_res)
        assert rec.gap == gap(prob, st.x_k, st.lam_k, x_star, lam_star)
        assert rec.obj_err == abs(prob.objective.value(st.x_k) - f_star)
        assert rec.energy == energy(prob, cfg, st.x_k, prev.x_k, st.lam_k,
                                    prev.lam_k, st.t_k, x_star, lam_star)
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


def _reference_kkt_run(prob, cfg):
    """Exhaustive stop test: the public step, then the exact KKT residuals of
    every iterate; records as ``run`` emits them without a saddle point."""
    st = initial_state(cfg.rule, np.zeros(prob.n), np.zeros(prob.p))

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


@settings(max_examples=60, deadline=None)
@given(kind=hst.sampled_from(["random_qp", "constrained_least_squares", "unconstrained"]),
       seed=hst.integers(0, 2**16), free=hst.booleans(), rule=hst.sampled_from(_RULES),
       beta=hst.sampled_from([0.0, 0.5, 1.0]),
       kkt_tol=hst.sampled_from([1e-2, 1e-3, 1e-4, 1e-6]),
       record_every=hst.integers(1, 40), max_iter=hst.integers(1, 400))
def test_run_stops_where_an_exhaustive_kkt_test_stops(kind, seed, free, rule, beta,
                                                      kkt_tol, record_every, max_iter):
    # run skips the exact stop test where a Lipschitz bound rules a stop out;
    # that must change neither where it stops nor a single bit of its output
    prob, _ = generate(GenSpec(kind, 12, 4, seed, 20.0))
    if free:
        prob = _matrix_free(prob)
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

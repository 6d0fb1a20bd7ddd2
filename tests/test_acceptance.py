"""Acceptance suite: every criterion on the desk-scale benchmark instance.

Each test prints one pass/fail line (visible with ``pytest -s``). The shared
grid pairs every inertial rule with two penalty weights on the seeded 50x10
instance and runs the full 10^4-iteration budget with per-iteration records.
"""

import math
import time

import numpy as np
import pytest

from falm.benchgen import GenSpec, generate
from falm.diagnostics import dual_bound_series, rate_fit
from falm.inertial import (attouch_cabot, certify, chambolle_dossal, constant,
                           nesterov, t_value, t_values)
from falm.oracle import kkt_solve
from falm.solver import SolverParams, initial_state, run, step, validate

N, P, SEED, COND = 50, 10, 7, 100.0
MAX_ITER = 10_000
WINDOW = (100, 10_000)

GRID_RULES = [
    ("nesterov", nesterov()),
    ("cd3", chambolle_dossal(3.0)),
    ("cd4", chambolle_dossal(4.0)),
    ("ac4", attouch_cabot(4.0)),
]
BETAS = (0.5, 1.0)
CERTIFIED = ("cd4", "ac4")  # margin < gamma < 1 under the default gamma
ACCELERATED_FOR_RATES = ("nesterov", "cd4")  # margin < gamma, plus nesterov


def _report(num, ok, text):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def instance():
    prob, qp = generate(GenSpec("random_qp", N, P, SEED, COND))
    x_star, lam_star = kkt_solve(qp)
    return prob, qp, (x_star, lam_star)


def _every_tenth_state():
    """An observer and the list of states it keeps: k = 1, k ≡ 0 (mod 10) and
    the last index, the one the run passed most recently."""
    states = []

    def observe(rec, state):
        if states and not (states[-1].k == 1 or states[-1].k % 10 == 0):
            states.pop()
        states.append(state)

    return observe, states


@pytest.fixture(scope="module")
def grid(instance):
    """Each run's validated config, result, and states for the dual series."""
    prob, _, saddle = instance
    out = {}
    t0 = time.time()
    for label, rule in GRID_RULES:
        for beta in BETAS:
            params = SolverParams(rule=rule, beta=beta, max_iter=MAX_ITER,
                                  record_every=1)
            cfg = validate(prob, params)
            observe, states = _every_tenth_state()
            res = run(prob, params, saddle=saddle, cfg=cfg, observer=observe)
            assert res.error is None
            out[(label, beta)] = (cfg, res, states)
    print(f"[grid: {len(out)} runs of {MAX_ITER} iterations "
          f"in {time.time() - t0:.1f}s]")
    return out


@pytest.fixture(scope="module")
def ac_start():
    return certify(attouch_cabot(4.0), MAX_ITER).k_one


def test_criterion_01_energy_monotone(grid, ac_start):
    worst = -np.inf
    ok = True
    for (label, beta), (cfg, res, _) in grid.items():
        start = ac_start if label == "ac4" else 1
        energies = [(r.k, r.energy) for r in res.records if r.k >= start]
        tol = 1e-9 * max(1.0, res.records[0].energy)
        for (_, e_prev), (k, e_cur) in zip(energies, energies[1:]):
            worst = max(worst, e_cur - e_prev)
            if e_cur > e_prev + tol:
                ok = False
    _report(1, ok, f"energy nonincreasing on all grid runs "
                   f"(worst increase {worst:.2e})")


def test_criterion_02_gap_bound(grid):
    ok = True
    worst_margin = np.inf
    for (label, beta), (cfg, res, _) in grid.items():
        e1 = res.records[0].energy
        bound = e1 / cfg.gamma + 1e-9
        lhs = max(r.t_k ** 2 * r.gap for r in res.records)
        worst_margin = min(worst_margin, bound - lhs)
        ok = ok and lhs <= bound
    _report(2, ok, f"t_k^2 * gap below its energy bound on all grid runs "
                   f"(tightest margin {worst_margin:.2e})")


def test_criterion_03_feasibility_bound(grid):
    ok = True
    worst_margin = np.inf
    for (label, beta), (cfg, res, _) in grid.items():
        e1 = res.records[0].energy
        bound = math.sqrt(2.0 * e1 / (cfg.beta * cfg.gamma)) + 1e-9
        lhs = max(r.t_k * r.feas for r in res.records)
        worst_margin = min(worst_margin, bound - lhs)
        ok = ok and lhs <= bound
    _report(3, ok, f"t_k * feasibility below its energy bound on all grid "
                   f"runs (tightest margin {worst_margin:.2e})")


def test_criterion_04_quadratic_rates(grid):
    ok = True
    summary = []
    for label in ACCELERATED_FOR_RATES:
        for beta in BETAS:
            _, res, _ = grid[(label, beta)]
            for field in ("gap", "feas", "obj_err"):
                fit = rate_fit(res.records, field, *WINDOW)
                ok = ok and fit.slope <= -1.8 and fit.r2 >= 0.9
                summary.append(f"{label}/b{beta}/{field}:{fit.slope:.2f}")
    _report(4, ok, "accelerated log-log slopes <= -1.8 with r2 >= 0.9 "
                   "(" + " ".join(summary[:6]) + " ...)")


def test_criterion_05_baseline_separation(instance):
    prob, _, saddle = instance
    params = SolverParams(rule=constant(), beta=1.0, max_iter=MAX_ITER,
                          record_every=10)
    res = run(prob, params, saddle=saddle)
    fit = rate_fit(res.records, "gap", *WINDOW)
    ok = fit.slope >= -1.3
    _report(5, ok, f"constant-rule baseline stays sublinear "
                   f"(gap slope {fit.slope:.2f} >= -1.3)")


def test_criterion_06_iterate_convergence(instance):
    prob, _, (x_star, lam_star) = instance
    params = SolverParams(rule=chambolle_dossal(4.0), gamma=0.84, beta=1.0,
                          max_iter=MAX_ITER, record_every=1000)
    cfg = validate(prob, params)
    assert cfg.convergence_certified
    res = run(prob, params, cfg=cfg)
    err = (np.linalg.norm(res.x - x_star) + np.linalg.norm(res.lam - lam_star))
    ok = err <= 1e-4
    _report(6, ok, f"certified config reaches the unique saddle point "
                   f"(error {err:.2e} <= 1e-4 at k={MAX_ITER})")


def test_criterion_07_kkt_decay(grid):
    ok = True
    details = []
    for label in CERTIFIED:
        for beta in BETAS:
            cfg, res, _ = grid[(label, beta)]
            assert cfg.convergence_certified
            recs = {r.k: r for r in res.records}
            lo, hi = recs[100], recs[10_000]
            ratio = (math.sqrt(hi.k) * hi.kkt_grad) / (math.sqrt(lo.k) * lo.kkt_grad)
            fit = rate_fit(res.records, "feas", *WINDOW)
            ok = ok and ratio <= 0.1 and fit.slope <= -1.8
            details.append(f"{label}/b{beta}:{ratio:.3f}")
    _report(7, ok, "sqrt(k)-scaled stationarity residual decays by 10x per "
                   "two decades on certified runs (" + " ".join(details) + ")")


def test_criterion_08_dual_bound(grid, instance):
    prob, _, (_, lam_star) = instance
    ok = True
    details = []
    for label in CERTIFIED:
        for beta in BETAS:
            _, _, states = grid[(label, beta)]
            ks, vals = dual_bound_series(states, lam_star, prob.a_map)
            finite_max = float(vals.max())
            mask = (ks >= WINDOW[0]) & (vals > 1e-14)
            slope = float(np.polyfit(np.log(ks[mask]), np.log(vals[mask]), 1)[0])
            ok = ok and np.isfinite(finite_max) and slope <= 0.05
            details.append(f"{label}/b{beta}:{slope:.2f}")
    _report(8, ok, "dual decay series bounded with no upward trend "
                   "(" + " ".join(details) + ")")


def test_criterion_09_oracle_equivalence():
    ok = True
    details = []
    for seed in (7, 11, 13, 17, 23):
        prob_s, qp_s = generate(GenSpec("random_qp", N, P, seed, COND))
        x_star, _ = kkt_solve(qp_s)
        params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0,
                              max_iter=MAX_ITER, record_every=MAX_ITER)
        res = run(prob_s, params)
        rel = np.linalg.norm(res.x - x_star) / np.linalg.norm(x_star)
        ok = ok and rel <= 1e-5
        details.append(f"{seed}:{rel:.1e}")
    _report(9, ok, "final primal iterate matches the direct solve on 5 seeds "
                   "(" + " ".join(details) + ")")


def test_criterion_10_unconstrained_reduction():
    prob, _ = generate(GenSpec("unconstrained", 30, 5, 3, 10.0))
    params = SolverParams(rule=nesterov(), beta=1.0, max_iter=500)
    cfg = validate(prob, params)
    st = initial_state(cfg.rule, np.zeros(30), np.zeros(5))
    x_prev = np.zeros(30)
    x = np.zeros(30)
    t = 1.0
    worst = 0.0
    for _ in range(500):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = x + ((t - 1.0) / t_next) * (x - x_prev)
        x_prev, x, t = x, y - cfg.sigma * prob.objective.gradient(y), t_next
        st, _ = step(prob, cfg, st)
        worst = max(worst, float(np.max(np.abs(st.x_k - x))))
    ok = worst <= 1e-12 and np.all(st.lam_k == 0.0)
    _report(10, ok, f"zero-operator trajectory matches the accelerated "
                    f"gradient reference loop (worst coord diff {worst:.1e})")


def test_criterion_11_rule_certification():
    reports = {}
    for name, rule in (("nesterov", nesterov()), ("cd3", chambolle_dossal(3.0)),
                       ("cd4", chambolle_dossal(4.0)), ("ac4", attouch_cabot(4.0)),
                       ("constant", constant())):
        reports[name] = certify(rule, MAX_ITER)
    ok = all(r.ok for r in reports.values())
    ts = t_values(nesterov(), MAX_ITER + 1)
    resid = np.abs(ts[1:] ** 2 - ts[1:] - ts[:-1] ** 2)
    nes_resid = float((resid / np.maximum(1.0, ts[1:] ** 2)).max())
    ok = ok and nes_resid <= 1e-9
    for alpha, name in ((3.0, "cd3"), (4.0, "cd4")):
        expected = -1.0 / (alpha - 1.0) ** 2
        ok = ok and abs(reports[name].max_slack - expected) <= 1e-12
    _report(11, ok, f"all rules certify at K={MAX_ITER} (recurrence residual "
                    f"{nes_resid:.1e}, exact slack margins verified)")


def test_criterion_12_single_step_oracle(instance):
    prob, _, _ = instance
    a = prob.a_map.matrix
    params = SolverParams(rule=chambolle_dossal(4.0), beta=1.0,
                          max_iter=MAX_ITER)
    cfg = validate(prob, params)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 40))
        t_k = t_value(cfg.rule, k)
        t_k1 = t_value(cfg.rule, k + 1)
        x, x_prev = rng.standard_normal((2, N))
        lam, lam_prev = rng.standard_normal((2, P))
        st = initial_state(cfg.rule, x, lam)
        st.k = k
        st.x_prev = x_prev
        st.lam_prev = lam_prev
        st.t_k = t_k
        st.t_next = t_k1
        new_st, trace = step(prob, cfg, st)
        # straight-line dense transcription of one update
        g = cfg.gamma
        y = x + ((t_k - 1.0) / t_k1) * (x - x_prev)
        mu = lam + ((t_k - 1.0) / t_k1) * (lam - lam_prev)
        eta = a @ x + (g / (t_k1 - 1.0 + g)) * (prob.b - a @ x)
        nu = g * lam + (t_k - 1.0) * (lam - lam_prev)
        s = (cfg.rho / g) * t_k1 * (t_k1 - 1.0 + g)
        m = np.eye(N) / cfg.sigma + (s / g) * (a.T @ a)
        rhs = (y / cfg.sigma - prob.objective.gradient(y)
               - cfg.beta * a.T @ (a @ y - prob.b) - (a.T @ nu) / g
               + (s / g) * (a.T @ eta))
        x_next = np.linalg.solve(m, rhs)
        z = g * x_next + (t_k1 - 1.0) * (x_next - x)
        lam_next = mu + (cfg.rho / g) * (a @ z - g * prob.b)
        worst = max(worst,
                    float(np.max(np.abs(new_st.x_k - x_next))),
                    float(np.max(np.abs(new_st.lam_k - lam_next))),
                    float(np.max(np.abs(trace.y_k - y))),
                    float(np.max(np.abs(trace.z_next_gamma - z))))
    ok = worst <= 1e-10
    _report(12, ok, f"single step matches the dense transcription on 20 "
                    f"random states (worst coord diff {worst:.1e})")

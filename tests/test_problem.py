import json
import math

import numpy as np
import pytest

from falm.errors import DimensionMismatch, NonFiniteError
from falm.linalg import dense_map
from falm.oracle import QpInstance, kkt_solve
from falm.problem import (Objective, Problem, aug_lagrangian, kkt_residuals,
                          lagrangian, least_squares_objective, problem_from_json,
                          problem_to_json, quadratic_objective)


def test_lagrangian_hand_value(tiny_qp):
    # f=0.5||x||^2, A=[1 1], b=2 at x=(0,0), lam=1: 0 + 1*(0-2) = -2.
    val = lagrangian(tiny_qp, np.zeros(2), np.array([1.0]))
    assert val == pytest.approx(-2.0, abs=1e-15)


def test_lagrangian_feasible_point_equals_objective(tiny_qp):
    x = np.array([0.5, 1.5])  # on the constraint line
    for lam in (np.array([0.0]), np.array([3.7]), np.array([-2.0])):
        assert lagrangian(tiny_qp, x, lam) == pytest.approx(
            tiny_qp.objective.value(x), abs=1e-12)


def test_lagrangian_zero_multiplier(small_instance):
    prob, _ = small_instance
    x = np.arange(prob.n, dtype=float) / prob.n
    assert lagrangian(prob, x, np.zeros(prob.p)) == pytest.approx(
        prob.objective.value(x), abs=1e-12)


def test_aug_lagrangian_hand_value(tiny_qp):
    # lagrangian -2 plus (beta/2)*||Ax-b||^2 = -2 + 1*4 = 2 for beta=2.
    val = aug_lagrangian(tiny_qp, np.zeros(2), np.array([1.0]), beta=2.0)
    assert val == pytest.approx(2.0, abs=1e-15)


def test_aug_lagrangian_zero_beta_is_lagrangian(small_instance):
    prob, _ = small_instance
    rng = np.random.default_rng(1)
    x = rng.standard_normal(prob.n)
    lam = rng.standard_normal(prob.p)
    assert aug_lagrangian(prob, x, lam, 0.0) == lagrangian(prob, x, lam)


def test_aug_lagrangian_feasible_equals_lagrangian(tiny_qp):
    x = np.array([2.0, 0.0])
    lam = np.array([-4.2])
    assert aug_lagrangian(tiny_qp, x, lam, 3.0) == pytest.approx(
        lagrangian(tiny_qp, x, lam), abs=1e-12)


def test_kkt_residuals_closed_form_solution(tiny_qp):
    # Stationarity x + A'lam = 0 and x1+x2=2 give x=(1,1), lam=-1.
    grad_res, feas_res = kkt_residuals(tiny_qp, np.array([1.0, 1.0]),
                                       np.array([-1.0]))
    assert grad_res == 0.0
    assert feas_res == 0.0


def test_kkt_residuals_at_origin(tiny_qp):
    grad_res, feas_res = kkt_residuals(tiny_qp, np.zeros(2), np.zeros(1))
    assert grad_res == 0.0
    assert feas_res == pytest.approx(2.0, abs=1e-15)


def test_kkt_residuals_at_oracle(small_instance):
    prob, qp = small_instance
    x_star, lam_star = kkt_solve(qp)
    grad_res, feas_res = kkt_residuals(prob, x_star, lam_star)
    assert grad_res <= 1e-10
    assert feas_res <= 1e-10


def test_kkt_residuals_dimension_mismatch(tiny_qp):
    with pytest.raises(DimensionMismatch):
        kkt_residuals(tiny_qp, np.zeros(3), np.zeros(1))


def _central_difference_error(obj, x, h=1e-5):
    """Worst per-coordinate error of the gradient against central differences,
    each relative to ``max(1, |gradient_i|)``."""
    g = obj.gradient(x)
    worst = 0.0
    for i, e in enumerate(h * np.eye(x.size)):
        fd = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
        worst = max(worst, abs(fd - g[i]) / max(1.0, abs(g[i])))
    return worst


def test_shipped_objectives_grad_check():
    rng = np.random.default_rng(9)
    quad = quadratic_objective(np.diag([1.0, 4.0, 9.0]), rng.standard_normal(3))
    lsq = least_squares_objective(rng.standard_normal((5, 3)),
                                  rng.standard_normal(5))
    for obj in (quad, lsq):
        for _ in range(20):
            assert _central_difference_error(obj, rng.standard_normal(3)) <= 1e-5


def test_objective_convexity_and_descent_witness(small_instance):
    prob, _ = small_instance
    obj = prob.objective
    rng = np.random.default_rng(21)
    for _ in range(50):
        x, y = rng.standard_normal((2, prob.n))
        linear = obj.value(x) + float(np.dot(obj.gradient(x), y - x))
        upper = linear + 0.5 * obj.lipschitz * float(np.dot(y - x, y - x))
        fy = obj.value(y)
        scale = max(1.0, abs(fy))
        assert fy >= linear - 1e-9 * scale
        assert fy <= upper + 1e-9 * scale


def test_saddle_inequality_witness(small_instance):
    prob, qp = small_instance
    x_star, lam_star = kkt_solve(qp)
    l_star = lagrangian(prob, x_star, lam_star)
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = x_star + rng.standard_normal(prob.n)
        lam = lam_star + rng.standard_normal(prob.p)
        assert lagrangian(prob, x_star, lam) <= l_star + 1e-10
        assert lagrangian(prob, x, lam_star) >= l_star - 1e-10


def test_problem_copies_a_writable_b(tiny_qp):
    # Problem set writeable = False on the caller's own b and shared it
    b = np.array([2.0])
    prob = Problem(objective=tiny_qp.objective, a_map=tiny_qp.a_map, b=b)
    assert b.flags.writeable and not prob.b.flags.writeable
    assert not np.shares_memory(b, prob.b)
    # a read-only b that owns its data is shared, so rewrapping copies nothing
    again = Problem(objective=prob.objective, a_map=prob.a_map, b=prob.b)
    assert again.b is prob.b


@pytest.mark.parametrize("excess, symmetric", [(0.9, True), (1.1, False)])
def test_symmetry_allowance_of_both_entry_points(excess, symmetric):
    # max|Q_ij| = 4, so both accept max|Q - Q'| up to 4e-12
    q = np.array([[4.0, 1.0], [1.0 + excess * 4e-12, 2.0]])
    build = [lambda: quadratic_objective(q, np.zeros(2)),
             lambda: QpInstance(q_mat=q, c=np.zeros(2), a_mat=np.array([[1.0, 1.0]]),
                                b=np.array([2.0]))]
    for make in build:
        if symmetric:
            make()
        else:
            with pytest.raises(ValueError, match="not symmetric within 1e-12"):
                make()


def test_problem_dimension_validation():
    with pytest.raises(DimensionMismatch):
        Problem(objective=quadratic_objective(np.eye(2), np.zeros(2)),
                a_map=dense_map([[1.0, 1.0]]), b=np.array([1.0, 2.0]))


def test_objective_requires_positive_lipschitz():
    with pytest.raises(ValueError):
        Objective(value=lambda x: 0.0, gradient=lambda x: x, lipschitz=0.0)


@pytest.mark.parametrize("kind", ["quadratic", "least_squares"])
def test_problem_json_round_trip(kind):
    rng = np.random.default_rng(40)
    a = rng.standard_normal((2, 4))
    b = rng.standard_normal(2)
    if kind == "quadratic":
        m = rng.standard_normal((4, 4))
        obj = quadratic_objective((m + m.T) / 2 + 5 * np.eye(4),
                                  rng.standard_normal(4))
    else:
        obj = least_squares_objective(rng.standard_normal((6, 4)),
                                      rng.standard_normal(6))
    prob = Problem(objective=obj, a_map=dense_map(a), b=b)
    doc = problem_to_json(prob)
    # JSON text survives a serialization cycle without losing precision.
    doc2 = json.loads(json.dumps(doc))
    back = problem_from_json(doc2)
    assert np.array_equal(back.a_map.matrix, a)
    assert np.array_equal(back.b, b)
    kind2, m2, v2 = back.objective.data
    assert kind2 == kind
    assert np.array_equal(m2, obj.data[1])
    assert np.array_equal(v2, obj.data[2])
    x = rng.standard_normal(4)
    assert back.objective.value(x) == prob.objective.value(x)


def test_problem_json_rejects_unknown_kind(tiny_qp):
    doc = problem_to_json(tiny_qp)
    doc["objective"]["kind"] = "cubic"
    with pytest.raises(ValueError):
        problem_from_json(doc)


def test_quadratic_default_lipschitz_is_top_eigenvalue():
    assert math.isclose(quadratic_objective(np.eye(3), np.zeros(3)).lipschitz, 1.0)
    assert math.isclose(
        quadratic_objective(np.diag([1.0, 4.0, 9.0]), np.zeros(3)).lipschitz, 9.0)


def test_quadratic_rejects_asymmetric_q():
    # Qx + c is not the gradient of 0.5 x'Qx + c'x unless Q is symmetric.
    with pytest.raises(ValueError, match="not symmetric"):
        quadratic_objective([[1.0, 1.0], [0.0, 1.0]], np.zeros(2))
    with pytest.raises(ValueError, match="NaN"):  # NaN compares false everywhere
        quadratic_objective([[np.nan, 0.0], [0.0, 1.0]], np.zeros(2))
    tilted = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])  # within rounding
    assert quadratic_objective(tilted, np.zeros(2)).lipschitz == pytest.approx(3.0)


def test_quadratic_default_lipschitz_rejects_indefinite_q():
    # The top eigenvalue 1 is no Lipschitz bound for the gradient of diag(1, -5).
    with pytest.raises(ValueError, match="negative eigenvalue"):
        quadratic_objective(np.diag([1.0, -5.0]), np.zeros(2))
    assert quadratic_objective(np.diag([1.0, -5.0]), np.zeros(2), lipschitz=5.0)



@pytest.mark.parametrize("rows, n", [(7, 4), (4, 7), (60, 60), (300, 40)])
def test_least_squares_gram_gradient_matches_two_pass_reference(rows, n):
    # Both G x + c and M'(M x - d) are within gamma_{rows+n+1} |M|'(|M||x| + |d|)
    # of the exact gradient, componentwise, whatever the summation order
    # (gamma_k = k eps / (1 - k eps)); so they differ by at most twice that.
    rng = np.random.default_rng(rows * 1000 + n)
    m = rng.standard_normal((rows, n)) * rng.uniform(0.1, 10.0, size=n)
    d = rng.standard_normal(rows)
    obj = least_squares_objective(m, d)
    k = rows + n + 1
    gamma = k * np.finfo(float).eps / (1.0 - k * np.finfo(float).eps)
    for scale in (1e-3, 1.0, 1e3):
        x = scale * rng.standard_normal(n)
        reference = m.T @ (m @ x - d)
        bound = 2.0 * gamma * (np.abs(m).T @ (np.abs(m) @ np.abs(x) + np.abs(d)))
        assert np.all(np.abs(obj.gradient(x) - reference) <= bound)


def test_least_squares_gradient_reads_its_quadratic_form():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 4))
    d = rng.standard_normal(6)
    obj = least_squares_objective(m, d)
    gram, c = obj.quadratic
    assert np.array_equal(gram, m.T @ m) and np.array_equal(gram, gram.T)
    assert np.array_equal(c, -(m.T @ d))
    assert not (gram.flags.writeable or c.flags.writeable)
    x = rng.standard_normal(4)
    assert np.array_equal(obj.gradient(x), gram @ x + c)
    q = np.diag([1.0, 2.0])
    quad = quadratic_objective(q, np.ones(2))
    assert np.array_equal(quad.quadratic[0], q) and np.array_equal(quad.quadratic[1], np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_least_squares_rejects_non_finite_m(bad):
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(NonFiniteError, match="M contains NaN or infinite entries"):
        least_squares_objective(m, np.zeros(3))
    with pytest.raises(NonFiniteError, match="M contains NaN or infinite entries"):
        least_squares_objective(m, np.zeros(3), lipschitz=1.0)

@pytest.mark.parametrize("field, value", [("n", 2.5), ("n", True), ("p", 1.5)])
def test_problem_from_json_rejects_booleans_and_fractions(tiny_qp, field, value):
    doc = problem_to_json(tiny_qp)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        problem_from_json({**doc, field: value})
    assert problem_from_json({**doc, field: float(doc[field])}).n == tiny_qp.n

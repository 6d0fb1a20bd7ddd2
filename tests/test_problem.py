import json
import math

import numpy as np
import pytest

from falm.errors import DimensionMismatch, NonFiniteError
from falm.linalg import dense_map
from falm.oracle import kkt_solve
from falm.cli import problem_from_json
from falm.problem import (Objective, Problem, kkt_residuals, least_squares_objective,
                          quadratic_objective)

# The tiny_qp fixture as an inline problem document.
_TINY_DOC = {"n": 2, "p": 1, "A": [1.0, 1.0], "b": [2.0],
             "objective": {"kind": "quadratic", "Q": [1.0, 0.0, 0.0, 1.0], "c": [0.0, 0.0]}}


# The augmented Lagrangian is the energy tests' reference (a conftest fixture);
# these pin it, and at beta = 0 the Lagrangian, to hand values.
def test_lagrangian_hand_value(tiny_qp, aug_lagrangian):
    # f=0.5||x||^2, A=[1 1], b=2 at x=(0,0), lam=1: 0 + 1*(0-2) = -2.
    val = aug_lagrangian(tiny_qp, np.zeros(2), np.array([1.0]), 0.0)
    assert val == pytest.approx(-2.0, abs=1e-15)


def test_lagrangian_feasible_point_equals_objective(tiny_qp, aug_lagrangian):
    x = np.array([0.5, 1.5])  # on the constraint line
    for lam in (np.array([0.0]), np.array([3.7]), np.array([-2.0])):
        assert aug_lagrangian(tiny_qp, x, lam, 0.0) == pytest.approx(
            tiny_qp.objective.value(x), abs=1e-12)


def test_lagrangian_zero_multiplier(small_instance, aug_lagrangian):
    prob, _ = small_instance
    x = np.arange(prob.n, dtype=float) / prob.n
    assert aug_lagrangian(prob, x, np.zeros(prob.p), 0.0) == pytest.approx(
        prob.objective.value(x), abs=1e-12)


def test_aug_lagrangian_hand_value(tiny_qp, aug_lagrangian):
    # lagrangian -2 plus (beta/2)*||Ax-b||^2 = -2 + 1*4 = 2 for beta=2.
    val = aug_lagrangian(tiny_qp, np.zeros(2), np.array([1.0]), beta=2.0)
    assert val == pytest.approx(2.0, abs=1e-15)


def test_aug_lagrangian_feasible_equals_lagrangian(tiny_qp, aug_lagrangian):
    x = np.array([2.0, 0.0])
    lam = np.array([-4.2])
    assert aug_lagrangian(tiny_qp, x, lam, 3.0) == pytest.approx(
        aug_lagrangian(tiny_qp, x, lam, 0.0), abs=1e-12)


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


def test_saddle_inequality_witness(small_instance, aug_lagrangian):
    prob, qp = small_instance
    x_star, lam_star = kkt_solve(qp)

    def lagrangian(x, lam):
        return aug_lagrangian(prob, x, lam, 0.0)

    l_star = lagrangian(x_star, lam_star)
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = x_star + rng.standard_normal(prob.n)
        lam = lam_star + rng.standard_normal(prob.p)
        assert lagrangian(x_star, lam) <= l_star + 1e-10
        assert lagrangian(x, lam_star) >= l_star - 1e-10


def test_problem_copies_a_writable_b(tiny_qp):
    # Problem set writeable = False on the caller's own b and shared it
    b = np.array([2.0])
    prob = Problem(objective=tiny_qp.objective, a_map=tiny_qp.a_map, b=b)
    assert b.flags.writeable and not prob.b.flags.writeable
    assert not np.shares_memory(b, prob.b)
    # a read-only b that owns its data is shared, so rewrapping copies nothing
    again = Problem(objective=prob.objective, a_map=prob.a_map, b=prob.b)
    assert again.b is prob.b


def _hand_built(q, c):
    """An objective built by hand around ``("quadratic", q, c)``."""
    return Objective(value=lambda x: 0.0, gradient=lambda x: x, lipschitz=1.0,
                     data=("quadratic", q, c))


@pytest.mark.parametrize("excess, symmetric", [(0.9, True), (1.1, False)])
def test_symmetry_allowance_of_both_entry_points(excess, symmetric):
    # max|Q_ij| = 4, so both accept max|Q - Q'| up to 4e-12
    q = np.array([[4.0, 1.0], [1.0 + excess * 4e-12, 2.0]])
    build = [lambda: quadratic_objective(q, np.zeros(2)),
             lambda: _hand_built(q, np.zeros(2))]
    for make in build:
        if symmetric:
            make()
        else:
            with pytest.raises(ValueError, match="not symmetric within 1e-12"):
                make()


@pytest.mark.parametrize("q, c, error, match", [
    (np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), ValueError, "not symmetric"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros(2), NonFiniteError, "Q contains NaN"),
    (np.eye(3), np.zeros(2), DimensionMismatch, r"Q has shape \(3, 3\), expected \(2, 2\)"),
], ids=["asymmetric", "nan", "3x3_q_for_2_c"])
def test_hand_built_objective_checks_its_quadratic_data(q, c, error, match):
    with pytest.raises(error, match=match):
        _hand_built(q, c)


def test_objective_copies_a_writable_q():
    q, c = np.eye(2), np.array([1.0, -1.0])
    hand, quad = _hand_built(q, c), quadratic_objective(q, c)
    for obj in (hand, quad):
        _, kept, kept_c = obj.data
        assert not kept.flags.writeable and not np.shares_memory(kept, q)
        assert not kept_c.flags.writeable and not np.shares_memory(kept_c, c)
    q[0, 0], c[0] = 5.0, 7.0
    # the constructor's oracles read the objective's own copies too
    assert np.array_equal(quad.gradient(np.ones(2)), [2.0, 0.0])
    assert quad.value(np.ones(2)) == 1.0
    assert hand.data[1][0, 0] == 1.0 and quad.lipschitz == 1.0


def test_problem_dimension_validation():
    with pytest.raises(DimensionMismatch):
        Problem(objective=quadratic_objective(np.eye(2), np.zeros(2)),
                a_map=dense_map([[1.0, 1.0]]), b=np.array([1.0, 2.0]))


@pytest.mark.parametrize("objective", [
    quadratic_objective(np.eye(3), np.zeros(3)),
    least_squares_objective(np.ones((4, 3)), np.zeros(4)),
], ids=["quadratic", "least_squares"])
def test_problem_rejects_an_objective_of_another_dimension(objective):
    # The map acts on R^2 but the objective's gradient on R^3: refused at
    # construction, not at the first gradient of a run.
    with pytest.raises(DimensionMismatch, match="objective has dimension 3"):
        Problem(objective=objective, a_map=dense_map(np.ones((1, 2))), b=[1.0])


def test_objective_requires_positive_lipschitz():
    with pytest.raises(ValueError):
        Objective(value=lambda x: 0.0, gradient=lambda x: x, lipschitz=0.0)


@pytest.mark.parametrize("data", [
    ("least_squares", np.eye(2), np.zeros(2)),  # the layout least squares used to keep
    ("quadratic", np.eye(2)),
    ["quadratic", np.eye(2), np.zeros(2)],
    (np.eye(2), np.eye(2), np.zeros(2)),
    "quadratic",
], ids=["least_squares_kind", "two_entries", "list", "array_kind", "string"])
def test_objective_refuses_a_data_layout_other_than_quadratic(data):
    with pytest.raises(ValueError, match=r"data must be \('quadratic', Q, c\)"):
        Objective(value=lambda x: 0.0, gradient=lambda x: x, lipschitz=1.0, data=data)


@pytest.mark.parametrize("kind", ["quadratic", "least_squares"])
def test_problem_json_round_trip(kind):
    rng = np.random.default_rng(40)
    a = rng.standard_normal((2, 4))
    b = rng.standard_normal(2)
    if kind == "quadratic":
        m = rng.standard_normal((4, 4))
        mat, vec = (m + m.T) / 2 + 5 * np.eye(4), rng.standard_normal(4)
        obj = quadratic_objective(mat, vec)
    else:
        mat, vec = rng.standard_normal((6, 4)), rng.standard_normal(6)
        obj = least_squares_objective(mat, vec)
    prob = Problem(objective=obj, a_map=dense_map(a), b=b)
    names = {"quadratic": ("Q", "c"), "least_squares": ("M", "d")}[kind]
    doc = {"n": 4, "p": 2, "A": a.ravel().tolist(), "b": b.tolist(),
           "objective": {"kind": kind, names[0]: mat.ravel().tolist(),
                         names[1]: vec.tolist()}}
    # JSON text survives a serialization cycle without losing precision.
    back = problem_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(back.a_map.matrix, a)
    assert np.array_equal(back.b, b)
    # both kinds keep the quadratic form their gradient reads, bitwise
    kind2, q2, c2 = back.objective.data
    assert kind2 == "quadratic"
    assert np.array_equal(q2, obj.data[1])
    assert np.array_equal(c2, obj.data[2])
    x = rng.standard_normal(4)
    assert back.objective.value(x) == prob.objective.value(x)


def test_problem_json_rejects_unknown_kind():
    doc = {**_TINY_DOC, "objective": {**_TINY_DOC["objective"], "kind": "cubic"}}
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
    kind, gram, c = obj.data
    assert kind == "quadratic"
    assert np.array_equal(gram, m.T @ m) and np.array_equal(gram, gram.T)
    assert np.array_equal(c, -(m.T @ d))
    assert not (gram.flags.writeable or c.flags.writeable)
    x = rng.standard_normal(4)
    assert np.array_equal(obj.gradient(x), gram @ x + c)
    q = np.diag([1.0, 2.0])
    quad = quadratic_objective(q, np.ones(2))
    assert np.array_equal(quad.data[1], q) and np.array_equal(quad.data[2], np.ones(2))


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
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        problem_from_json({**_TINY_DOC, field: value})
    assert problem_from_json({**_TINY_DOC, field: float(_TINY_DOC[field])}).n == tiny_qp.n


_LS_DOC = {**_TINY_DOC, "objective": {"kind": "least_squares", "M": [1.0, 0.0, 0.0, 1.0],
                                      "d": [0.0, 0.0]}}


@pytest.mark.parametrize("doc, field", [
    ({**_TINY_DOC, "A": ["1", True]}, "A"),
    ({**_TINY_DOC, "b": ["2.0"]}, "b"),
    ({**_TINY_DOC, "b": [None]}, "b"),
    ({**_TINY_DOC, "A": [[1.0, 1.0]]}, "A"),
    ({**_TINY_DOC, "objective": {"kind": "quadratic", "Q": [1, 0, 0, "1e0"], "c": [0, 0]}}, "Q"),
    ({**_TINY_DOC, "objective": {"kind": "quadratic", "Q": [1, 0, 0, 1], "c": [0, False]}}, "c"),
    ({**_LS_DOC, "objective": {"kind": "least_squares", "M": [1, None, 0, 1], "d": [0, 0]}}, "M"),
    ({**_LS_DOC, "objective": {"kind": "least_squares", "M": [1, 0, 0, 1], "d": [True, 0]}}, "d"),
    ({**_TINY_DOC, "b": 2.0}, "b"),
], ids=["A_string_and_bool", "b_string", "b_null", "A_nested", "Q_string", "c_bool",
        "M_null", "d_bool", "b_not_a_list"])
def test_problem_from_json_refuses_array_entries_that_are_not_numbers(doc, field):
    # np.array(..., dtype=float) used to convert "1" and true to 1.0
    with pytest.raises(ValueError, match=rf"^{field}(\[\d+\])? must be a"):
        problem_from_json(doc)


def test_problem_from_json_reads_integer_and_float_entries():
    prob = problem_from_json({**_LS_DOC, "A": [1, 2.5], "b": [3]})
    assert prob.a_map.matrix.tolist() == [[1.0, 2.5]] and prob.b.tolist() == [3.0]
    kind, gram, c = prob.objective.data  # the Gram matrix M'M and c = -M'd of M = I, d = 0
    assert kind == "quadratic" and gram.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert c.tolist() == [0.0, 0.0]

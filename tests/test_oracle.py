import numpy as np
import pytest

from falm.errors import NonFiniteError
from falm.linalg import LinearMap, dense_map, zero_map
from falm.oracle import OracleError, QpInstance, kkt_solve, qp_from_problem
from falm.problem import Problem, least_squares_objective, quadratic_objective


def test_kkt_solve_hand_instance():
    # min 0.5||x||^2 s.t. x1+x2=2: stationarity x = -A'lam with A=[1 1] gives
    # x=(t,t); feasibility 2t=2, so x*=(1,1) and lam*=-1.
    qp = QpInstance(q_mat=np.eye(2), c=np.zeros(2),
                    a_mat=np.array([[1.0, 1.0]]), b=np.array([2.0]))
    x_star, lam_star = kkt_solve(qp)
    np.testing.assert_allclose(x_star, [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(lam_star, [-1.0], atol=1e-14)


def test_kkt_solve_identity_constraints():
    rng = np.random.default_rng(10)
    b = rng.standard_normal(4)
    qp = QpInstance(q_mat=np.eye(4), c=np.zeros(4), a_mat=np.eye(4), b=b)
    x_star, lam_star = kkt_solve(qp)
    np.testing.assert_allclose(x_star, b, atol=1e-12)
    np.testing.assert_allclose(lam_star, -b, atol=1e-12)


def test_kkt_solve_random_instance_residuals():
    rng = np.random.default_rng(77)
    m = rng.standard_normal((20, 20))
    q = m @ m.T + np.eye(20)
    a = rng.standard_normal((5, 20))
    qp = QpInstance(q_mat=q, c=rng.standard_normal(20), a_mat=a,
                    b=rng.standard_normal(5))
    x_star, lam_star = kkt_solve(qp)
    assert np.linalg.norm(qp.q_mat @ x_star + qp.c + a.T @ lam_star) <= 1e-9
    assert np.linalg.norm(a @ x_star - qp.b) <= 1e-9


def test_kkt_solve_deterministic_bitwise():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 8))
    qp = QpInstance(q_mat=m @ m.T + np.eye(8), c=rng.standard_normal(8),
                    a_mat=rng.standard_normal((3, 8)), b=rng.standard_normal(3))
    x1, l1 = kkt_solve(qp)
    x2, l2 = kkt_solve(qp)
    assert np.array_equal(x1, x2)
    assert np.array_equal(l1, l2)


def test_kkt_solve_singular_system():
    # Q = 0 with a single constraint leaves n-1 directions undetermined.
    qp = QpInstance(q_mat=np.zeros((2, 2)), c=np.zeros(2),
                    a_mat=np.array([[1.0, 0.0]]), b=np.array([1.0]))
    with pytest.raises(OracleError):
        kkt_solve(qp)


def test_qp_instance_validation():
    with pytest.raises(ValueError, match="symmetric"):
        QpInstance(q_mat=np.array([[1.0, 0.5], [0.0, 1.0]]), c=np.zeros(2),
                   a_mat=np.array([[1.0, 1.0]]), b=np.array([1.0]))
    with pytest.raises(ValueError, match="row rank"):
        QpInstance(q_mat=np.eye(2), c=np.zeros(2),
                   a_mat=np.array([[1.0, 1.0], [2.0, 2.0]]), b=np.ones(2))


@pytest.mark.parametrize("bad", ["Q", "A"])
def test_qp_instance_rejects_non_finite_matrices(bad):
    q = np.array([[1.0, np.nan], [np.nan, 1.0]]) if bad == "Q" else np.eye(2)
    a = np.array([[1.0, np.nan]]) if bad == "A" else np.array([[1.0, 1.0]])
    with pytest.raises(NonFiniteError, match=f"{bad} contains NaN"):
        QpInstance(q_mat=q, c=np.zeros(2), a_mat=a, b=np.array([2.0]))


def test_kkt_solve_rejects_a_nan_solution():
    # finite data whose elimination overflows: the solve returns NaN and inf
    with np.errstate(all="ignore"):
        qp = QpInstance(q_mat=np.diag([1e308, 1e308]), c=np.array([1e308, -1e308]),
                        a_mat=np.array([[1.0, 1.0]]), b=np.array([1e308]))
        with pytest.raises(OracleError, match="residual nan"):
            kkt_solve(qp)


def test_qp_from_problem_least_squares_arithmetic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 4))
    d = rng.standard_normal(7)
    a = rng.standard_normal((2, 4))
    prob = Problem(objective=least_squares_objective(m, d), a_map=dense_map(a),
                   b=rng.standard_normal(2))
    qp = qp_from_problem(prob)
    gram = m.T @ m
    assert np.array_equal(qp.q_mat, (gram + gram.T) / 2.0)
    assert np.array_equal(qp.c, -(m.T @ d))
    assert np.array_equal(qp.a_mat, a) and np.array_equal(qp.b, prob.b)



def test_qp_from_problem_shares_the_objective_gram():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((30, 12))
    prob = Problem(objective=least_squares_objective(m, rng.standard_normal(30)),
                   a_map=dense_map(rng.standard_normal((3, 12))),
                   b=rng.standard_normal(3))
    qp = qp_from_problem(prob)
    _, gram, c = prob.objective.data
    assert np.shares_memory(qp.q_mat, gram) and np.shares_memory(qp.c, c)
    assert np.shares_memory(qp.a_mat, prob.a_map.matrix)


def test_qp_instance_copies_a_writable_q():
    q = np.eye(2)
    qp = QpInstance(q_mat=q, c=np.zeros(2), a_mat=np.array([[1.0, 1.0]]),
                    b=np.array([2.0]))
    assert q.flags.writeable and not qp.q_mat.flags.writeable
    q[0, 0] = 5.0
    assert qp.q_mat[0, 0] == 1.0
    # a read-only view of a writable array is no private copy either
    view = q.view()
    view.flags.writeable = False
    qp = QpInstance(q_mat=view, c=np.zeros(2), a_mat=np.array([[1.0, 1.0]]),
                    b=np.array([2.0]))
    assert not np.shares_memory(qp.q_mat, q)

def test_qp_from_problem_declines_without_full_rank_dense_map(tiny_qp):
    assert qp_from_problem(tiny_qp) is not None
    obj = tiny_qp.objective
    rank_deficient = Problem(objective=obj, b=np.ones(2),
                             a_map=dense_map([[1.0, 1.0], [2.0, 2.0]]))
    zero = Problem(objective=obj, a_map=zero_map(2, 1), b=np.zeros(1))
    a = tiny_qp.a_map
    free = Problem(objective=obj, b=tiny_qp.b,
                   a_map=LinearMap(forward=a.forward, adjoint=a.adjoint, dims=a.dims))
    for prob in (rank_deficient, zero, free):
        assert qp_from_problem(prob) is None

import numpy as np
import pytest

from falm.errors import NonFiniteError
from falm.linalg import LinearMap, dense_map, zero_map
from falm.oracle import OracleError, QpInstance, kkt_solve, qp_from_problem
from falm.problem import Objective, Problem, least_squares_objective, quadratic_objective


def _qp(q, c, a, b, lipschitz=None):
    """The QP of ``min 0.5 x'Qx + c'x  s.t.  A x = b``, built as a Problem."""
    return QpInstance(Problem(objective=quadratic_objective(q, c, lipschitz),
                              a_map=dense_map(a), b=b))


def test_kkt_solve_hand_instance():
    # min 0.5||x||^2 s.t. x1+x2=2: stationarity x = -A'lam with A=[1 1] gives
    # x=(t,t); feasibility 2t=2, so x*=(1,1) and lam*=-1.
    qp = _qp(np.eye(2), np.zeros(2), [[1.0, 1.0]], [2.0])
    x_star, lam_star = kkt_solve(qp)
    np.testing.assert_allclose(x_star, [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(lam_star, [-1.0], atol=1e-14)


def test_kkt_solve_identity_constraints():
    rng = np.random.default_rng(10)
    b = rng.standard_normal(4)
    qp = _qp(np.eye(4), np.zeros(4), np.eye(4), b)
    x_star, lam_star = kkt_solve(qp)
    np.testing.assert_allclose(x_star, b, atol=1e-12)
    np.testing.assert_allclose(lam_star, -b, atol=1e-12)


def test_kkt_solve_random_instance_residuals():
    rng = np.random.default_rng(77)
    m = rng.standard_normal((20, 20))
    q = m @ m.T + np.eye(20)
    a = rng.standard_normal((5, 20))
    c, b = rng.standard_normal(20), rng.standard_normal(5)
    x_star, lam_star = kkt_solve(_qp(q, c, a, b))
    assert np.linalg.norm(q @ x_star + c + a.T @ lam_star) <= 1e-9
    assert np.linalg.norm(a @ x_star - b) <= 1e-9


def test_kkt_solve_deterministic_bitwise():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 8))
    qp = _qp(m @ m.T + np.eye(8), rng.standard_normal(8),
             rng.standard_normal((3, 8)), rng.standard_normal(3))
    x1, l1 = kkt_solve(qp)
    x2, l2 = kkt_solve(qp)
    assert np.array_equal(x1, x2)
    assert np.array_equal(l1, l2)


def test_kkt_solve_singular_system():
    # Q = 0 with a single constraint leaves n-1 directions undetermined.
    qp = _qp(np.zeros((2, 2)), np.zeros(2), [[1.0, 0.0]], [1.0], lipschitz=1.0)
    with pytest.raises(OracleError):
        kkt_solve(qp)


def test_qp_instance_validation(tiny_qp):
    # a valid Problem is all the data; QpInstance adds what the direct solve needs
    obj = tiny_qp.objective
    with pytest.raises(ValueError, match="row rank"):
        QpInstance(Problem(objective=obj, a_map=dense_map([[1.0, 1.0], [2.0, 2.0]]),
                           b=np.ones(2)))
    with pytest.raises(ValueError, match="no quadratic form"):
        QpInstance(Problem(objective=Objective(obj.value, obj.gradient, obj.lipschitz),
                           a_map=tiny_qp.a_map, b=tiny_qp.b))
    assert QpInstance(tiny_qp).problem is tiny_qp


@pytest.mark.parametrize("bad", ["Q", "A"])
def test_qp_instance_rejects_non_finite_matrices(bad):
    # neither reaches a QpInstance: Objective refuses Q, dense_map refuses A
    q = np.array([[1.0, np.nan], [np.nan, 1.0]]) if bad == "Q" else np.eye(2)
    a = np.array([[1.0, np.nan]]) if bad == "A" else np.array([[1.0, 1.0]])
    match = "Q contains NaN" if bad == "Q" else "operator contains NaN"
    with pytest.raises(NonFiniteError, match=match):
        _qp(q, np.zeros(2), a, [2.0], lipschitz=1.0)


def test_kkt_solve_rejects_a_nan_solution():
    # finite data whose elimination overflows: the solve returns NaN and inf
    with np.errstate(all="ignore"):
        qp = _qp(np.diag([1e308, 1e308]), np.array([1e308, -1e308]), [[1.0, 1.0]],
                 [1e308])
        with pytest.raises(OracleError, match="residual nan"):
            kkt_solve(qp)


def test_qp_from_problem_least_squares_arithmetic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 4))
    d = rng.standard_normal(7)
    a = rng.standard_normal((2, 4))
    prob = Problem(objective=least_squares_objective(m, d), a_map=dense_map(a),
                   b=rng.standard_normal(2))
    _, q, c = qp_from_problem(prob).problem.objective.data
    gram = m.T @ m
    assert np.array_equal(q, gram) and np.array_equal(q, (gram + gram.T) / 2.0)
    assert np.array_equal(c, -(m.T @ d))
    assert prob.objective.lipschitz == float(np.linalg.eigvalsh(gram)[-1])


def test_qp_from_problem_shares_the_objective_gram():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((30, 12))
    prob = Problem(objective=least_squares_objective(m, rng.standard_normal(30)),
                   a_map=dense_map(rng.standard_normal((3, 12))),
                   b=rng.standard_normal(3))
    assert qp_from_problem(prob).problem is prob
    # the objective keeps the Gram matrix it formed, and its gradient reads it
    _, gram, c = prob.objective.data
    assert gram.flags.owndata and not gram.flags.writeable
    x = rng.standard_normal(12)
    assert prob.objective.gradient(x).tobytes() == (gram @ x + c).tobytes()


def test_qp_instance_copies_a_writable_q():
    q = np.eye(2)
    qp = _qp(q, np.zeros(2), [[1.0, 1.0]], [2.0])
    _, kept, _ = qp.problem.objective.data
    assert q.flags.writeable and not kept.flags.writeable
    q[0, 0] = 5.0
    assert kept[0, 0] == 1.0
    assert np.array_equal(kkt_solve(qp)[0], [1.0, 1.0])
    # a read-only view of a writable array is no private copy either
    view = q.view()
    view.flags.writeable = False
    qp = _qp(view, np.zeros(2), [[1.0, 1.0]], [2.0])
    assert not np.shares_memory(qp.problem.objective.data[1], q)


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

import numpy as np
import pytest

from falm.benchgen import GenSpec, generate
from falm.inertial import t_values
from falm.linalg import dense_map
from falm.problem import Problem, quadratic_objective
from falm.solver import IterateState


@pytest.fixture(scope="session")
def tiny_qp():
    """min 0.5||x||^2 s.t. x1 + x2 = 2; solution x*=(1,1), lam*=-1 by hand."""
    prob = Problem(objective=quadratic_objective(np.eye(2), np.zeros(2)),
                   a_map=dense_map([[1.0, 1.0]]), b=np.array([2.0]))
    return prob


def _aug_lagrangian(prob, x, lam, beta):
    """``f(x) + <lam, A x - b> + (beta/2)||A x - b||^2``, written out."""
    residual = prob.a_map.forward(x) - prob.b
    return (prob.objective.value(x) + float(np.dot(lam, residual))
            + 0.5 * beta * float(np.dot(residual, residual)))


@pytest.fixture(scope="session")
def aug_lagrangian():
    """The augmented Lagrangian, the energy tests' independent reference."""
    return _aug_lagrangian


@pytest.fixture(scope="session")
def small_instance():
    """Seeded 8x3 strictly convex QP for fast solver tests."""
    return generate(GenSpec("random_qp", 8, 3, 42, 10.0))


def _state_at(prob, rule, k, x, x_prev, lam, lam_prev):
    """The state at index k of two primal and two dual iterates, with the
    blocks of ``IterateState``: the map's images of ``x`` and ``x_prev``, and
    b, then the adjoint of each of those five rows, one apply each, ``x`` and
    ``x_prev``, and for an objective with ``data`` the gradients at ``x`` and
    ``x_prev``."""
    a, obj = prob.a_map, prob.objective
    hist = np.stack((lam, a.forward(x), lam_prev, a.forward(x_prev), prob.b))
    rows = [a.adjoint(row) for row in hist] + [x, x_prev]
    if obj.data is not None:
        rows += [obj.gradient(x), obj.gradient(x_prev)]
    return IterateState(k=k, t_k=float(t_values(rule, k)[-1]), hist=hist,
                        adj=np.stack(rows))


@pytest.fixture(scope="session")
def state_at():
    """Build a state anywhere in the recurrence, as the step tests need."""
    return _state_at

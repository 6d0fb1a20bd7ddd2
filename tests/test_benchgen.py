import json

import numpy as np
import pytest

from falm.benchgen import GenSpec, SplitMix64, generate, spec_from_json, spec_to_json
from falm.linalg import op_norm_sq
from falm.oracle import kkt_solve
from falm.problem import kkt_residuals, problem_to_json

MASK = (1 << 64) - 1


def _splitmix_reference(seed, count):
    """Independent transcription of the documented state advance."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 11])
def test_splitmix_matches_reference(seed):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(100)] == _splitmix_reference(seed, 100)


def test_splitmix_uniform_range():
    rng = SplitMix64(9)
    us = rng.uniforms(1000)
    assert np.all((us >= 0.0) & (us < 1.0))


def test_splitmix_normals_moments():
    rng = SplitMix64(123)
    zs = rng.normals(20000)
    assert abs(zs.mean()) < 0.05
    assert abs(zs.std() - 1.0) < 0.05


def test_generate_deterministic_bitwise():
    spec = GenSpec("random_qp", 12, 4, 42, 25.0)
    p1, q1 = generate(spec)
    p2, q2 = generate(spec)
    assert json.dumps(problem_to_json(p1)) == json.dumps(problem_to_json(p2))
    assert np.array_equal(q1.q_mat, q2.q_mat)
    assert np.array_equal(q1.b, q2.b)


def test_generate_seeds_differ():
    p1, _ = generate(GenSpec("random_qp", 12, 4, 1, 25.0))
    p2, _ = generate(GenSpec("random_qp", 12, 4, 2, 25.0))
    assert not np.array_equal(p1.b, p2.b)


def test_generate_random_qp_is_solvable():
    prob, qp = generate(GenSpec("random_qp", 50, 10, 7, 100.0))
    x_star, lam_star = kkt_solve(qp)
    grad_res, feas_res = kkt_residuals(prob, x_star, lam_star)
    assert grad_res <= 1e-9 and feas_res <= 1e-9


def test_generate_feasible_by_construction():
    # b must lie in the range of A: the least-squares residual is rounding-level
    for kind in ("random_qp", "constrained_least_squares"):
        prob, qp = generate(GenSpec(kind, 20, 6, 3, 10.0))
        x_ls, residual, rank, _ = np.linalg.lstsq(qp.a_mat, qp.b, rcond=None)
        assert rank == 6
        assert np.linalg.norm(qp.a_mat @ x_ls - qp.b) <= 1e-12


def test_generate_eigenvalue_range():
    spec = GenSpec("random_qp", 30, 5, 11, 50.0)
    _, qp = generate(spec)
    eigs = np.linalg.eigvalsh(qp.q_mat)
    assert eigs[0] >= 1.0 - 1e-9
    assert eigs[-1] <= 50.0 + 1e-9


def test_generate_unconstrained():
    prob, qp = generate(GenSpec("unconstrained", 9, 2, 5, 4.0))
    assert qp is None
    assert np.all(prob.b == 0.0)
    assert np.all(prob.a_map.forward(np.ones(9)) == 0.0)
    assert op_norm_sq(prob.a_map).value == 0.0


def test_generate_least_squares_oracle_agrees():
    prob, qp = generate(GenSpec("constrained_least_squares", 15, 4, 8, 9.0))
    # the companion QP must describe the same objective up to a constant
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 15))
    f = prob.objective.value
    quad = lambda v: 0.5 * v @ qp.q_mat @ v + qp.c @ v
    assert f(x) - f(y) == pytest.approx(quad(x) - quad(y), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kind", ["random_qp", "constrained_least_squares",
                                  "unconstrained"])
def test_generated_lipschitz_is_exact(kind):
    # The objective's default constant is the top eigenvalue of Q (or M'M).
    prob, _ = generate(GenSpec(kind, 20, 5, 13, 30.0))
    obj_kind, mat, _ = prob.objective.data
    gram = mat if obj_kind == "quadratic" else mat.T @ mat
    assert prob.objective.lipschitz == float(np.linalg.eigvalsh(gram)[-1])


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec("random_qp", 5, 9, 0, 10.0)  # p > n
    with pytest.raises(ValueError):
        GenSpec("random_qp", 5, 2, 0, 0.5)  # cond < 1
    with pytest.raises(ValueError):
        GenSpec("mystery", 5, 2, 0, 1.0)


def test_spec_json_round_trip():
    spec = GenSpec("random_qp", 50, 10, 7, 100.0)
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True), ("n", 50.5),
                                          ("p", False), ("cond", True)])
def test_spec_from_json_rejects_booleans_and_fractions(field, value):
    doc = {**spec_to_json(GenSpec("random_qp", 50, 10, 7, 100.0)), field: value}
    with pytest.raises(ValueError, match=field):
        spec_from_json(doc)
    assert spec_from_json({**doc, field: 10.0 if field != "cond" else 2}) is not None

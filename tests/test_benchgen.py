import json
import math
import random

import numpy as np
import pytest

from falm import benchgen
from falm.benchgen import GenSpec, SplitMix64, generate
from falm.cli import spec_from_json
from falm.linalg import op_norm_sq
from falm.oracle import kkt_solve
from falm.problem import kkt_residuals

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


class _ScalarDraws:
    """Independent transcription of the documented uniform and Box-Muller
    draws, one value at a time."""

    def __init__(self, seed):
        self.state = seed & MASK
        self.spare = None

    def uniform(self):
        [z] = _splitmix_reference(self.state, 1)
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        return (z >> 11) * 2.0 ** -53

    def normal(self):
        if self.spare is not None:
            out, self.spare = self.spare, None
            return out
        u1 = self.uniform()
        if u1 == 0.0:
            u1 = 2.0 ** -53
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self.spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def uniforms(self, count):
        return np.array([self.uniform() for _ in range(count)])

    def normals(self, count):
        return np.array([self.normal() for _ in range(count)])


def _reference_conjugate(diag, rng):
    """Householder conjugation in textbook form: three explicit n-by-n
    reflections and matrix products."""
    mat = np.diag(diag)
    for _ in range(3):
        v = rng.normals(diag.size)
        v /= np.linalg.norm(v)
        h = np.eye(diag.size) - 2.0 * np.outer(v, v)
        mat = h @ mat @ h.T
    return (mat + mat.T) / 2.0


def _reference_instance(spec):
    """Independent transcription of the draw order that the benchgen module
    documents: the objective's ``(Q, c)``, or ``(M, d)`` for least squares,
    then ``A`` and ``b``, from the scalar draws and textbook reflections."""
    rng = _ScalarDraws(spec.seed)
    n, p = spec.n, spec.p
    spectrum = np.array([spec.cond ** u for u in rng.uniforms(n)])
    if spec.kind == "constrained_least_squares":
        spectrum = np.sqrt(spectrum)
    mat = _reference_conjugate(spectrum, rng)
    tilt = rng.normals(n)
    if spec.kind == "unconstrained":
        return mat, tilt, np.zeros((p, n)), np.zeros(p)
    a = rng.normals(p * n).reshape(p, n)
    a = np.array([benchgen.ROW_NORM * row / np.linalg.norm(row) for row in a])
    anchor = benchgen.DATA_SCALE * rng.normals(n)
    offset = benchgen.TILT * benchgen.DATA_SCALE * tilt
    if spec.kind == "constrained_least_squares":
        return mat, mat @ anchor + offset, a, a @ anchor
    return mat, offset - mat @ anchor, a, a @ anchor


def _instance_arrays(prob, qp):
    kind, mat, vec = prob.objective.data
    arrays = [mat, vec, prob.a_map.matrix, prob.b,
              np.float64(prob.objective.lipschitz)]
    assert qp is None or qp.problem is prob
    return kind, [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 11])
def test_splitmix_matches_reference(seed):
    rng = SplitMix64(seed)
    # one output at a time, then in bulk: both advance the state alike
    got = [int(rng._stream(1)[0]) for _ in range(50)] + rng._stream(50).tolist()
    assert got == _splitmix_reference(seed, 100)


_CALL_SEQUENCES = [
    [("n", 0), ("n", 1), ("n", 1), ("n", 2), ("u", 0), ("n", 3), ("n", 4)],
    # a spare normal carried across uniform draws of every parity
    [("n", 1), ("u", 1), ("n", 1), ("n", 3), ("u", 2), ("u", 0), ("n", 0), ("n", 2)],
    [("u", 3), ("n", 5), ("u", 4), ("n", 7), ("n", 6), ("u", 1), ("n", 1)],
    # long enough that np.log would differ somewhere (about 0.2% of draws)
    [("n", 3), ("u", 2), ("n", 10_001), ("u", 5), ("n", 1)],
]


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
@pytest.mark.parametrize("calls", range(len(_CALL_SEQUENCES) + 1))
def test_bulk_draws_match_scalar_transcription(seed, calls):
    if calls < len(_CALL_SEQUENCES):
        sequence = _CALL_SEQUENCES[calls]
    else:
        pick = random.Random(seed)
        sequence = [(pick.choice("un"), pick.randrange(12)) for _ in range(40)]
    rng, ref = SplitMix64(seed), _ScalarDraws(seed)
    for kind, count in sequence:
        got = rng.uniforms(count) if kind == "u" else rng.normals(count)
        want = ref.uniforms(count) if kind == "u" else ref.normals(count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == want.tobytes(), (kind, count)
    assert int(rng._stream(1)[0]) == _splitmix_reference(ref.state, 1)[0]


def test_zero_first_uniform_is_replaced_in_box_muller():
    # The mixer inverted at output 5: the first state's output is 5, whose
    # top 53 bits are all zero.
    seed = 9496213449905971121
    assert int(SplitMix64(seed)._stream(1)[0]) == 5
    assert SplitMix64(seed).uniforms(2)[0] == 0.0
    z = SplitMix64(seed).normals(2)
    u2 = SplitMix64(seed).uniforms(2)[1]
    r = math.sqrt(-2.0 * math.log(2.0 ** -53))
    assert z[0] == r * math.cos(2.0 * math.pi * u2)
    assert z[1] == r * math.sin(2.0 * math.pi * u2)
    assert z.tobytes() == _ScalarDraws(seed).normals(2).tobytes()


@pytest.mark.parametrize("kind", ["random_qp", "constrained_least_squares",
                                  "unconstrained"])
@pytest.mark.parametrize("n, p, seed, cond", [(12, 4, 1, 1.0), (20, 19, 7, 100.0),
                                              (33, 5, 1007, 30.0)])
def test_generate_matches_scalar_reference(monkeypatch, kind, n, p, seed, cond):
    spec = GenSpec(kind, n, p, seed, cond)
    prob, qp = generate(spec)
    fast = _instance_arrays(prob, qp)
    # the documented draw order, transcribed, to rounding
    mat, vec, a, b = _reference_instance(spec)
    bound = 8 * n * np.finfo(float).eps
    if kind == "constrained_least_squares":
        # the objective keeps M'M and -M'd, and its value reads M and d
        x = np.linspace(-1.0, 1.0, n)
        residual = mat @ x - vec
        assert prob.objective.value(x) == pytest.approx(0.5 * residual @ residual, rel=bound)
        mat, vec = mat.T @ mat, -(mat.T @ vec)
    _, q, c = prob.objective.data
    for got, want in ((q, mat), (c, vec), (prob.a_map.matrix, a), (prob.b, b)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= bound * np.abs(want).max()
    monkeypatch.setattr(benchgen, "SplitMix64", _ScalarDraws)
    assert _instance_arrays(*generate(spec)) == fast


@pytest.mark.parametrize("n", [1, 2, 12, 50])
@pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
def test_orthogonal_conjugate_matches_householder_product(n, seed):
    # three decades of magnitude and both signs, so no entry of d is special
    diag = 1000.0 ** SplitMix64(seed + 1).uniforms(n) * np.where(np.arange(n) % 3, 1.0, -1.0)
    got = benchgen._orthogonal_conjugate(diag, SplitMix64(seed))
    want = _reference_conjugate(diag, SplitMix64(seed))
    bound = 8 * n * np.finfo(float).eps * np.abs(diag).max()
    assert np.abs(got - want).max() <= bound
    assert np.array_equal(got, got.T)
    assert np.abs(np.linalg.eigvalsh(got) - np.sort(diag)).max() <= bound
    assert not got.flags.writeable


@pytest.mark.parametrize("kind", ["random_qp", "unconstrained"])
def test_generated_matrix_is_shared_not_copied(monkeypatch, kind):
    made, conjugate = [], benchgen._orthogonal_conjugate

    def recorded(*args):
        made.append(conjugate(*args))
        return made[-1]

    monkeypatch.setattr(benchgen, "_orthogonal_conjugate", recorded)
    prob, _ = generate(GenSpec(kind, 12, 4, 3, 10.0))
    assert prob.objective.data[1] is made[0]


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
    arrays = [(p.a_map.matrix, p.b, *p.objective.data[1:]) for p in (p1, p2)]
    assert [a.tobytes() for a in arrays[0]] == [a.tobytes() for a in arrays[1]]
    assert q1.problem is p1 and q2.problem is p2


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
        prob, _ = generate(GenSpec(kind, 20, 6, 3, 10.0))
        a = prob.a_map.matrix
        x_ls, residual, rank, _ = np.linalg.lstsq(a, prob.b, rcond=None)
        assert rank == 6
        assert np.linalg.norm(a @ x_ls - prob.b) <= 1e-12


def test_generate_eigenvalue_range():
    spec = GenSpec("random_qp", 30, 5, 11, 50.0)
    prob, _ = generate(spec)
    eigs = np.linalg.eigvalsh(prob.objective.data[1])
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
    _, q, c = qp.problem.objective.data
    quad = lambda v: 0.5 * v @ q @ v + c @ v
    assert f(x) - f(y) == pytest.approx(quad(x) - quad(y), rel=1e-9, abs=1e-12)


def _assert_lipschitz_bounds_top_eigenvalue(spec):
    # The stated L bounds the top eigenvalue of the Q the gradient reads (the
    # kept M'M of least squares) and exceeds it by at most twice the allowance.
    prob, _ = generate(spec)
    top = float(np.linalg.eigvalsh(prob.objective.data[1])[-1])
    allowance = benchgen.LIPSCHITZ_ROUNDING * spec.n
    assert top <= prob.objective.lipschitz <= top * (1.0 + 2.0 * allowance)


@pytest.mark.parametrize("kind", ["random_qp", "constrained_least_squares",
                                  "unconstrained"])
def test_generated_lipschitz_bounds_the_top_eigenvalue(kind):
    for n, p in ((20, 5), (50, 10), (200, 40)):
        for cond in (1.0, 100.0, 1e8):
            for seed in (3, 13, 2**63 + 11):
                _assert_lipschitz_bounds_top_eigenvalue(GenSpec(kind, n, p, seed, cond))


def test_generated_lipschitz_bounds_the_top_eigenvalue_at_benchmark_scale():
    _assert_lipschitz_bounds_top_eigenvalue(
        GenSpec("constrained_least_squares", 1000, 200, 7, 100.0))


def test_generate_runs_no_eigensolve(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("generate ran an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    for kind in benchgen.GEN_KINDS:
        prob, _ = generate(GenSpec(kind, 30, 6, 5, 100.0))
        assert prob.objective.lipschitz > 0


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec("random_qp", 5, 9, 0, 10.0)  # p > n
    with pytest.raises(ValueError):
        GenSpec("random_qp", 5, 2, 0, 0.5)  # cond < 1
    with pytest.raises(ValueError):
        GenSpec("mystery", 5, 2, 0, 1.0)


_SPEC_DOC = {"kind": "random_qp", "n": 50, "p": 10, "seed": 7, "cond": 100.0}


def test_spec_json_round_trip():
    spec = GenSpec("random_qp", 50, 10, 7, 100.0)
    assert spec_from_json(json.loads(json.dumps(_SPEC_DOC))) == spec


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True), ("n", 50.5),
                                          ("p", False), ("cond", True)])
def test_spec_from_json_rejects_booleans_and_fractions(field, value):
    doc = {**_SPEC_DOC, field: value}
    with pytest.raises(ValueError, match=field):
        spec_from_json(doc)
    assert spec_from_json({**doc, field: 10.0 if field != "cond" else 2}) is not None

import numpy as np
import pytest

from falm.errors import NonFiniteError, SpdSolveError, ValidationError
from falm.linalg import (PROBE_BUDGET_BYTES, REFINE_STEPS, LinearMap, all_finite,
                         as_vector, dense_map, op_norm_sq, solve_spd, zero_map)


def _matrix_free(a_map):
    """The same operator with its matrix dropped: forward/adjoint only."""
    return LinearMap(forward=a_map.forward, adjoint=a_map.adjoint, dims=a_map.dims)


def test_as_vector_rejects_nan():
    with pytest.raises(NonFiniteError):
        as_vector([1.0, np.nan])


def _scaled_identity(c, n):
    """Matrix-free ``c * Id`` on n coordinates."""
    return LinearMap(forward=lambda x: c * x, adjoint=lambda y: c * y, dims=(n, n))


def _row_selection(indices, n):
    """Matrix-free pick of the listed coordinates; the adjoint scatters them back."""
    idx = np.array(indices)

    def adjoint(y):
        out = np.zeros(n)
        np.add.at(out, idx, y)
        return out

    return LinearMap(forward=lambda x: x[idx], adjoint=adjoint, dims=(n, idx.size))


def _shipped_maps():
    rng = np.random.default_rng(5)
    return [
        dense_map(rng.standard_normal((7, 4))),
        zero_map(6, 3),
        _scaled_identity(-2.5, 5),
        _row_selection([0, 3, 3], 5),
    ]


@pytest.mark.parametrize("a_map", _shipped_maps())
def test_adjoint_consistency(a_map):
    # <A x, y> == <x, A* y> on randomized probes.
    n, p = a_map.dims
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.standard_normal(n)
        y = rng.standard_normal(p)
        lhs = float(np.dot(a_map.forward(x), y))
        rhs = float(np.dot(x, a_map.adjoint(y)))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


# The dense maps' and the spectral solve's products are ndarray.dot, a cheaper
# dispatch of the gemv that @ calls: bitwise the same for a 2-d matrix and a
# 1-d vector, C- or F-ordered, at the shapes of the benchmark's instances.
@pytest.mark.parametrize("p, n", [(10, 50), (50, 10), (200, 1000)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_dense_map_applies_bitwise_as_matmul(p, n, order):
    rng = np.random.default_rng(p * n)
    a = np.asarray(rng.standard_normal((p, n)), order=order)
    a_map = dense_map(a)
    assert a_map.matrix.flags[f"{order}_CONTIGUOUS"]
    for _ in range(3):
        x, y = rng.standard_normal(n), rng.standard_normal(p)
        assert a_map.forward(x).tobytes() == (a @ x).tobytes()
        assert a_map.adjoint(y).tobytes() == (a.T @ y).tobytes()


@pytest.mark.parametrize("p, n", [(10, 50), (200, 1000)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_spectral_solve_is_bitwise_its_matmul_formula(p, n, order):
    rng = np.random.default_rng(p + n)
    factor = op_norm_sq(dense_map(np.asarray(rng.standard_normal((p, n)), order=order)))
    for shift, scale in [(1.7, 0.3), (101.0, 1e-4)]:
        gain = factor.gains(shift, scale)
        rhs = rng.standard_normal(n)
        want = (1.0 / shift) * rhs + factor.v @ (gain * (factor.vt @ rhs))
        assert factor.solve(shift, rhs, gain).tobytes() == want.tobytes()


def test_op_norm_sq_scaled_identity():
    est = op_norm_sq(_scaled_identity(2.0, 3))
    assert est.iterations == 3  # one adjoint probe per row
    assert est.value == pytest.approx(4.0, rel=1e-14)
    assert est.value >= 4.0


def test_op_norm_sq_zero_map():
    # A zero map is factored like any other; its squared singular values are 0.
    for a_map in (zero_map(4, 2), _matrix_free(zero_map(4, 2))):
        est = op_norm_sq(a_map)
        assert est.value == 0.0 and est.vt.shape == (2, 4) and not np.any(est.s2)


def test_op_norm_sq_known_singular_values():
    # 5x3 operator with singular values {3, 2, 1}: top eigenvalue of A'A is 9.
    rng = np.random.default_rng(3)
    u, _, vt = np.linalg.svd(rng.standard_normal((5, 3)), full_matrices=False)
    a = u @ np.diag([3.0, 2.0, 1.0]) @ vt
    lam_max = float(np.linalg.eigvalsh(a.T @ a)[-1])
    assert lam_max == pytest.approx(9.0, rel=1e-12)
    est = op_norm_sq(dense_map(a))
    assert est.iterations == 0
    assert est.value >= lam_max
    assert est.value == pytest.approx(9.0, rel=1e-13)


def test_op_norm_sq_never_underestimates():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p, n = rng.integers(2, 12, size=2)
        a = rng.standard_normal((p, n))
        lam_max = float(np.linalg.eigvalsh(a.T @ a)[-1])
        assert op_norm_sq(dense_map(a)).value >= lam_max
        assert op_norm_sq(_matrix_free(dense_map(a))).value >= lam_max


def test_op_norm_sq_probes_a_matrix_free_map_bitwise():
    # A dense-backed map rebuilt from p adjoint probes is the same matrix, so
    # its bound and factor are the dense map's to the bit.
    rng = np.random.default_rng(5)
    a_map = dense_map(rng.standard_normal((7, 13)))
    dense, free = op_norm_sq(a_map), op_norm_sq(_matrix_free(a_map))
    assert (dense.iterations, free.iterations) == (0, 7)
    assert free.value == dense.value
    for got, want in ((free.vt, dense.vt), (free.s2, dense.s2)):
        assert got.tobytes() == want.tobytes()


class _Probed(Exception):
    pass


def test_op_norm_sq_refuses_a_map_over_the_probe_budget():
    # The refusal comes from dims alone: no callable runs, nothing is built.
    def probe(_):
        raise _Probed

    p = 1024
    n = PROBE_BUDGET_BYTES // (8 * p)
    with pytest.raises(ValidationError) as err:
        op_norm_sq(LinearMap(forward=probe, adjoint=probe, dims=(n + 1, p)))
    assert err.value.condition == "p·n·8 B ≤ PROBE_BUDGET_BYTES"
    with pytest.raises(_Probed):  # exactly at the budget, probing starts
        op_norm_sq(LinearMap(forward=probe, adjoint=probe, dims=(n, p)))


def test_op_norm_sq_rejects_a_wrong_adjoint():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 9))
    wrong = LinearMap(forward=lambda x: a @ x,
                      adjoint=lambda y: 1.01 * (a.T @ y), dims=(9, 4))
    with pytest.raises(ValidationError) as err:
        op_norm_sq(wrong)
    assert err.value.condition == "⟨A x, y⟩ = ⟨x, A* y⟩"
    # a forward of the wrong size is no transpose of the probes either
    short = LinearMap(forward=lambda x: (a @ x)[:3], adjoint=lambda y: a.T @ y,
                      dims=(9, 4))
    with pytest.raises(ValidationError, match="adjoint is wrong"):
        op_norm_sq(short)


def test_op_norm_sq_rejects_nonfinite_probes():
    bad = LinearMap(forward=lambda x: x, adjoint=lambda y: np.full(3, np.nan),
                    dims=(3, 3))
    with pytest.raises(ValidationError) as err:
        op_norm_sq(bad)
    assert err.value.condition == "A* e_i finite"


def _kept(matrix, forward):
    """A 1-row, 2-column map that keeps ``matrix`` and applies ``forward``."""
    return LinearMap(forward=forward, adjoint=lambda y: matrix.T @ y, dims=(2, 1),
                     matrix=matrix)


def test_op_norm_sq_checks_a_kept_matrix_against_forward():
    # The SVD reads the kept matrix, so it must be the map's: against a forward
    # that applies 2a, a kept a would bound ||A||^2 by 1 where it is 4.
    a = np.array([[0.6, 0.8]])
    with pytest.raises(ValidationError, match="forward disagrees") as err:
        op_norm_sq(_kept(a, lambda x: 2.0 * (a @ x)))
    assert err.value.condition == "A x = matrix·x"
    assert op_norm_sq(_kept(a, lambda x: a @ x)).value == pytest.approx(1.0)


def test_op_norm_sq_refuses_a_nonfinite_kept_matrix():
    # a named error, not numpy's "SVD did not converge"
    a = np.array([[1.0, np.nan]])
    with pytest.raises(ValidationError) as err:
        op_norm_sq(_kept(a, lambda x: a @ x))
    assert err.value.condition == "matrix finite"


def test_op_norm_sq_refuses_a_kept_matrix_of_the_wrong_shape():
    # a 3x2 matrix for a 1-row map once gave a_norm_sq 6 from its own SVD
    a = np.ones((3, 2))
    with pytest.raises(ValidationError, match=r"has shape \(3, 2\), not \(1, 2\)") as err:
        op_norm_sq(_kept(a, lambda x: a[:1] @ x))
    assert err.value.condition == "matrix is p×n"


def test_op_norm_sq_refuses_a_map_without_rows_or_columns():
    # Nothing to factor: a named error before any probe or SVD, not an IndexError.
    def probe(v):
        raise AssertionError("no apply may run")

    for a_map in (dense_map(np.zeros((0, 3))), dense_map(np.zeros((3, 0))),
                  LinearMap(forward=probe, adjoint=probe, dims=(3, 0)),
                  LinearMap(forward=probe, adjoint=probe, dims=(0, 3))):
        with pytest.raises(ValidationError, match="no rows or no columns") as err:
            op_norm_sq(a_map)
        assert err.value.condition == "p ≥ 1 and n ≥ 1"


def _dense_residual(a, shift, scale, x, rhs):
    """``rhs - M x`` from the matrix, independent of :func:`solve_spd`'s check."""
    return rhs - (shift * x + scale * (a.T @ (a @ x)))


def test_spd_system_symmetric_and_definite():
    # The closed-form inverse of a symmetric positive definite system is one too.
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, n + 1))
        a = rng.standard_normal((p, n))
        shift = float(rng.uniform(0.1, 5.0))
        scale = float(rng.uniform(0.0, 5.0))
        factor = op_norm_sq(dense_map(a))
        for _ in range(10):
            u, v = rng.standard_normal((2, n))
            gain = factor.gains(shift, scale)
            lhs = float(np.dot(factor.solve(shift, u, gain), v))
            rhs = float(np.dot(u, factor.solve(shift, v, gain)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
            assert float(np.dot(factor.solve(shift, u, gain), u)) > 0.0


def _unscaled_system(n):
    """A map and its factor, for ``shift*Id`` written as a system with ``scale = 0``."""
    a_map = dense_map(np.arange(1.0, n + 1.0)[None, :])
    return a_map, op_norm_sq(a_map)


def test_solve_spd_identity():
    rhs = np.array([1.0, -2.0, 0.5])
    sol = solve_spd(*_unscaled_system(3), 1.0, 0.0, rhs)
    assert np.array_equal(sol.x, rhs)
    assert sol.iterations == 0


def test_solve_spd_diagonal():
    sol = solve_spd(*_unscaled_system(2), 2.0, 0.0, np.array([4.0, 6.0]))
    np.testing.assert_allclose(sol.x, [2.0, 3.0], rtol=0, atol=0)


def test_solve_spd_matches_cholesky_oracle():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 9))
    shift, scale = 1.0 / 0.05, 12.0 / 0.9
    rhs = rng.standard_normal(9)
    a_map = dense_map(a)
    sol = solve_spd(a_map, op_norm_sq(a_map), shift, scale, rhs, tol=1e-13)
    m = shift * np.eye(9) + scale * (a.T @ a)
    chol = np.linalg.cholesky(m)
    x_ref = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    np.testing.assert_allclose(sol.x, x_ref, atol=1e-8)


def test_solve_spd_residual_contract():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 65))
        p = int(rng.integers(1, n + 1))
        a = rng.standard_normal((p, n))
        shift = float(rng.uniform(0.1, 10.0))
        scale = float(rng.uniform(0.0, 5.0))
        a_map = dense_map(a)
        rhs = rng.standard_normal(n)
        tol = 1e-11
        sol = solve_spd(a_map, op_norm_sq(a_map), shift, scale, rhs, tol=tol)
        resid = np.linalg.norm(_dense_residual(a, shift, scale, sol.x, rhs))
        assert resid <= tol * max(1.0, np.linalg.norm(rhs))


def test_solve_spd_requires_the_factor():
    a_map = dense_map(np.ones((2, 3)))
    with pytest.raises(TypeError, match="factor"):
        solve_spd(a_map, shift=1.0, scale=1.0, rhs=np.ones(3))


def _counted(a_map, calls):
    """The same map, matrix-free, appending each apply's name to ``calls``."""
    return LinearMap(forward=lambda x: calls.append("A") or a_map.forward(x),
                     adjoint=lambda y: calls.append("A*") or a_map.adjoint(y),
                     dims=a_map.dims)


def test_solve_spd_refuses_a_nonfinite_rhs_before_any_apply():
    (a_map, factor, shift, scale), rhs = _exact_spectral_system()
    calls = []
    for bad in (np.nan, np.inf, -np.inf):
        rhs_bad = rhs.copy()
        rhs_bad[3] = bad
        with pytest.raises(SpdSolveError, match="right-hand side is not finite") as err:
            solve_spd(_counted(a_map, calls), factor, shift, scale, rhs_bad)
        assert err.value.iterations == 0
    assert calls == []


def test_solve_spd_refuses_nan_parameters_before_any_apply():
    a_map = dense_map(np.eye(2, 3))
    factor = op_norm_sq(a_map)
    calls = []
    for shift, scale, tol in ((np.nan, 1.0, 1e-12), (1.0, np.nan, 1e-12),
                              (1.0, 1.0, np.nan)):
        with pytest.raises(ValueError):
            solve_spd(_counted(a_map, calls), factor, shift, scale, np.ones(3), tol=tol)
    assert calls == []


def test_solve_spd_solves_a_finite_rhs_whose_norm_overflows():
    (a_map, factor, shift, scale), rhs = _exact_spectral_system()
    big = 1e200 * rhs
    with np.errstate(over="ignore"):
        assert not np.isfinite(big.dot(big))
        sol = solve_spd(a_map, factor, shift, scale, big)
    assert np.isfinite(sol.x).all()
    np.testing.assert_allclose(sol.x, 1e200 * solve_spd(a_map, factor, shift, scale, rhs).x,
                               rtol=1e-12)


def test_solve_spd_iteration_budget_error():
    # A target below rounding fails the closed form's residual check, and
    # REFINE_STEPS corrections cannot meet it either.
    rng = np.random.default_rng(4)
    a_map = dense_map(rng.standard_normal((6, 12)))
    with pytest.raises(SpdSolveError) as err:
        solve_spd(a_map, op_norm_sq(a_map), 0.01, 50.0, rng.standard_normal(12),
                  tol=1e-300)
    assert err.value.residual > 0
    assert err.value.iterations == REFINE_STEPS


def _cholesky_solve(m, rhs):
    chol = np.linalg.cholesky(m)
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def test_spectral_factor_shapes_and_norm():
    rng = np.random.default_rng(29)
    for p, n in [(7, 4), (4, 9), (5, 5)]:
        a = rng.standard_normal((p, n))
        factor = op_norm_sq(dense_map(a))
        vt, s2 = factor.vt, factor.s2
        assert vt.shape == (min(p, n), n) and s2.shape == (min(p, n),)
        np.testing.assert_allclose(vt @ vt.T, np.eye(min(p, n)), atol=1e-14)
        assert np.all(np.diff(s2) <= 0.0)
        np.testing.assert_allclose(vt.T @ (s2[:, None] * vt), a.T @ a, atol=1e-12)
        assert s2[0] == pytest.approx(np.linalg.eigvalsh(a.T @ a)[-1], rel=1e-13)
        assert not vt.flags.writeable and not s2.flags.writeable


@pytest.mark.parametrize("p, n, rank", [(4, 9, 4), (9, 4, 4), (6, 12, 3), (12, 6, 2)])
def test_spectral_solve_matches_cholesky_oracle(p, n, rank):
    # Rank-deficient maps leave directions that only the shift acts on.
    rng = np.random.default_rng(100 * p + rank)
    a = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, n))
    a_map = dense_map(a)
    factor = op_norm_sq(a_map)
    assert np.sum(factor.s2 > 1e-12 * factor.s2[0]) == rank
    for _ in range(20):
        shift = float(10.0 ** rng.uniform(-1, 2))
        scale = float(10.0 ** rng.uniform(-2, 2))
        rhs = rng.standard_normal(n)
        x_ref = _cholesky_solve(shift * np.eye(n) + scale * (a.T @ a), rhs)
        np.testing.assert_allclose(factor.solve(shift, rhs, factor.gains(shift, scale)), x_ref,
                                   rtol=0, atol=1e-12 * np.linalg.norm(x_ref))
        rng.standard_normal(n)  # keeps the drawn cases those of earlier versions
        sol = solve_spd(a_map, factor, shift, scale, rhs, tol=1e-12)
        assert sol.residual <= 1e-12 * max(1.0, np.linalg.norm(rhs))
        np.testing.assert_allclose(sol.x, x_ref, rtol=0,
                                   atol=1e-12 * np.linalg.norm(x_ref))


# A "system" below is the leading arguments of solve_spd: (map, factor, shift, scale).

def _inexact_spectral_system():
    """A system whose factor belongs to a nearby matrix, plus its matrix and rhs."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 10))
    nearby = op_norm_sq(dense_map(a + 1e-3 * rng.standard_normal((5, 10))))
    return a, (dense_map(a), nearby, 2.0, 3.0), rng.standard_normal(10)


def test_solve_spd_refines_inexact_spectral_start():
    # A factor of a nearby matrix gives a start that misses the target; each
    # refinement correction contracts the residual by about the factor's
    # relative error, and 5 corrections meet the contract.
    a, system, rhs = _inexact_spectral_system()
    _, _, shift, scale = system
    sol = solve_spd(*system, rhs, tol=1e-12)
    assert sol.iterations == 5
    resid = np.linalg.norm(_dense_residual(a, shift, scale, sol.x, rhs))
    assert resid <= 1e-12 * max(1.0, np.linalg.norm(rhs))
    x_ref = _cholesky_solve(shift * np.eye(10) + scale * (a.T @ a), rhs)
    np.testing.assert_allclose(sol.x, x_ref, atol=1e-10)


def _exact_spectral_system():
    rng = np.random.default_rng(17)
    a_map = dense_map(rng.standard_normal((4, 9)))
    return (a_map, op_norm_sq(a_map), 1.5, 0.7), rng.standard_normal(9)


def _probed_system():
    rng = np.random.default_rng(19)
    free = _matrix_free(dense_map(rng.standard_normal((4, 9))))
    return (free, op_norm_sq(free), 1.5, 0.7), rng.standard_normal(9)


@pytest.mark.parametrize("path, make, refined", [
    ("accepted spectral start", _exact_spectral_system, False),
    ("refined spectral start", lambda: _inexact_spectral_system()[1:], True),
    ("probed", _probed_system, False),
])
def test_solve_spd_returns_exact_image(path, make, refined):
    system, rhs = make()
    sol = solve_spd(*system, rhs, tol=1e-12)
    assert (sol.iterations > 0) == refined, path
    assert sol.ax.tobytes() == system[0].forward(sol.x).tobytes()
    assert sol.atax.tobytes() == system[0].adjoint(sol.ax).tobytes()
    # started gets the closed form before any apply, and no correction
    # writes to the array it was handed
    calls, handed = [], []
    again = solve_spd(_counted(system[0], calls), *system[1:], rhs, tol=1e-12,
                      started=lambda x: handed.append((x, x.copy(), len(calls))))
    (x0, at_hand_over, applied), = handed
    factor, shift, scale = system[1:]
    assert applied == 0
    assert x0.tobytes() == at_hand_over.tobytes()
    assert x0.tobytes() == factor.solve(shift, rhs, factor.gains(shift, scale)).tobytes()
    assert again.x.tobytes() == sol.x.tobytes() and (again.x is x0) == (not refined)


def test_all_finite_keeps_its_meaning():
    with np.errstate(over="ignore", invalid="ignore"):
        big = np.array([1e308, 1e308, -1e308])
        assert not np.isfinite(big.sum())  # the sum overflows, the entries do not
        assert all_finite(big)
        for bad in ([np.inf, -np.inf], [np.nan], [1.0, np.inf]):
            assert not all_finite(np.array(bad)), bad
    assert all_finite(np.arange(5.0))
    assert all_finite(np.zeros(0))


def test_all_finite_on_a_matrix_uses_the_sum():
    with np.errstate(over="ignore", invalid="ignore"):
        big = np.full((2, 3), 1e308)
        assert not np.isfinite(big.sum())  # the sum overflows, the entries do not
        assert all_finite(big)
        for bad in (np.nan, np.inf, -np.inf):
            m = np.ones((2, 3))
            m[1, 2] = bad
            assert not all_finite(m), bad

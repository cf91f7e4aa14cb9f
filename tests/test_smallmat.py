"""Matrix-kernel tests: trivial identities, independent oracles, invariants.

Oracles used here are deliberately primitive: a truncated Taylor series for
the exponential, cofactor expansion for small inverses, closed-form 2x2
eigenvalues, and the quadrature route cross-checking the Kronecker solve.
Stacked (n, d, d) calls are checked bit for bit against per-matrix calls,
and each piece the kernels assemble by hand (Kronecker system, symmetry
test, condition number, Frobenius norm, symmetric eigenvalues) against the
numpy routine it stands in for.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smallmass.errors import ConditionError, StabilityError, ValidationError
from smallmass.smallmat import (
    MAX_DIM,
    LyapunovSolution,
    _frobenius,
    _is_symmetric,
    _kronecker_system,
    _mT,
    _stationary_covariance,
    _symmetric_eigenvalues,
    _worst_condition,
    expm,
    invert,
    min_symmetric_eigenvalue,
    solve_lyapunov,
)

from lyapunov_oracle import lyapunov_quadrature


def taylor_expm(M, terms=30):
    """30-term Taylor oracle, adequate to 1e-12 for ||M|| <= 1."""
    M = np.asarray(M, dtype=float)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ M / k
        out = out + term
    return out


def adjugate_inverse(A):
    """Cofactor-expansion inverse for d <= 3."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if d == 1:
        return np.array([[1.0 / A[0, 0]]])
    det = np.linalg.det(A)
    cof = np.empty_like(A)
    for i in range(d):
        for j in range(d):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return cof.T / det


def random_stable(rng, d, margin=0.3):
    """Random A whose symmetric part is positive definite by at least margin."""
    A = rng.standard_normal((d, d))
    lam = np.linalg.eigvalsh(0.5 * (A + A.T))[0]
    return A + (abs(lam) + margin) * np.eye(d)


# ---------------------------------------------------------------- expm


def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    a = np.array([0.3, -1.2, 2.0])
    out = expm(np.diag(a))
    assert np.allclose(out, np.diag(np.exp(a)), rtol=1e-13, atol=0)


def test_expm_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.standard_normal((3, 3))
        M *= 1.0 / max(1.0, np.linalg.norm(M, 2))
        assert np.max(np.abs(expm(M) - taylor_expm(M))) <= 1e-12


def test_expm_rejects_nonfinite():
    with pytest.raises(ValidationError):
        expm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def diagonal_stack(rng, lead, d):
    """Diagonal (*lead, d, d) matrices: -0.0 at random off-diagonal places,
    diagonals spanning exp's underflow, -0.0, 0.0 and moderate values."""
    M = np.where(rng.random(lead + (d, d)) < 0.5, -0.0, 0.0)
    pool = np.array([-800.0, -30.0, -1.5, -0.0, 0.0, 1e-300, 0.7, 3.0])
    diag = np.where(
        rng.random(lead + (d,)) < 0.3,
        rng.choice(pool, lead + (d,)),
        rng.uniform(-5.0, 5.0, lead + (d,)),
    )
    np.einsum("...ii->...i", M)[...] = diag
    return M


def count_scipy_expm(monkeypatch):
    """Counter of scipy.linalg.expm calls, which still run."""
    calls = []
    direct = scipy.linalg.expm

    def counted(*args, **kwargs):
        calls.append(1)
        return direct(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls


@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
@pytest.mark.parametrize("lead", [(), (1,), (7,), (2, 3), (2, 1, 4)])
def test_expm_of_a_diagonal_stack_is_scipys_bits_without_scipy(d, lead, monkeypatch):
    M = diagonal_stack(np.random.default_rng(10 * d + len(lead)), lead, d)
    expected = scipy.linalg.expm(M)
    calls = count_scipy_expm(monkeypatch)
    got = expm(M)
    assert calls == []
    assert got.shape == expected.shape == M.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_expm_sends_a_mixed_stack_to_scipy_whole(monkeypatch):
    rng = np.random.default_rng(12)
    M = diagonal_stack(rng, (6,), 3)
    M[1, 0, 2] = 0.4  # upper triangular
    M[3, 2, 1] = -1.1  # lower triangular
    M[4] = rng.standard_normal((3, 3))  # full
    # one nonzero off the diagonal anywhere sends the whole stack
    N = diagonal_stack(rng, (4, 5), 2)
    N[3, 4, 1, 0] = 1e-300
    for stack in (M, N):
        expected = scipy.linalg.expm(stack)
        calls = count_scipy_expm(monkeypatch)
        got = expm(stack)
        monkeypatch.undo()
        assert len(calls) == 1
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
    st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
    st.integers(0, 10_000),
)
def test_expm_commuting_product(diag_a, diag_b, seed):
    # simultaneously diagonalizable pair: exp(A+B) = exp(A) exp(B)
    d = min(len(diag_a), len(diag_b))
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = basis @ np.diag(diag_a[:d]) @ basis.T
    B = basis @ np.diag(diag_b[:d]) @ basis.T
    lhs = expm(A + B)
    rhs = expm(A) @ expm(B)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_expm_norm_decay_for_stable_A():
    # computational face of the exp(-lambda t) velocity-damping bound:
    # for sym(A) >= lambda I the norm of expm(-A t) decays monotonically
    rng = np.random.default_rng(11)
    A = random_stable(rng, 4, margin=0.5)
    ts = np.logspace(-2, 1.2, 12)
    norms = [np.linalg.norm(expm(-A * t), 2) for t in ts]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
    lam = min_symmetric_eigenvalue(A)
    # log-slope at the tail should be at least as steep as -lambda
    assert norms[-1] <= np.exp(-lam * ts[-1]) * 10.0


# ------------------------------------------- min_symmetric_eigenvalue


def test_min_sym_eig_identity():
    assert min_symmetric_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_min_sym_eig_diagonal():
    assert min_symmetric_eigenvalue(np.diag([2.0, 5.0])) == pytest.approx(2.0)


def test_min_sym_eig_nonsymmetric_closed_form():
    # [[2,1],[0,2]] has symmetric part [[2,.5],[.5,2]]; eigenvalues 2 +- 1/2
    val = min_symmetric_eigenvalue(np.array([[2.0, 1.0], [0.0, 2.0]]))
    assert val == pytest.approx(1.5, abs=1e-12)


# ---------------------------------------------------------------- invert


def test_invert_identity():
    assert np.allclose(invert(np.eye(4)), np.eye(4), atol=1e-14)


def test_invert_diagonal():
    out = invert(np.diag([2.0, 4.0]))
    assert np.allclose(out, np.diag([0.5, 0.25]), atol=1e-14)


def test_invert_adjugate_oracle():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        for _ in range(10):
            A = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
            assert np.allclose(invert(A), adjugate_inverse(A), rtol=1e-9, atol=1e-11)


def test_invert_rejects_singular():
    with pytest.raises(ConditionError) as err:
        invert(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert err.value.cond is None or err.value.cond >= 1e12 or not np.isfinite(err.value.cond)


# ------------------------------------------------------------- Lyapunov


def test_lyapunov_scalar():
    sol = solve_lyapunov(np.array([[2.0]]), np.array([[1.0]]))
    assert sol.J[0, 0] == pytest.approx(0.25, abs=1e-14)
    assert sol.residual <= 1e-10 * 2.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stationary_covariance_solves_the_lyapunov_equation(d):
    # sigma^2 / (2a) in 1D, the stacked Kronecker solve itself in d > 1
    rng = np.random.default_rng(40 + d)
    A = np.stack([random_stable(rng, d) for _ in range(5)])
    sig = rng.standard_normal((5, d, d))
    J = _stationary_covariance(A, sig)
    assert J.shape == (5, d, d)
    ref = solve_lyapunov(A, sig @ _mT(sig)).J
    if d == 1:
        assert np.array_equal(J, sig**2 / (2.0 * A))
        assert np.allclose(J, ref, rtol=1e-14, atol=0.0)
    else:
        assert np.array_equal(J, ref)


def test_lyapunov_commuting_identity():
    sol = solve_lyapunov(np.eye(3), 2.0 * np.eye(3))
    assert np.allclose(sol.J, np.eye(3), atol=1e-12)


def test_lyapunov_quadrature_scalar():
    out = lyapunov_quadrature(np.array([[2.0]]), np.array([[1.0]]))
    assert abs(out[0, 0] - 0.25) <= 1e-8


def test_lyapunov_quadrature_zero_Q():
    out = lyapunov_quadrature(np.eye(2), np.zeros((2, 2)))
    assert np.array_equal(out, np.zeros((2, 2)))


def test_lyapunov_cross_oracle_random_instances():
    # direct Kronecker solve vs integral quadrature, 100 instances d in 1..4
    rng = np.random.default_rng(42)
    for k in range(100):
        d = 1 + k % 4
        A = random_stable(rng, d)
        sigma = rng.standard_normal((d, d))
        Q = sigma @ sigma.T
        sol = solve_lyapunov(A, Q)
        assert sol.residual <= 1e-10 * (1.0 + np.linalg.norm(Q))
        ref = lyapunov_quadrature(A, Q)
        assert np.max(np.abs(sol.J - ref)) <= 1e-6


def test_lyapunov_symmetry_and_psd():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = rng.integers(1, 5)
        A = random_stable(rng, d)
        sigma = rng.standard_normal((d, d))
        Q = sigma @ sigma.T
        sol = solve_lyapunov(A, Q)
        assert np.max(np.abs(sol.J - sol.J.T)) <= 1e-12
        assert np.linalg.eigvalsh(sol.J)[0] >= -1e-12


def test_lyapunov_rejects_unstable():
    with pytest.raises(StabilityError):
        solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
    with pytest.raises(StabilityError):
        lyapunov_quadrature(np.array([[0.0]]), np.array([[1.0]]))


def test_lyapunov_solution_type():
    sol = solve_lyapunov(np.eye(2), np.eye(2))
    assert isinstance(sol, LyapunovSolution)
    assert isinstance(sol.residual, float)


# ------------------------------------------------------ stacks of matrices


def random_stack(rng, n, d):
    """n stable matrices A and symmetric Q = S S^T, stacked as (n, d, d)."""
    A = np.stack([random_stable(rng, d) for _ in range(n)])
    S = rng.standard_normal((n, d, d))
    return A, S @ np.swapaxes(S, -1, -2)


stacks = given(st.integers(1, MAX_DIM), st.integers(1, 5), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@stacks
def test_stacked_kernels_equal_per_matrix_calls(d, n, seed):
    # a stack call must return the bits of one call per matrix
    rng = np.random.default_rng(seed)
    A, Q = random_stack(rng, n, d)
    assert np.array_equal(expm(-A), np.stack([expm(-a) for a in A]))
    assert np.array_equal(invert(A), np.stack([invert(a) for a in A]))
    assert min_symmetric_eigenvalue(A) == min(min_symmetric_eigenvalue(a) for a in A)
    mixed = Q.copy()
    mixed[0] = rng.standard_normal((d, d))  # only the symmetric Q are symmetrized
    for rhs in (Q, rng.standard_normal((n, d, d)), mixed):
        sol = solve_lyapunov(A, rhs)
        singles = [solve_lyapunov(a, q) for a, q in zip(A, rhs)]
        assert np.array_equal(sol.J, np.stack([s.J for s in singles]))
        assert isinstance(sol.residual, float)
        assert sol.residual == max(s.residual for s in singles)


@settings(max_examples=20, deadline=None)
@stacks
def test_nested_stack_equals_flat_stack(d, n, seed):
    rng = np.random.default_rng(seed)
    A, Q = random_stack(rng, 2 * n, d)
    nested = (2, n, d, d)
    sol = solve_lyapunov(A.reshape(nested), Q.reshape(nested))
    assert np.array_equal(sol.J.reshape(A.shape), solve_lyapunov(A, Q).J)
    assert np.array_equal(expm(A.reshape(nested)).reshape(A.shape), expm(A))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, MAX_DIM), st.integers(1, 5), st.integers(0, 4),
    st.integers(0, 2**32 - 1),
)
def test_stack_with_one_bad_matrix_is_rejected(d, n, which, seed):
    rng = np.random.default_rng(seed)
    A, Q = random_stack(rng, n, d)
    which %= n
    unstable = A.copy()
    unstable[which] = -unstable[which]  # symmetric part negative definite
    assert min_symmetric_eigenvalue(unstable) < 0.0
    with pytest.raises(StabilityError):
        solve_lyapunov(unstable, Q)
    singular = A.copy()
    singular[which, :, 0] = 0.0
    with pytest.raises(ConditionError):
        invert(singular)


def test_invert_reports_worst_condition_in_stack():
    A = np.stack([np.eye(2), np.diag([1.0, 1e-14]), np.diag([1.0, 1e-13])])
    with pytest.raises(ConditionError) as err:
        invert(A)
    assert err.value.cond == pytest.approx(1e14, rel=1e-12)


@pytest.mark.parametrize(
    "shape", [(3, 2, 3), (4,), (2, MAX_DIM + 1, MAX_DIM + 1)],
    ids=["not-square", "vector", "too-large"],
)
def test_stack_shapes_rejected(shape):
    M = np.ones(shape)
    for kernel in (expm, invert, min_symmetric_eigenvalue):
        with pytest.raises(ValidationError):
            kernel(M)
    with pytest.raises(ValidationError):
        solve_lyapunov(M, M)


def test_quadrature_rejects_stacks():
    with pytest.raises(ValidationError):
        lyapunov_quadrature(np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 3))


# ------------------------------------- hand-assembled pieces vs numpy


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: unlike ==, tells -0.0 from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def numpy_kronecker_system(A):
    d = A.shape[-1]
    return np.kron(A, np.eye(d)) + np.kron(np.eye(d), A)


def numpy_is_symmetric(Q):
    qscale = np.linalg.norm(Q, axis=(-2, -1), keepdims=True)
    close = np.isclose(Q, _mT(Q), rtol=1e-12, atol=1e-12 * (1.0 + qscale))
    return np.all(close, axis=(-2, -1), keepdims=True)


def numpy_worst_condition(A) -> float:
    return float(np.max(np.linalg.cond(A)))


def numpy_solve_lyapunov(A, Q):
    """The Kronecker solve written with the numpy wrappers throughout."""
    d = A.shape[-1]
    J = np.linalg.solve(
        numpy_kronecker_system(A), Q.reshape(Q.shape[:-2] + (d * d, 1))
    ).reshape(Q.shape)
    J = np.where(numpy_is_symmetric(Q), 0.5 * (J + _mT(J)), J)
    residual = np.linalg.norm(A @ J + J @ _mT(A) - Q, axis=(-2, -1))
    return J, float(np.max(residual))


@st.composite
def float_stacks(draw, elements=st.floats(-1e3, 1e3)):
    """(n, d, d) stacks, d in 1..MAX_DIM and n in 1..5, signed zeros included."""
    d = draw(st.integers(1, MAX_DIM))
    n = draw(st.integers(1, 5))
    return draw(arrays(np.float64, (n, d, d), elements=elements))


@settings(max_examples=100, deadline=None)
@given(float_stacks(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3)))
def test_kronecker_system_equals_np_kron(A):
    n, d = A.shape[:2]
    system = _kronecker_system(A).reshape(n, d * d, d * d)
    assert same_bits(system, numpy_kronecker_system(A))
    assert same_bits(_kronecker_system(A[0]).reshape(d * d, d * d),
                     numpy_kronecker_system(A[0]))


@settings(max_examples=100, deadline=None)
@given(float_stacks(), st.lists(st.integers(0, 4), max_size=5))
def test_symmetry_decision_equals_np_isclose(S, asymmetric):
    # a mixed stack: symmetric Q, with some matrices made asymmetric
    Q = S @ _mT(S)
    for k in asymmetric:
        Q[k % len(Q), 0, -1] += 1.0
    assert same_bits(_is_symmetric(Q), numpy_is_symmetric(Q))
    assert same_bits(_is_symmetric(Q[0]), numpy_is_symmetric(Q[0]))


@settings(max_examples=100, deadline=None)
@given(float_stacks(st.floats(-10.0, 10.0)), st.integers(-3, 3))
def test_symmetry_decision_at_the_tolerance(S, ulps):
    # push entry (0, d-1) off its mirror by the tolerance, give or take ulps
    Q = S @ _mT(S)
    d = Q.shape[-1]
    for q in Q:
        atol = 1e-12 * (1.0 + np.linalg.norm(q))
        gap = atol + 1e-12 * abs(q[d - 1, 0])
        for _ in range(abs(ulps)):
            gap = np.nextafter(gap, np.inf if ulps > 0 else 0.0)
        q[0, d - 1] = q[d - 1, 0] + gap
    assert same_bits(_is_symmetric(Q), numpy_is_symmetric(Q))


def test_symmetry_decision_flips_where_isclose_does():
    # Q = [[0, g], [0, 0]] counts as symmetric iff g <= 1e-12 (1 + ||Q||_F)
    g = 1e-12 * (1.0 + 1e-12)
    for _ in range(4):
        g = np.nextafter(g, 0.0)
    decisions = []
    for _ in range(9):
        Q = np.array([[0.0, g], [0.0, 0.0]])
        decided = bool(_is_symmetric(Q)[0, 0])
        assert decided == bool(numpy_is_symmetric(Q)[0, 0])
        decisions.append(decided)
        g = np.nextafter(g, np.inf)
    assert decisions == sorted(decisions, reverse=True)
    assert True in decisions and False in decisions


@settings(max_examples=100, deadline=None)
@given(float_stacks())
def test_worst_condition_equals_np_linalg_cond(A):
    assert _worst_condition(A) == numpy_worst_condition(A)
    assert _worst_condition(A[0]) == numpy_worst_condition(A[0])


@pytest.mark.parametrize(
    "M",
    [
        np.zeros((2, 2)),
        np.zeros((1, 1)),
        np.diag([1.0, 0.0]),
        np.array([[1.0, 0.0], [2.0, 0.0]]),
        np.array([[1.0, 2.0], [0.0, 0.0]]),
        np.stack([np.eye(2), np.zeros((2, 2)), np.diag([2.0, 3.0])]),
    ],
    ids=["zero", "zero-1x1", "diag", "zero-column", "zero-row", "zero-in-stack"],
)
def test_singular_matrices_have_infinite_condition(M):
    # 0/0 (zero matrix) and s/0 (exactly singular) both read as inf
    assert numpy_worst_condition(M) == np.inf
    assert _worst_condition(M) == np.inf
    with pytest.raises(ConditionError) as err:
        invert(M)
    assert err.value.cond == np.inf


@settings(max_examples=100, deadline=None)
@given(float_stacks())
def test_frobenius_equals_np_linalg_norm(M):
    for m in (M, _mT(M), M[0]):
        assert same_bits(_frobenius(m), np.linalg.norm(m, axis=(-2, -1)))
        assert same_bits(
            _frobenius(m, keepdims=True),
            np.linalg.norm(m, axis=(-2, -1), keepdims=True),
        )


def assert_eigenvalues_match_eigvalsh(A):
    with np.errstate(over="ignore"):  # A + A^T may overflow to inf
        expected = np.linalg.eigvalsh(0.5 * (A + _mT(A)))
        assert same_bits(_symmetric_eigenvalues(A), expected)
        assert min_symmetric_eigenvalue(A) == float(np.min(expected[..., 0]))


@settings(max_examples=100, deadline=None)
@given(float_stacks(st.floats(-1e300, 1e300) | st.floats(-1e3, 1e3)))
def test_symmetric_eigenvalues_equal_eigvalsh(A):
    assert_eigenvalues_match_eigvalsh(A)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 50), st.just(1), st.just(1)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_symmetric_eigenvalue_of_1x1_equals_eigvalsh(A):
    # the whole finite range: subnormals, signed zeros, entries whose double
    # overflows in the symmetric part
    assert_eigenvalues_match_eigvalsh(A)


@settings(max_examples=60, deadline=None)
@stacks
def test_solve_lyapunov_equals_numpy_wrapper_route(d, n, seed):
    rng = np.random.default_rng(seed)
    A, Q = random_stack(rng, n, d)
    mixed = Q.copy()
    mixed[0] = rng.standard_normal((d, d))
    for rhs in (Q, rng.standard_normal((n, d, d)), mixed, _mT(mixed)):
        sol = solve_lyapunov(A, rhs)
        J, residual = numpy_solve_lyapunov(A, rhs)
        assert same_bits(sol.J, J)
        assert sol.residual == residual
    single = solve_lyapunov(A[0], Q[0])
    J, residual = numpy_solve_lyapunov(A[0], Q[0])
    assert same_bits(single.J, J) and single.residual == residual

"""Observable tests: weak-form oracles, transport distances, diagnostics."""

import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec
from scipy.linalg import expm, expm_frechet, inv

from smallmass.ensemble import (
    NoiseStream,
    OverdampedEnsemble,
    UnderdampedEnsemble,
    conv_phi,
    mean_field_coefficients,
)
from smallmass.errors import ValidationError
from smallmass.model import (
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
    make_gaussian_interaction_2d,
    make_quadratic_ou,
    make_state_dep_friction_1d,
)
from smallmass import observables
from smallmass.observables import (
    TestFunction,
    WeakGapReport,
    WeakGapRow,
    _Frozen,
    _frozen_coefficients,
    bump_test_functions,
    energy_diagnostic,
    gap_row,
    holder_diagnostic,
    paired_gap_stderr,
    w2_1d,
    w2_exact,
    w2_sliced,
    weak_gap_rows,
    weak_momentum,
    weak_Yhat,
    weak_Ystar,
    ystar_summands,
)
from smallmass.overdamped import _d_friction_at
from smallmass.smallmat import invert, solve_lyapunov


def identity_psi():
    return TestFunction(
        dim=1,
        value=lambda x: np.asarray(x, dtype=float),
        gradient=lambda x: np.ones(np.asarray(x).shape[:-1] + (1, 1)),
        lip_norm_hint=1.0,
    )


def constant_psi():
    return TestFunction(
        dim=1,
        value=lambda x: np.ones(np.asarray(x).shape[:-1] + (1,)),
        gradient=lambda x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
        lip_norm_hint=0.0,
    )


def affine_gamma_spec(sigma=1.0, k=0.0):
    def gamma(x):
        s = np.asarray(x, dtype=float)[..., 0]
        return (2.0 + s)[..., None, None]

    def d_gamma(x):
        s = np.asarray(x, dtype=float)[..., 0]
        return np.ones_like(s)[..., None, None, None]

    return ModelSpec(
        dim=1,
        grad_V=LinearVectorField(k) if k else ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField([[0.0]]),
        gamma=gamma,
        d_gamma=d_gamma,
        sigma=ConstantMatrixField([[sigma]]),
        classical_sk=True,
    )


def ud_state(x, v, epsilon=0.1, t=0.0):
    return UnderdampedEnsemble(
        epsilon=epsilon, t=t, positions=np.asarray(x, float), velocities=np.asarray(v, float)
    )


# -------------------------------------------------------------- test functions


def test_weak_momentum_values():
    psi = identity_psi()
    st = ud_state([[0.0], [1.0]], [[0.0], [0.0]])
    assert weak_momentum(st, psi) == 0.0
    st = ud_state([[0.0], [1.0]], [[1.0], [-2.0]])
    assert weak_momentum(st, psi) == pytest.approx(-1.0, abs=1e-16)
    assert weak_momentum(st, constant_psi()) == pytest.approx(-0.5, abs=1e-16)


def test_gradient_consistency_enforced():
    with pytest.raises(ValidationError, match="gradient"):
        TestFunction(
            dim=1,
            value=lambda x: np.asarray(x) ** 2,
            gradient=lambda x: np.ones(np.asarray(x).shape[:-1] + (1, 1)),
            lip_norm_hint=1.0,
        )


def test_bump_family():
    psis = bump_test_functions(dim=1, centers=(-1.0, 0.0, 1.0), radius=1.0)
    assert len(psis) == 3
    b = psis[1]
    assert b.value_at(np.array([[0.0]]))[0, 0] == pytest.approx(np.exp(-1.0))
    assert np.all(b.value_at(np.array([[1.5], [-2.0]])) == 0.0)
    assert np.all(b.gradient_at(np.array([[1.5]])) == 0.0)
    # closed-form gradient vs central differences inside the support
    x = np.array([[0.3], [-0.7], [0.95]])
    h = 1e-6
    fd = (b.value_at(x + h) - b.value_at(x - h)) / (2 * h)
    assert np.allclose(b.gradient_at(x)[:, :, 0], fd, atol=1e-8)
    b2 = bump_test_functions(dim=2, centers=((0.5, -0.5),), radius=2.0)[0]
    g = b2.gradient_at(np.array([0.6, -0.1]))
    assert g.shape == (2, 2)
    assert np.allclose(g[0], g[1])  # components share the scalar bump


# ------------------------------------------------------------------- Y star


def test_ystar_zero_without_force_and_noise():
    spec = affine_gamma_spec(sigma=0.0)
    pos = np.array([[0.2], [-0.3], [1.0]])
    assert weak_Ystar(pos, spec, bump_test_functions()[1]) == 0.0


def test_ystar_linear_psi_hand_value():
    # constant A=2, sigma=1, psi(x)=x: J=1/4, term = J * (1/a) = 1/8
    spec = make_quadratic_ou(k=0.0)
    pos = np.array([[0.4], [-1.2], [0.0], [2.0], [0.7]])
    assert weak_Ystar(pos, spec, identity_psi()) == pytest.approx(0.125, rel=1e-15)


def test_ystar_gaussian_grid_quadrature_oracle():
    spec = make_state_dep_friction_1d()
    psi = bump_test_functions(dim=1, centers=(0.0,), radius=1.5)[0]
    stream = NoiseStream(77)
    pos = stream.block(9, 0, 20_000)[:, :1]
    particle = weak_Ystar(pos, spec, psi)

    x = np.linspace(-8.0, 8.0, 2000)
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    a = 2.0 + x / (1.0 + x * x) + 0.5
    da = (1.0 - x * x) / (1.0 + x * x) ** 2
    j = 1.0 / (2.0 * a)
    pv = psi.value_at(x[:, None])[:, 0]
    pg = psi.gradient_at(x[:, None])[:, 0, 0]
    integrand = pdf * j * (pg / a - pv * da / (a * a))
    grid = np.trapezoid(integrand, x)
    assert particle == pytest.approx(grid, abs=1e-3)


def test_ystar_2d_runs_and_matches_1d_embedding():
    # diagonal 2D problem with a psi living on the first axis only
    spec2 = ModelSpec(
        dim=2,
        grad_V=LinearVectorField(1.0),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(0.5 * np.eye(2)),
        gamma=ConstantMatrixField(1.5 * np.eye(2)),
        sigma=ConstantMatrixField(np.eye(2)),
        lambda_phi_hint=0.5,
    )

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 0], np.zeros_like(x[..., 1])], axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        return g

    psi2 = TestFunction(dim=2, value=value, gradient=gradient, lip_norm_hint=1.0)
    rng = np.random.default_rng(5)
    pos2 = rng.normal(size=(60, 2))
    spec1 = make_quadratic_ou()
    got = weak_Ystar(pos2, spec2, psi2)
    want = weak_Ystar(pos2[:, :1], spec1, identity_psi())
    assert got == pytest.approx(want, rel=1e-12)


def ystar_summands_loop(X, spec, psi):
    """One-particle-at-a-time reference for the d > 1 Y* summands."""
    A, F = mean_field_coefficients(X, spec)
    sig = spec.sigma_at(X)
    dA = _d_friction_at(X, X, spec)
    P, G = psi.value_at(X), psi.gradient_at(X)
    n, d = X.shape
    out = np.empty(n)
    for i in range(n):
        Ainv = invert(A[i])
        J = solve_lyapunov(A[i], sig[i] @ sig[i].T).J
        Gg = np.empty((d, d))
        for k in range(d):
            dAinvT = -(Ainv @ dA[i, :, :, k] @ Ainv).T
            Gg[:, k] = dAinvT @ P[i] + Ainv.T @ G[i, :, k]
        out[i] = -P[i] @ (Ainv @ F[i]) + np.einsum("mk,mk->", J, Gg)
    return out


def test_ystar_summands_equal_per_particle_loop():
    # the stacked matrix path must return the loop's bits
    spec = make_gaussian_interaction_2d()
    X = np.random.default_rng(8).normal(size=(40, 2))
    for psi in bump_test_functions(dim=2, radius=1.5):
        got = ystar_summands(X, spec, psi)
        assert np.array_equal(got, ystar_summands_loop(X, spec, psi))


# ---------------------------------------------------------------------- Yhat


def test_yhat_at_slice_origin_equals_momentum():
    spec = make_quadratic_ou()
    rng = np.random.default_rng(11)
    st = ud_state(rng.normal(size=(30, 1)), rng.normal(size=(30, 1)), epsilon=0.05, t=0.7)
    psi = bump_test_functions()[1]
    assert weak_Yhat(st, 0.7, 0.7, spec, psi) == weak_momentum(st, psi)


def test_yhat_pure_decay_1d():
    spec = affine_gamma_spec(sigma=0.0)
    rng = np.random.default_rng(3)
    X = 0.5 * rng.normal(size=(25, 1))
    V = rng.normal(size=(25, 1))
    st = ud_state(X, V, epsilon=0.1)
    psi = bump_test_functions()[1]
    t = 0.12
    a = 2.0 + X[:, 0]
    hand = np.mean(V[:, 0] * np.exp(-a * t / 0.1) * psi.value_at(X)[:, 0])
    assert weak_Yhat(st, t, 0.0, spec, psi) == pytest.approx(hand, rel=1e-12)


def test_yhat_pure_decay_matrix_path():
    spec = ModelSpec(
        dim=2,
        grad_V=ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(0.5 * np.eye(2)),
        gamma=ConstantMatrixField(1.5 * np.eye(2)),
        sigma=ConstantMatrixField(np.zeros((2, 2))),
        lambda_phi_hint=0.5,
    )
    rng = np.random.default_rng(8)
    st = ud_state(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)), epsilon=0.2)
    psi = bump_test_functions(dim=2, centers=(0.0,), radius=3.0)[0]
    t = 0.3
    hand = np.exp(-2.0 * t / 0.2) * weak_momentum(st, psi)
    assert weak_Yhat(st, t, 0.0, spec, psi) == pytest.approx(hand, rel=1e-10)


def test_yhat_closed_form_time_integrals():
    # 1D: term (iii) has closed antiderivatives; weak_Yhat must match them
    spec = affine_gamma_spec(sigma=1.0, k=0.8)
    rng = np.random.default_rng(21)
    X = 0.5 * rng.normal(size=(40, 1))
    V = rng.normal(size=(40, 1))
    eps = 0.1
    st = ud_state(X, V, epsilon=eps)
    psi = bump_test_functions()[1]
    t = 0.15
    c = t / eps
    a = 2.0 + X[:, 0]
    f = 0.8 * X[:, 0]
    j = 1.0 / (2.0 * a)
    pv = psi.value_at(X)[:, 0]
    pg = psi.gradient_at(X)[:, 0, 0]
    E = np.exp(-a * c)
    i0 = (1.0 - E) / a
    i1 = (1.0 - E * (1.0 + a * c)) / (a * a)
    hand = (
        np.mean(V[:, 0] * E * pv)
        - np.mean(f * i0 * pv)
        + np.mean(j * (pg * i0 - pv * i1))  # a' = 1
    )
    assert weak_Yhat(st, t, 0.0, spec, psi) == pytest.approx(hand, abs=1e-7)


def test_yhat_long_slice_approaches_ystar():
    spec = make_quadratic_ou()
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 1))
    V = rng.normal(size=(300, 1))
    st = ud_state(X, V, epsilon=0.05)
    psi = bump_test_functions()[1]
    yhat = weak_Yhat(st, 0.5, 0.0, spec, psi)
    ystar = weak_Ystar(X, spec, psi)
    assert yhat == pytest.approx(ystar, abs=1e-6)


def test_yhat_2d_fd_oracle():
    # recompute all three terms with finite-difference grad of g_s and a
    # dense fixed quadrature, differentiating through the convolution too
    spec = make_gaussian_interaction_2d()
    rng = np.random.default_rng(17)
    X = 0.4 * rng.normal(size=(5, 2))
    V = rng.normal(size=(5, 2))
    eps = 0.1
    st = ud_state(X, V, epsilon=eps)
    psi = bump_test_functions(dim=2, centers=(0.0,), radius=2.5)[0]
    t = 0.12
    c = t / eps
    got = weak_Yhat(st, t, 0.0, spec, psi)

    from smallmass.smallmat import invert, solve_lyapunov

    A, F = mean_field_coefficients(X, spec)
    sig = spec.sigma_at(X)

    def a_at(x):
        return spec.gamma_at(x) + conv_phi(x, X, spec)

    def g_s(x, u):
        return expm(-a_at(x).T * u) @ psi.value_at(x)

    nodes, weights = np.polynomial.legendre.leggauss(64)
    nodes = 0.5 * c * (nodes + 1.0)
    weights = 0.5 * c * weights
    total = 0.0
    h = 1e-6
    for i in range(5):
        E = expm(-A[i] * c)
        B = invert(A[i]) @ (np.eye(2) - E)
        total += V[i] @ (E.T @ psi.value_at(X[i]))
        total -= F[i] @ (B.T @ psi.value_at(X[i]))
        J = solve_lyapunov(A[i], sig[i] @ sig[i].T).J
        acc = 0.0
        for u, w in zip(nodes, weights):
            G = np.empty((2, 2))
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                G[:, k] = (g_s(X[i] + e, u) - g_s(X[i] - e, u)) / (2 * h)
            acc += w * np.einsum("mk,mk->", J, G)
        total += acc
    assert got == pytest.approx(total / 5, abs=1e-6)


def test_gap_rows_yhat_from_anchor_coefficients():
    # weak_gap_rows freezes the anchor once per row; Yhat keeps its bits
    spec = make_gaussian_interaction_2d()
    rng = np.random.default_rng(9)
    x, v = rng.normal(size=(2, 2, 30, 2))
    anchor = UnderdampedEnsemble(0.1, 0.5, x[0], v[0])
    later = UnderdampedEnsemble(0.1, 0.52, x[1], v[1])
    psis = bump_test_functions(dim=2, radius=1.5)
    for state in (later, anchor):
        rows = weak_gap_rows(state, spec, psis, anchor=anchor)
        for row, psi in zip(rows, psis):
            assert row.Yhat == weak_Yhat(anchor, state.t, anchor.t, spec, psi)
    assert rows[0].Yhat == weak_momentum(anchor, psis[0])


def frozen_slice(A, F, dA, J, V, X):
    """Frozen coefficients of a slice start at t = 0 with eps = 1, so that
    weak_Yhat at time c integrates over [0, c]."""
    state = UnderdampedEnsemble(1.0, 0.0, X, V)
    return _Frozen(state, X, A, F, dA, J, None)


def linear_psi(W, b):
    W, b = np.asarray(W, float), np.asarray(b, float)
    return TestFunction(
        dim=len(b),
        value=lambda x: np.asarray(x, dtype=float) @ W.T + b,
        gradient=lambda x: np.broadcast_to(W, np.asarray(x).shape[:-1] + W.shape),
        lip_norm_hint=float(np.linalg.norm(W, 2)),
    )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")  # roundoff
@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 20.0), st.floats(-12.0, math.log10(50.0)))
@example(a=1.0, log_ac=-12.0)
@example(a=3.0, log_ac=math.log10(50.0))
@example(a=2.5, log_ac=-1.0)  # on the small-x series
@example(a=2.5, log_ac=math.log10(0.25))  # where the series hands over
def test_yhat_1d_time_integrals_match_adaptive_quadrature(a, log_ac):
    # i0 = int_0^c e^{-au} du and i1 = int_0^c u e^{-au} du, each isolated
    # as the whole of Yhat: psi = 1, and only F (for i0) or J da (for i1) set
    c = 10.0**log_ac / a
    A, one, zero = np.full((1, 1, 1), a), np.ones((1, 1)), np.zeros((1, 1))
    dA = np.ones((1, 1, 1, 1))
    ones = constant_psi()
    i0 = weak_Yhat(frozen_slice(A, -one, dA, 0.0 * A, zero, zero), c, 0.0, None, ones)
    i1 = weak_Yhat(frozen_slice(A, zero, -dA, A / a, zero, zero), c, 0.0, None, ones)
    for got, f in ((i0, lambda u: np.exp(-a * u)), (i1, lambda u: u * np.exp(-a * u))):
        # quad's floor on epsrel with epsabs = 0 is 50 ulp, 1.11e-14
        want = quad(f, 0.0, c, epsrel=1.2e-14, epsabs=0.0, limit=200)[0]
        assert abs(got - want) <= 1e-13 * abs(want)


def random_slice_coefficients(rng, n, d):
    """Friction with a positive definite symmetric part, its Jacobian, SPD J."""
    R = rng.normal(size=(n, d, d))
    A = 1.5 * np.eye(d) + 0.3 * (R + 0.5 * np.swapaxes(R, -1, -2))
    dA = 0.4 * rng.normal(size=(n, d, d, d))
    L = rng.normal(size=(n, d, d))
    J = L @ np.swapaxes(L, -1, -2) + 0.1 * np.eye(d)
    psi = linear_psi(rng.normal(size=(d, d)), rng.normal(size=d))
    return A, dA, J, psi


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("c", [0.01, 0.3, 3.0])
def test_yhat_memory_term_matches_frechet_quadrature(d, c):
    # with v = 0 and F = 0, Yhat is the memory term alone: the time integral
    # of sum_mk J_mk [L(Mu, dM_k u) psi + e^{Mu} d_k psi]_m, M = -A^T
    rng = np.random.default_rng(100 * d + int(10 * c))
    n = 4
    A, dA, J, psi = random_slice_coefficients(rng, n, d)
    X = rng.normal(size=(n, d))
    zero = np.zeros((n, d))
    got = weak_Yhat(frozen_slice(A, zero, dA, J, zero, X), c, 0.0, None, psi)
    P, G = psi.value_at(X), psi.gradient_at(X)

    def integrand(u):
        out = np.empty(n)
        for i in range(n):
            M = -A[i].T * u
            Gg = np.empty((d, d))
            for k in range(d):
                dE = expm_frechet(M, -dA[i, :, :, k].T * u, compute_expm=False)
                Gg[:, k] = dE @ P[i] + expm(M) @ G[i, :, k]
            out[i] = np.einsum("mk,mk->", J[i], Gg)
        return out

    want = quad_vec(integrand, 0.0, c, epsrel=1e-13, epsabs=0.0)[0]
    assert got == pytest.approx(np.mean(want), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("c", [0.01, 0.3, 3.0])
def test_yhat_decay_and_force_blocks(d, c):
    # J = 0 leaves v . E^T psi - F . B^T psi with E = expm(-A c) and
    # B = A^-1 (I - E); one particle at a time isolates each block
    rng = np.random.default_rng(7 * d + int(10 * c))
    n = 3
    A, dA, J, psi = random_slice_coefficients(rng, n, d)
    X, V, F = rng.normal(size=(3, n, d))
    zero = np.zeros((n, d))
    P = psi.value_at(X)
    for i in range(n):
        one = slice(i, i + 1)
        E = expm(-A[i] * c)
        B = inv(A[i]) @ (np.eye(d) - E)
        coeffs = A[one], zero[one], dA[one], 0.0 * J[one], V[one], X[one]
        decay = weak_Yhat(frozen_slice(*coeffs), c, 0.0, None, psi)
        assert decay == pytest.approx(V[i] @ (E.T @ P[i]), rel=1e-13, abs=1e-15)
        coeffs = A[one], F[one], dA[one], 0.0 * J[one], zero[one], X[one]
        force = weak_Yhat(frozen_slice(*coeffs), c, 0.0, None, psi)
        # I - E cancels at small A c: the reference is good to A^-1 times ulps of E
        scale = np.linalg.norm(F[i]) * np.linalg.norm(P[i]) * np.linalg.norm(inv(A[i]))
        assert force == pytest.approx(-F[i] @ (B.T @ P[i]), rel=1e-13, abs=1e-13 * scale)


def test_ystar_summands_once_per_snapshot_and_psi(monkeypatch):
    spec = make_state_dep_friction_1d()
    rng = np.random.default_rng(3)
    x, v = rng.normal(size=(2, 2, 40, 1))
    anchor = UnderdampedEnsemble(0.05, 0.5, x[0], v[0])
    later = UnderdampedEnsemble(0.05, 0.51, x[1], v[1])
    psis = bump_test_functions(dim=1)
    calls = []
    counted = observables.ystar_summands

    def counting(frozen, spec, psi):
        calls.append((id(frozen), psi.name))
        return counted(frozen, spec, psi)

    monkeypatch.setattr(observables, "ystar_summands", counting)
    fa, fl = _frozen_coefficients(anchor, spec), _frozen_coefficients(later, spec)
    first = weak_gap_rows(fl, spec, psis, anchor=fa)
    again = weak_gap_rows(fl, spec, psis, anchor=fl)  # same snapshot, other anchor
    start = weak_gap_rows(fa, spec, psis, anchor=fa)
    assert sorted(calls) == sorted({(id(f), p.name) for f in (fa, fl) for p in psis})
    for a, b in zip(first, again):
        assert (a.Y, a.Ystar, a.mc_stderr) == (b.Y, b.Ystar, b.mc_stderr)
    monkeypatch.undo()
    # the shared terms and the anchor's cached psi values keep the bits of
    # rows built from the ensembles themselves
    assert first == weak_gap_rows(later, spec, psis, anchor=anchor)
    assert start == weak_gap_rows(anchor, spec, psis, anchor=anchor)
    assert all(r.gap_Y_Yhat == 0.0 for r in start)


def test_yhat_validation():
    spec = make_quadratic_ou()
    st = ud_state([[0.0]], [[1.0]], epsilon=0.1, t=1.0)
    psi = bump_test_functions()[1]
    with pytest.raises(ValidationError):
        weak_Yhat(st, 0.9, 1.0, spec, psi)  # t before the origin
    with pytest.raises(ValidationError):
        weak_Yhat(st, 1.2, 0.5, spec, psi)  # origin does not match state
    with pytest.raises(ValidationError):
        weak_Yhat(OverdampedEnsemble(t=1.0, positions=np.zeros((1, 1))), 1.1, 1.0, spec, psi)


# ------------------------------------------------------------------ distances


def test_w2_1d_values():
    a = np.array([3.0, -1.0, 0.5])
    assert w2_1d(a, a) == 0.0
    assert w2_1d(a, a + 1.0) == pytest.approx(1.0, rel=1e-15)
    assert w2_1d([0.0, 1.0], [0.0, 2.0]) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert w2_1d([1.0, 0.0], [2.0, 0.0]) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    with pytest.raises(ValidationError):
        w2_1d([0.0, 1.0], [0.0])


def test_w2_exact_values_and_bruteforce():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 2))
    b = rng.normal(size=(5, 2))
    best = min(
        np.mean(np.sum((a - b[list(p)]) ** 2, axis=1))
        for p in itertools.permutations(range(5))
    )
    assert w2_exact(a, b) == pytest.approx(np.sqrt(best), abs=1e-12)
    assert w2_exact(a, a.copy()) == 0.0
    assert w2_exact([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)
    with pytest.raises(ValidationError, match="w2_sliced"):
        w2_exact(np.zeros((1025, 1)), np.zeros((1025, 1)))
    with pytest.raises(ValidationError):
        w2_exact(np.zeros((4, 1)), np.zeros((5, 1)))


def test_w2_exact_metric_properties():
    rng = np.random.default_rng(9)
    for _ in range(3):
        a, b, c = rng.normal(size=(3, 24, 2))
        dab, dba = w2_exact(a, b), w2_exact(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= w2_exact(a, c) + w2_exact(c, b) + 1e-9
    a = rng.normal(size=(16, 2))
    assert w2_exact(a, a[rng.permutation(16)]) <= 1e-12
    assert w2_exact(a, a + 0.1) > 0.05


def test_w2_1d_equals_exact_on_line():
    rng = np.random.default_rng(14)
    for _ in range(4):
        a = rng.normal(size=50)
        b = 0.5 * rng.normal(size=50) + 0.3
        assert w2_1d(a, b) == pytest.approx(w2_exact(a, b), abs=1e-12)


def test_w2_sliced():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(200, 2))
    assert w2_sliced(a, a.copy(), 8, NoiseStream(0)) == 0.0
    x = rng.normal(size=300)
    y = x + 0.7
    assert w2_sliced(x, y, 1, NoiseStream(1)) == pytest.approx(w2_1d(x, y), rel=1e-15)
    with pytest.raises(ValidationError):
        w2_sliced(a, a, 0, NoiseStream(0))


def test_w2_sliced_vs_exact_subsample():
    rng = np.random.default_rng(10)
    a = rng.normal(size=4000)
    b = rng.normal(size=4000) + 1.0
    sliced = w2_sliced(a, b, 16, NoiseStream(3))
    exact = w2_exact(a[:512], b[:512])
    assert abs(sliced - exact) <= 0.15 * exact
    # d > 1: projections contract, so the proxy sits at or below the metric
    a2 = rng.normal(size=(512, 2))
    b2 = rng.normal(size=(512, 2)) + np.array([1.0, 0.0])
    s2 = w2_sliced(a2, b2, 32, NoiseStream(4))
    assert 0.0 < s2 <= w2_exact(a2, b2) + 0.05


# ---------------------------------------------------------------- diagnostics


def brownian_snapshots(rng, n=1500, times=None):
    times = np.arange(1, 13) * 0.1 if times is None else times
    x = np.zeros((n, 1))
    out = []
    t_prev = 0.0
    for t in times:
        x = x + np.sqrt(t - t_prev) * rng.normal(size=(n, 1))
        out.append(OverdampedEnsemble(t=float(t), positions=x.copy()))
        t_prev = t
    return out


def test_holder_brownian_slope():
    rep = holder_diagnostic(brownian_snapshots(np.random.default_rng(1)))
    assert not rep.degenerate
    assert rep.slope == pytest.approx(1.0, abs=0.1)


def test_holder_frozen_degenerate():
    snaps = [OverdampedEnsemble(t=0.1 * k, positions=np.ones((5, 1))) for k in range(1, 7)]
    rep = holder_diagnostic(snaps)
    assert rep.degenerate


def test_holder_ballistic_slope():
    v = np.random.default_rng(2).normal(size=(800, 1))
    snaps = [OverdampedEnsemble(t=0.2 * k, positions=v * (0.2 * k)) for k in range(1, 8)]
    rep = holder_diagnostic(snaps, epsilon=0.0)
    assert rep.slope == pytest.approx(2.0, abs=0.05)


def test_holder_lag_guard():
    snaps = brownian_snapshots(np.random.default_rng(3), n=10)
    with pytest.raises(ValidationError):
        holder_diagnostic(snaps, epsilon=0.1)  # only lags >= 1.0 qualify


def test_energy_diagnostic():
    z = ud_state(np.zeros((4, 1)), np.zeros((4, 1)), epsilon=0.1)
    rep = energy_diagnostic({0.1: [z]})
    assert rep.rows == ((0.1, 0.0, 0.0),) and rep.ratio == 1.0
    s1 = ud_state(np.zeros((4, 1)), np.ones((4, 1)), epsilon=0.1)
    s2 = ud_state(np.zeros((4, 1)), np.ones((4, 1)), epsilon=0.2)
    rep = energy_diagnostic({0.1: [s1], 0.2: [s2]})
    assert rep.ratio == pytest.approx(0.2 / 0.15)
    assert energy_diagnostic({0.3: [s1]}).ratio == 1.0


def test_paired_gap_stderr_scales():
    spec = make_quadratic_ou()
    psi = bump_test_functions()[1]
    rng = np.random.default_rng(12)
    big = ud_state(rng.normal(size=(4000, 1)), rng.normal(size=(4000, 1)))
    small = ud_state(rng.normal(size=(100, 1)), rng.normal(size=(100, 1)))
    se_big = paired_gap_stderr(big, spec, psi)
    se_small = paired_gap_stderr(small, spec, psi)
    assert 0.0 < se_big < se_small


# ---------------------------------------------------------------- gap report


def test_gap_report_invariant_and_csv(tmp_path):
    row = gap_row(0.1, 2.0, "bump_c0_r1", Y=0.5, Ystar=0.3, Yhat=0.45, mc_stderr=0.01)
    assert row.gap_Y_Ystar == 0.5 - 0.3
    assert row.gap_Y_Yhat == 0.5 - 0.45
    with pytest.raises(ValidationError):
        WeakGapRow(
            epsilon=0.1, t=2.0, psi_id="p", Y=0.5, Yhat=0.4, Ystar=0.3,
            gap_Y_Ystar=0.1, gap_Y_Yhat=0.1,
            mc_stderr=0.0,
        )
    nan_row = gap_row(0.2, 1.0, "p2", Y=1.0, Ystar=0.25)
    assert math.isnan(nan_row.gap_Y_Yhat)
    rep = WeakGapReport(rows=(row, nan_row))
    path = tmp_path / "gaps.csv"
    rep.write_csv(path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert list(rows[0]) == [
        "epsilon", "t", "psi_id", "Y", "Yhat", "Ystar",
        "gap_Y_Ystar", "gap_Y_Yhat", "mc_stderr",
    ]
    assert float(rows[0]["Y"]) == 0.5
    assert float(rows[0]["gap_Y_Ystar"]) == row.gap_Y_Ystar
    assert math.isnan(float(rows[1]["Yhat"]))
    assert rows[1]["psi_id"] == "p2"

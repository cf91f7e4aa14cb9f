"""Limit-dynamics tests: the stacked limit fields against the one-point
oracle and S's closed forms, the Lipschitz probe, EM runs."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limit_oracle import (
    drift_lipschitz,
    limit_diffusion,
    limit_drift,
    noise_induced_drift,
    point_coefficients,
)
from smallmass import overdamped
from smallmass.ensemble import (
    RUN_INIT_POSITIONS,
    NoiseStream,
    OverdampedEnsemble,
    _constant_friction,
    _conv_dphi,
    conv_phi,
    mean_field_coefficients,
)
from smallmass.errors import (
    BlowUpError,
    ConditionError,
    StabilityError,
    StiffnessError,
    ValidationError,
)
from smallmass.model import (
    PRESETS,
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
    fd_step,
    get_preset,
    make_classical_sk_1d,
    make_double_well_1d,
    make_gaussian_interaction_2d,
    make_quadratic_ou,
    make_state_dep_friction_1d,
)
from smallmass.overdamped import _drift_lipschitz_estimate, limit_coefficients, simulate_limit
from smallmass.smallmat import invert, solve_lyapunov


def affine_gamma_spec(sigma=1.0, analytic=True):
    """gamma(x) = 2 + x, no potential, no interaction (classical flag)."""

    def gamma(x):
        s = np.asarray(x, dtype=float)[..., 0]
        return (2.0 + s)[..., None, None]

    def d_gamma(x):
        s = np.asarray(x, dtype=float)[..., 0]
        return np.ones_like(s)[..., None, None, None]

    return ModelSpec(
        dim=1,
        grad_V=ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField([[0.0]]),
        gamma=gamma,
        d_gamma=d_gamma if analytic else None,
        sigma=ConstantMatrixField([[sigma]]),
        classical_sk=True,
    )


def fields_at(xs, positions, spec):
    """limit_coefficients' (b, D) at the targets xs, checked against the
    one-point oracle at each target: bit for bit for d > 1, where both
    run the same kernels; within 1e-12 relative (1e-15 absolute) in 1D,
    where the stacked path takes the scalar reduction."""
    xs = np.asarray(xs, dtype=float).reshape(-1, spec.dim)
    b, D = limit_coefficients(positions, spec, at=xs)
    ref_b = np.array([limit_drift(x, positions, spec) for x in xs])
    ref_D = np.array([limit_diffusion(x, positions, spec) for x in xs])
    if spec.dim > 1:
        assert np.array_equal(b, ref_b) and np.array_equal(D, ref_D)
    else:
        np.testing.assert_allclose(b, ref_b, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(D, ref_D, rtol=1e-12, atol=1e-15)
    return b, D


# -------------------------------------------------------------- S oracles


def S_fd_inverse(x, positions, spec):
    """S by central differences of A(.)^-1: the oracle of the product rule."""
    x = np.asarray(x, dtype=float).reshape(spec.dim)
    positions = np.asarray(positions, dtype=float)

    def A_at(pt):
        return spec.gamma_at(pt) + conv_phi(pt, positions, spec)

    h = fd_step(x)
    dAinv = np.empty((spec.dim,) * 3)
    for k, e in enumerate(h * np.eye(spec.dim)):
        dAinv[:, :, k] = (invert(A_at(x + e)) - invert(A_at(x - e))) / (2.0 * h)
    sig = spec.sigma_at(x)
    J = solve_lyapunov(A_at(x), sig @ sig.T).J
    return np.einsum("ijk,jk->i", dAinv, J)


def test_S_vanishes_for_constant_coefficients():
    spec = make_quadratic_ou()
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(30, 1))
    xs = rng.normal(size=(100, 1))
    for x in xs:
        assert np.all(noise_induced_drift(x, pos, spec) == 0.0)
    # the constant-friction fork: b = -A^-1 F with no S term, bit for bit
    b, _ = fields_at(xs, pos, spec)
    assert np.array_equal(b, [limit_drift(x, pos, spec) for x in xs])


def test_S_affine_friction_hand_value():
    # gamma = 2 + x, sigma = 1: S(x) = -gamma'/(2 gamma^3); S(0) = -1/16
    pos = np.zeros((1, 1))
    S = noise_induced_drift([0.0], pos, affine_gamma_spec())
    assert S[0] == pytest.approx(-1.0 / 16.0, rel=1e-12)
    b, _ = fields_at([0.0], pos, affine_gamma_spec())  # V = K = 0, so b = S
    assert b[0, 0] == pytest.approx(-1.0 / 16.0, rel=1e-12)
    S_fd = S_fd_inverse([0.0], pos, affine_gamma_spec())
    assert S_fd[0] == pytest.approx(-1.0 / 16.0, abs=1e-8)


def test_S_preset_closed_form():
    spec = make_state_dep_friction_1d()
    pos = np.zeros((5, 1))
    xs = (-1.3, -0.4, 0.0, 0.6, 2.1)
    b, _ = fields_at(xs, pos, spec)  # V = K = 0, so b = S
    for i, x in enumerate(xs):
        a = 2.0 + x / (1.0 + x * x) + 0.5
        dg = (1.0 - x * x) / (1.0 + x * x) ** 2
        expect = -dg / (2.0 * a**3)
        assert noise_induced_drift([x], pos, spec)[0] == pytest.approx(expect, rel=1e-12)
        assert b[i, 0] == pytest.approx(expect, rel=1e-12)


def test_S_product_rule_vs_fd_inverse():
    rng = np.random.default_rng(7)
    cases = [
        (make_state_dep_friction_1d(), rng.normal(size=(30, 1))),
        (make_gaussian_interaction_2d(), 0.7 * rng.normal(size=(20, 2))),
    ]
    for spec, pos in cases:
        xs = 0.8 * rng.normal(size=(3, spec.dim))
        fields_at(xs, pos, spec)
        for x in xs:
            a = noise_induced_drift(x, pos, spec)
            b = S_fd_inverse(x, pos, spec)
            assert np.max(np.abs(a - b)) <= 1e-6


def test_S_state_dependent_interaction_enters_derivative():
    # phi(z) = (0.6 + 0.2 cos z) I contributes to dA through the convolution
    def phi(z):
        s = np.asarray(z, dtype=float)[..., 0]
        return (0.6 + 0.2 * np.cos(s))[..., None, None]

    spec = ModelSpec(
        dim=1,
        grad_V=ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=phi,
        gamma=ConstantMatrixField([[1.5]]),
        sigma=ConstantMatrixField([[1.0]]),
        lambda_phi_hint=0.4,
    )
    pos = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    x = np.array([0.3])
    S = noise_induced_drift(x, pos, spec)
    S_fd = S_fd_inverse(x, pos, spec)
    b, _ = fields_at(x, pos, spec)  # V = K = 0, so b = S
    for got in (S[0], b[0, 0]):
        assert got != 0.0
        assert got == pytest.approx(S_fd[0], abs=1e-7)


def test_S_sigma_scaling_quadratic():
    x, pos = [0.7], np.zeros((3, 1))
    one, three = make_state_dep_friction_1d(sigma=1.0), make_state_dep_friction_1d(sigma=3.0)
    S1 = noise_induced_drift(x, pos, one)
    S3 = noise_induced_drift(x, pos, three)
    assert S3[0] == pytest.approx(9.0 * S1[0], rel=1e-10)
    b1, b3 = fields_at(x, pos, one)[0], fields_at(x, pos, three)[0]  # b = S
    assert b3[0, 0] == pytest.approx(9.0 * b1[0, 0], rel=1e-10)
    J1 = point_coefficients(x, pos, one).J.J
    J3 = point_coefficients(x, pos, three).J.J
    assert J3[0, 0] == pytest.approx(9.0 * J1[0, 0], rel=1e-10)
    J1 = mean_field_coefficients(pos, one, at=[x]).J
    J3 = mean_field_coefficients(pos, three, at=[x]).J
    assert J3[0, 0, 0] == pytest.approx(9.0 * J1[0, 0, 0], rel=1e-10)


# ------------------------------------------------------- drift / diffusion


def test_drift_zero_without_forces():
    spec = make_state_dep_friction_1d(sigma=0.0)
    b = limit_drift([0.4], np.zeros((2, 1)), spec)
    assert b[0] == 0.0  # V = K = 0 and sigma = 0 kill both terms
    assert fields_at([0.4], np.zeros((2, 1)), spec)[0][0, 0] == 0.0


def test_drift_classical_reduction():
    spec = make_classical_sk_1d(k=1.0, gamma=2.0)
    b = limit_drift([0.7], np.zeros((4, 1)), spec)
    assert b[0] == pytest.approx(-0.7 / 2.0, rel=1e-12)
    b, _ = fields_at([0.7], np.zeros((4, 1)), spec)
    assert b[0, 0] == pytest.approx(-0.7 / 2.0, rel=1e-12)


def test_drift_double_well_critical_point():
    spec = make_double_well_1d()
    b = limit_drift([1.0], np.array([[1.0]]), spec)
    assert abs(b[0]) <= 1e-15
    b, _ = fields_at([1.0], np.array([[1.0]]), spec)
    assert abs(b[0, 0]) <= 1e-15


def test_diffusion_values():
    spec = make_classical_sk_1d(k=1.0, gamma=2.0)
    assert limit_diffusion([0.0], np.zeros((1, 1)), spec)[0, 0] == pytest.approx(0.5)
    assert fields_at([0.0], np.zeros((1, 1)), spec)[1][0, 0, 0] == pytest.approx(0.5)
    spec0 = make_classical_sk_1d(k=1.0, gamma=2.0, sigma=0.0)
    assert np.all(limit_diffusion([0.0], np.zeros((1, 1)), spec0) == 0.0)
    assert np.all(fields_at([0.0], np.zeros((1, 1)), spec0)[1] == 0.0)


def test_diffusion_times_sigma_inverse_is_A_inverse():
    spec = make_gaussian_interaction_2d()
    rng = np.random.default_rng(3)
    pos = 0.5 * rng.normal(size=(15, 2))
    x = rng.normal(size=2)
    c = point_coefficients(x, pos, spec)
    D = limit_diffusion(x, pos, spec)
    assert np.allclose(D @ invert(spec.sigma_at(x)), c.A_inv, atol=1e-10)
    _, D = fields_at(x, pos, spec)
    A_inv = mean_field_coefficients(pos, spec, at=[x]).A_inv
    assert np.allclose(D @ invert(spec.sigma_at(x)), A_inv, atol=1e-10)


def test_limit_coefficients_certified():
    spec = make_state_dep_friction_1d()
    c = point_coefficients([0.3], np.zeros((4, 1)), spec)
    assert np.allclose(c.A_inv @ c.A, np.eye(1), atol=1e-13)
    assert c.J.residual <= 1e-12
    assert np.allclose(c.S, noise_induced_drift([0.3], np.zeros((4, 1)), spec))
    # the targets' coefficient object, which the stacked fields read
    m = mean_field_coefficients(np.zeros((4, 1)), spec, at=[[0.3]])
    assert np.allclose(m.A_inv @ m.A, np.eye(1), atol=1e-13)
    Q = m.sigma @ np.swapaxes(m.sigma, -1, -2)
    assert np.abs(m.A @ m.J + m.J @ np.swapaxes(m.A, -1, -2) - Q).max() <= 1e-12
    b, _ = fields_at([0.3], np.zeros((4, 1)), spec)  # V = K = 0, so b = S
    assert np.allclose(b[0], c.S)


def test_limit_coefficients_reject_a_friction_that_is_not_positive_definite():
    # gamma(x) = 2 + x is negative left of x = -2; phi = 0
    spec = affine_gamma_spec()
    positions = np.zeros((4, 1))
    point_coefficients([-1.5], positions, spec)
    limit_coefficients(positions, spec, at=[[-1.5]])
    with pytest.raises(StabilityError, match="friction not positive definite at"):
        point_coefficients([-2.5], positions, spec)
    named = re.escape("friction not positive definite at [-2.5]")
    with pytest.raises(StabilityError, match=named):
        limit_coefficients(positions, spec, at=[[-1.5], [-2.5]])


def test_constant_friction_limit_fields_reject_a_friction_that_is_not_positive_definite():
    def spec_with(gamma):
        return ModelSpec(
            dim=1, grad_V=LinearVectorField(1.0), grad_K=ZeroVectorField(),
            phi=ConstantMatrixField([[0.5]]), gamma=ConstantMatrixField([[gamma]]),
            sigma=ConstantMatrixField([[1.0]]), lambda_phi_hint=0.5,
        )

    X = np.linspace(-1.0, 1.0, 5)[:, None]
    b, D = limit_coefficients(X, spec_with(-0.25))  # A = 0.25
    assert np.array_equal(D[:, 0, 0], np.full(5, 4.0))
    for gamma in (-0.5, -1.0):  # A = 0, then A = -0.5
        with pytest.raises(StabilityError, match="constant friction not positive definite"):
            limit_coefficients(X, spec_with(gamma))


def probe_stencil(X):
    """The Lipschitz probe's 2d targets x0 +- h e_k at the ensemble mean."""
    x0 = X.mean(axis=0)
    steps = fd_step(x0) * np.eye(X.shape[1])
    return np.concatenate([x0 + steps, x0 - steps])


@pytest.mark.parametrize("preset", ["gaussian-interaction-2d", "state-dep-friction-1d"])
def test_coefficient_drift_is_the_limit_drift(preset):
    # a state-dependent friction takes no fork: the limit step's b is c.drift
    spec = get_preset(preset)
    assert _constant_friction(spec) is None
    X = 0.8 * NoiseStream(2).block(RUN_INIT_POSITIONS, 0, 40, spec.dim)
    for at in (None, probe_stencil(X)):
        drift = mean_field_coefficients(X, spec, at=at).drift
        assert np.array_equal(drift, limit_coefficients(X, spec, at=at)[0])
    assert np.abs(drift).max() > 0.0


@pytest.mark.parametrize("preset", ["classical-sk-1d", "double-well-1d", "quadratic-ou"])
def test_coefficient_drift_agrees_with_the_constant_friction_fork(preset):
    # the fork's -F A^-1 in place of the general -A^-1 F + S with dA = 0
    spec = get_preset(preset)
    assert _constant_friction(spec) is not None
    X = 0.8 * NoiseStream(2).block(RUN_INIT_POSITIONS, 0, 40, spec.dim)
    for at in (None, probe_stencil(X)):
        drift = mean_field_coefficients(X, spec, at=at).drift
        np.testing.assert_allclose(drift, limit_coefficients(X, spec, at=at)[0], rtol=1e-14)


# ------------------------------------------------------------ the probe


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_stacked_lipschitz_probe_agrees_with_the_one_point_probe(preset):
    # the probe's 2d stencil points in one call against one limit_drift
    # call per point; the 1D scalar path and the product rule differ in
    # rounding only
    spec = get_preset(preset)
    for seed in (1, 2):
        X = 0.8 * NoiseStream(seed).block(RUN_INIT_POSITIONS, 0, 40, spec.dim)
        L = _drift_lipschitz_estimate(spec, X)
        assert L > 0.0
        assert L == pytest.approx(drift_lipschitz(spec, X), rel=1e-6)


# ---------------------------------------------------------------- simulate


def test_simulate_trivial_T():
    init = OverdampedEnsemble(t=0.0, positions=np.ones((3, 1)))
    out = simulate_limit(make_quadratic_ou(), init, 0.0, 0.1, NoiseStream(0))
    assert out == [init]


def test_simulate_zero_noise_gradient_flow():
    spec = make_classical_sk_1d(k=1.0, gamma=1.0, sigma=0.0)
    init = OverdampedEnsemble(t=0.0, positions=np.ones((1, 1)))
    out = simulate_limit(spec, init, 1.0, 1e-3, NoiseStream(0))
    assert out[-1].positions[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-3)


def test_simulate_lands_on_snapshots_and_is_deterministic():
    spec = make_state_dep_friction_1d()
    init = OverdampedEnsemble(t=0.0, positions=np.linspace(-1, 1, 40).reshape(-1, 1))
    runs = [
        simulate_limit(spec, init, 0.5, 0.2, NoiseStream(5), [0.25, 0.5], run_id=2)
        for _ in range(2)
    ]
    assert [s.t for s in runs[0]] == pytest.approx([0.25, 0.5], abs=1e-12)
    for sa, sb in zip(*runs):
        assert np.array_equal(sa.positions, sb.positions)


def test_simulate_ou_stationary_variance():
    # dx = -(x/2) dt + (1/2) dB: stationary Var = 1/4
    spec = make_quadratic_ou()
    n = 2000
    stream = NoiseStream(2024)
    x0 = 0.5 * stream.block(RUN_INIT_POSITIONS, 0, n, 1)
    init = OverdampedEnsemble(t=0.0, positions=x0)
    out = simulate_limit(spec, init, 12.0, 1e-3, stream)
    var = np.var(out[-1].positions[:, 0])
    se = 0.25 * np.sqrt(2.0 / (n - 1))
    assert abs(var - 0.25) <= 3.0 * se + 1e-3


def test_simulate_stiffness_guard_and_blowup():
    def grad_V(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return -5.0 * x**3  # repulsive: b = +5 x^3 / A with A = 1

    spec = ModelSpec(
        dim=1, grad_V=grad_V, grad_K=ZeroVectorField(),
        phi=ConstantMatrixField([[0.5]]), gamma=ConstantMatrixField([[0.5]]),
        sigma=ConstantMatrixField([[0.0]]), lambda_gamma_hint=0.5,
        lambda_phi_hint=0.5,
    )
    init = OverdampedEnsemble(t=0.0, positions=np.full((4, 1), 2.0))
    with pytest.raises(StiffnessError) as err:
        simulate_limit(spec, init, 1.0, 0.1, NoiseStream(0))
    assert err.value.admissible_dt == pytest.approx(1.0 / 60.0, rel=1e-3)
    with pytest.raises(BlowUpError):
        simulate_limit(spec, init, 1.0, 0.01, NoiseStream(0))


def test_simulate_validation():
    spec = make_quadratic_ou()
    init = OverdampedEnsemble(t=1.0, positions=np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        simulate_limit(spec, init, 0.5, 0.1, NoiseStream(0))
    with pytest.raises(ValidationError):
        simulate_limit(spec, init, 2.0, 0.0, NoiseStream(0))
    with pytest.raises(ValidationError):
        simulate_limit(spec, init, 2.0, -0.1, NoiseStream(0))
    with pytest.raises(ValidationError, match="dt must be >= 0, got nan"):
        simulate_limit(spec, init, 2.0, float("nan"), NoiseStream(0))
    flat = OverdampedEnsemble(t=0.0, positions=np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="ensemble dim 2 != spec dim 1"):
        simulate_limit(spec, flat, 1.0, 0.1, NoiseStream(0))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(-1e100, 1e100, allow_nan=False, allow_subnormal=True),
        min_size=1,
        max_size=8,
    ),
    st.floats(0.1, 10.0),
)
@example([0.0, -0.0, 5e-324, -1e-310, 0.3, -1.0, 1e100, -1e100], 1.0)
def test_1d_limit_drift_by_products_matches_pow(xs, sigma):
    # V = K = 0 on this preset, so the 1D drift b is S alone
    spec = make_state_dep_friction_1d(sigma=sigma)
    X = np.array(xs)[:, None]
    with np.errstate(over="ignore"):  # gamma' at |x| ~ 1e100 squares 1e200
        b, _ = limit_coefficients(X, spec)
        A = mean_field_coefficients(X, spec).A
        a = A[:, 0, 0]
        s = spec.sigma_at(X)[:, 0, 0]
        da = spec.d_gamma_at(X)[:, 0, 0, 0] + _conv_dphi(X, X, spec)[:, 0, 0, 0]
    ref = -(s**2) * da / (2.0 * a**3)
    assert np.all(np.abs(b[:, 0] - ref) <= 4.0 * np.finfo(float).eps * np.abs(ref))


def test_2d_limit_fields_equal_the_per_point_drift_and_diffusion():
    # the step's stacked fields against the one-point oracle, which
    # evaluates every field at x_i alone; reversed targets give the same rows
    spec = make_gaussian_interaction_2d()
    for seed in (4, 5, 6):
        for n in (1, 2, 12, 200):
            X = NoiseStream(seed).block(RUN_INIT_POSITIONS, 0, n, 2)
            b, D = limit_coefficients(X, spec)
            for i, x in enumerate(X):
                assert np.array_equal(b[i], limit_drift(x, X, spec))
                assert np.array_equal(D[i], limit_diffusion(x, X, spec))
            b_rev, D_rev = limit_coefficients(X, spec, at=X[::-1])
            assert np.array_equal(b_rev, b[::-1]) and np.array_equal(D_rev, D[::-1])


def turning_friction_spec():
    """2D friction that turns with x, and no forces, so the limit drift is S.

    gamma(x) = R(theta(x)) diag(2, 0.6) R(theta(x))^T + W with
    theta(x) = 0.8 sin x1 + 0.5 x2 and the constant antisymmetric
    W = [[0, 0.4], [-0.4, 0]]; analytic dgamma; constant anisotropic sigma.
    A is not normal and does not commute with sigma sigma^T.
    """
    g = np.array([2.0, 0.6])
    W = np.array([[0.0, 0.4], [-0.4, 0.0]])

    def turn(x):
        x = np.asarray(x, dtype=float)
        th = 0.8 * np.sin(x[..., 0]) + 0.5 * x[..., 1]
        c, s = np.cos(th), np.sin(th)
        R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        dR = np.stack([np.stack([-s, -c], -1), np.stack([c, -s], -1)], -2)
        dth = np.stack([0.8 * np.cos(x[..., 0]), np.full_like(th, 0.5)], -1)
        return R, dR, dth

    def gamma(x):
        R, _, _ = turn(x)
        return (R * g) @ np.swapaxes(R, -1, -2) + W

    def d_gamma(x):
        R, dR, dth = turn(x)
        dG = (dR * g) @ np.swapaxes(R, -1, -2) + (R * g) @ np.swapaxes(dR, -1, -2)
        return dG[..., None] * dth[..., None, None, :]

    return ModelSpec(
        dim=2,
        grad_V=ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(0.3 * np.eye(2)),
        gamma=gamma,
        d_gamma=d_gamma,
        sigma=ConstantMatrixField([[0.9, 0.0], [0.5, 0.3]]),
        lambda_gamma_hint=0.6,
        lambda_phi_hint=0.3,
    )


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_2d_stacked_S_on_a_turning_friction_equals_the_one_point_S(seed):
    spec = turning_friction_spec()
    X = 1.5 * NoiseStream(seed).block(RUN_INIT_POSITIONS, 0, 12, 2)
    A = mean_field_coefficients(X, spec).A
    Q = spec.sigma_at(X) @ np.swapaxes(spec.sigma_at(X), -1, -2)
    AT = np.swapaxes(A, -1, -2)
    assert np.all(np.abs(A @ AT - AT @ A).max(axis=(1, 2)) > 1e-3)  # not normal
    assert np.all(np.abs(A @ Q - Q @ A).max(axis=(1, 2)) > 1e-3)  # no common basis
    b, D = limit_coefficients(X, spec)  # V = K = 0, so b = S
    for i, x in enumerate(X):
        assert np.array_equal(b[i], noise_induced_drift(x, X, spec))
        assert np.array_equal(D[i], limit_diffusion(x, X, spec))
        assert np.max(np.abs(b[i] - S_fd_inverse(x, X, spec))) <= 1e-6
    assert np.abs(b).max() > 0.1
    pulled = replace(spec, grad_V=LinearVectorField(1.0))  # b = -A^-1 x + S
    b, _ = limit_coefficients(X, pulled)
    for i, x in enumerate(X):
        assert np.array_equal(b[i], limit_drift(x, X, pulled))


def floor_spec(gamma):
    """2D spec with the given friction, phi = 0 and no forces."""
    return ModelSpec(
        dim=2, grad_V=ZeroVectorField(), grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(np.zeros((2, 2))), gamma=gamma,
        sigma=ConstantMatrixField(np.eye(2)), classical_sk=True,
    )


class CountingStream(NoiseStream):
    def __init__(self, seed):
        super().__init__(seed)
        self.blocks = 0

    def block(self, run, step, n, lanes):
        self.blocks += 1
        return super().block(run, step, n, lanes)


def test_2d_limit_step_rejects_a_friction_that_is_not_positive_definite_at_one_particle():
    # gamma = diag(1 - x1/2, 1) loses positive definiteness at x1 >= 2
    def gamma(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0 - 0.5 * x[..., 0]
        out[..., 1, 1] = 1.0
        return out

    spec = floor_spec(gamma)
    X = 0.3 * NoiseStream(1).block(RUN_INIT_POSITIONS, 0, 12, 2)
    X[7] = [2.5, -0.25]
    named = re.escape(f"friction not positive definite at {X[7]}")
    with pytest.raises(StabilityError, match=named):
        point_coefficients(X[7], X, spec)
    with pytest.raises(StabilityError, match=named):
        limit_coefficients(X, spec, at=X[7:8])
    with pytest.raises(StabilityError, match=named):
        limit_coefficients(X, spec)
    stream = CountingStream(0)
    with pytest.raises(StabilityError, match=named):
        simulate_limit(spec, OverdampedEnsemble(t=0.0, positions=X), 0.01, 0.01, stream)
    assert stream.blocks == 0


def test_2d_limit_step_rejects_a_friction_that_is_ill_conditioned_at_one_particle():
    # gamma = diag(1, exp(-10 x1^2)) stays positive definite; cond ~ 2e17 at x1 = 2
    def gamma(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = np.exp(-10.0 * x[..., 0] ** 2)
        return out

    spec = floor_spec(gamma)
    X = 0.3 * NoiseStream(2).block(RUN_INIT_POSITIONS, 0, 12, 2)
    X[4] = [2.0, 0.1]
    cond = np.linalg.cond(gamma(X[4]))
    assert cond > 1e12 and np.linalg.cond(gamma(np.delete(X, 4, axis=0))).max() < 1e3
    with pytest.raises(ConditionError) as one:
        point_coefficients(X[4], X, spec)
    with pytest.raises(ConditionError) as at:
        limit_coefficients(X, spec, at=X[4:5])
    with pytest.raises(ConditionError) as err:
        limit_coefficients(X, spec)
    assert one.value.cond == at.value.cond == err.value.cond == cond


def test_2d_limit_run_forms_its_fields_once_per_step_and_once_for_the_lipschitz_probe(
    monkeypatch,
):
    # each step reads the snapshot's own fields; the probe evaluates b at
    # the 2d points x0 +- h e_k in one call
    calls = []
    fields = overdamped.limit_coefficients

    def counted(positions, spec, at=None):
        calls.append(None if at is None else np.shape(at))
        return fields(positions, spec, at=at)

    monkeypatch.setattr(overdamped, "limit_coefficients", counted)
    spec = make_gaussian_interaction_2d()
    X = 0.5 * NoiseStream(3).block(RUN_INIT_POSITIONS, 0, 10, 2)
    out = simulate_limit(spec, OverdampedEnsemble(t=0.0, positions=X), 0.05, 0.01, NoiseStream(3))
    assert out[-1].step == 5
    d = spec.dim
    assert calls == [(2 * d, d)] + [None] * 5

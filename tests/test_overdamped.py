"""Limit-dynamics tests: S(x) oracles, drift/diffusion identities, EM runs."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallmass import overdamped
from smallmass.ensemble import (
    RUN_INIT_POSITIONS,
    NoiseStream,
    OverdampedEnsemble,
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
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
    fd_step,
    make_classical_sk_1d,
    make_double_well_1d,
    make_gaussian_interaction_2d,
    make_quadratic_ou,
    make_state_dep_friction_1d,
)
from smallmass.overdamped import (
    _limit_fields,
    limit_coefficients,
    limit_diffusion,
    limit_drift,
    noise_induced_drift,
    simulate_limit,
)
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
    for x in rng.normal(size=(100, 1)):
        assert np.all(noise_induced_drift(x, pos, spec) == 0.0)


def test_S_affine_friction_hand_value():
    # gamma = 2 + x, sigma = 1: S(x) = -gamma'/(2 gamma^3); S(0) = -1/16
    pos = np.zeros((1, 1))
    S = noise_induced_drift([0.0], pos, affine_gamma_spec())
    assert S[0] == pytest.approx(-1.0 / 16.0, rel=1e-12)
    S_fd = S_fd_inverse([0.0], pos, affine_gamma_spec())
    assert S_fd[0] == pytest.approx(-1.0 / 16.0, abs=1e-8)


def test_S_preset_closed_form():
    spec = make_state_dep_friction_1d()
    pos = np.zeros((5, 1))
    for x in (-1.3, -0.4, 0.0, 0.6, 2.1):
        a = 2.0 + x / (1.0 + x * x) + 0.5
        dg = (1.0 - x * x) / (1.0 + x * x) ** 2
        expect = -dg / (2.0 * a**3)
        assert noise_induced_drift([x], pos, spec)[0] == pytest.approx(expect, rel=1e-12)


def test_S_product_rule_vs_fd_inverse():
    rng = np.random.default_rng(7)
    cases = [
        (make_state_dep_friction_1d(), rng.normal(size=(30, 1))),
        (make_gaussian_interaction_2d(), 0.7 * rng.normal(size=(20, 2))),
    ]
    for spec, pos in cases:
        for _ in range(3):
            x = 0.8 * rng.normal(size=spec.dim)
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
    assert S[0] != 0.0
    assert S[0] == pytest.approx(S_fd[0], abs=1e-7)


def test_S_sigma_scaling_quadratic():
    x, pos = [0.7], np.zeros((3, 1))
    S1 = noise_induced_drift(x, pos, make_state_dep_friction_1d(sigma=1.0))
    S3 = noise_induced_drift(x, pos, make_state_dep_friction_1d(sigma=3.0))
    assert S3[0] == pytest.approx(9.0 * S1[0], rel=1e-10)
    J1 = limit_coefficients(x, pos, make_state_dep_friction_1d(sigma=1.0)).J.J
    J3 = limit_coefficients(x, pos, make_state_dep_friction_1d(sigma=3.0)).J.J
    assert J3[0, 0] == pytest.approx(9.0 * J1[0, 0], rel=1e-10)


# ------------------------------------------------------- drift / diffusion


def test_drift_zero_without_forces():
    spec = make_state_dep_friction_1d(sigma=0.0)
    b = limit_drift([0.4], np.zeros((2, 1)), spec)
    assert b[0] == 0.0  # V = K = 0 and sigma = 0 kill both terms


def test_drift_classical_reduction():
    spec = make_classical_sk_1d(k=1.0, gamma=2.0)
    b = limit_drift([0.7], np.zeros((4, 1)), spec)
    assert b[0] == pytest.approx(-0.7 / 2.0, rel=1e-12)


def test_drift_double_well_critical_point():
    spec = make_double_well_1d()
    b = limit_drift([1.0], np.array([[1.0]]), spec)
    assert abs(b[0]) <= 1e-15


def test_diffusion_values():
    spec = make_classical_sk_1d(k=1.0, gamma=2.0)
    assert limit_diffusion([0.0], np.zeros((1, 1)), spec)[0, 0] == pytest.approx(0.5)
    spec0 = make_classical_sk_1d(k=1.0, gamma=2.0, sigma=0.0)
    assert np.all(limit_diffusion([0.0], np.zeros((1, 1)), spec0) == 0.0)


def test_diffusion_times_sigma_inverse_is_A_inverse():
    spec = make_gaussian_interaction_2d()
    rng = np.random.default_rng(3)
    pos = 0.5 * rng.normal(size=(15, 2))
    x = rng.normal(size=2)
    c = limit_coefficients(x, pos, spec)
    D = limit_diffusion(x, pos, spec)
    assert np.allclose(D @ invert(spec.sigma_at(x)), c.A_inv, atol=1e-10)


def test_limit_coefficients_certified():
    spec = make_state_dep_friction_1d()
    c = limit_coefficients([0.3], np.zeros((4, 1)), spec)
    assert np.allclose(c.A_inv @ c.A, np.eye(1), atol=1e-13)
    assert c.J.residual <= 1e-12
    assert np.allclose(c.S, noise_induced_drift([0.3], np.zeros((4, 1)), spec))


def test_limit_coefficients_reject_a_friction_that_is_not_positive_definite():
    # gamma(x) = 2 + x is negative left of x = -2; phi = 0
    spec = affine_gamma_spec()
    positions = np.zeros((4, 1))
    limit_coefficients([-1.5], positions, spec)
    with pytest.raises(StabilityError, match="friction not positive definite at"):
        limit_coefficients([-2.5], positions, spec)


def test_constant_friction_limit_fields_reject_a_friction_that_is_not_positive_definite():
    def spec_with(gamma):
        return ModelSpec(
            dim=1, grad_V=LinearVectorField(1.0), grad_K=ZeroVectorField(),
            phi=ConstantMatrixField([[0.5]]), gamma=ConstantMatrixField([[gamma]]),
            sigma=ConstantMatrixField([[1.0]]), lambda_phi_hint=0.5,
        )

    X = np.linspace(-1.0, 1.0, 5)[:, None]
    b, D = _limit_fields(spec_with(-0.25), X)  # A = 0.25
    assert np.array_equal(D[:, 0, 0], np.full(5, 4.0))
    for gamma in (-0.5, -1.0):  # A = 0, then A = -0.5
        with pytest.raises(StabilityError, match="constant friction not positive definite"):
            _limit_fields(spec_with(gamma), X)


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
        b, _ = _limit_fields(spec, X)
        A = mean_field_coefficients(X, spec).A
        a = A[:, 0, 0]
        s = spec.sigma_at(X)[:, 0, 0]
        da = spec.d_gamma_at(X)[:, 0, 0, 0] + _conv_dphi(X, X, spec)[:, 0, 0, 0]
    ref = -(s**2) * da / (2.0 * a**3)
    assert np.all(np.abs(b[:, 0] - ref) <= 4.0 * np.finfo(float).eps * np.abs(ref))


def test_2d_limit_fields_equal_the_per_point_drift_and_diffusion():
    # the step's stacked fields against the public one-point functions,
    # which evaluate every field at x_i alone
    spec = make_gaussian_interaction_2d()
    for seed in (4, 5, 6):
        for n in (1, 2, 12, 200):
            X = NoiseStream(seed).block(RUN_INIT_POSITIONS, 0, n, 2)
            b, D = _limit_fields(spec, X)
            for i, x in enumerate(X):
                assert np.array_equal(b[i], limit_drift(x, X, spec))
                assert np.array_equal(D[i], limit_diffusion(x, X, spec))


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
    b, D = _limit_fields(spec, X)  # V = K = 0, so b = S
    for i, x in enumerate(X):
        assert np.array_equal(b[i], noise_induced_drift(x, X, spec))
        assert np.array_equal(D[i], limit_diffusion(x, X, spec))
        assert np.max(np.abs(b[i] - S_fd_inverse(x, X, spec))) <= 1e-6
    assert np.abs(b).max() > 0.1
    pulled = replace(spec, grad_V=LinearVectorField(1.0))  # b = -A^-1 x + S
    b, _ = _limit_fields(pulled, X)
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
        limit_coefficients(X[7], X, spec)
    with pytest.raises(StabilityError, match=named):
        _limit_fields(spec, X)
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
        limit_coefficients(X[4], X, spec)
    with pytest.raises(ConditionError) as err:
        _limit_fields(spec, X)
    assert one.value.cond == err.value.cond == cond


def test_2d_limit_run_calls_the_one_point_functions_only_from_the_lipschitz_probe(monkeypatch):
    # the probe evaluates limit_drift at x0 +- h e_k (2d points); each call
    # nests limit_coefficients, which calls noise_induced_drift
    calls = {}
    for name in ("limit_drift", "limit_coefficients", "noise_induced_drift", "limit_diffusion"):
        f = getattr(overdamped, name)

        def counted(*args, _f=f, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(overdamped, name, counted)
    spec = make_gaussian_interaction_2d()
    X = 0.5 * NoiseStream(3).block(RUN_INIT_POSITIONS, 0, 10, 2)
    out = simulate_limit(spec, OverdampedEnsemble(t=0.0, positions=X), 0.05, 0.01, NoiseStream(3))
    assert out[-1].step == 5
    d = spec.dim
    assert calls == {"limit_drift": 2 * d, "limit_coefficients": 2 * d, "noise_induced_drift": 2 * d}
    assert sum(calls.values()) == 3 * 2 * d == 12

"""Limit-dynamics tests: S(x) oracles, drift/diffusion identities, EM runs."""

import numpy as np
import pytest

from smallmass.ensemble import RUN_INIT_POSITIONS, NoiseStream, OverdampedEnsemble, conv_phi
from smallmass.errors import BlowUpError, StiffnessError, ValidationError
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
    x0 = 0.5 * stream.block(RUN_INIT_POSITIONS, 0, n)[:, :1]
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

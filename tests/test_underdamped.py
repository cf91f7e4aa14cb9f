"""Underdamped integrator tests: hand-evaluated steps, exactness, guards."""

import re

import numpy as np
import pytest

from smallmass.ensemble import NoiseStream, UnderdampedEnsemble, empirical_moment2
from smallmass.errors import BlowUpError, StabilityError, StiffnessError, ValidationError
from smallmass.harness import initial_velocities
from smallmass.model import (
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
    make_quadratic_ou,
)
from smallmass.smallmat import min_symmetric_eigenvalue, solve_lyapunov
from smallmass.underdamped import (
    _STEPPERS,
    UDStepperConfig,
    simulate_underdamped,
    step_underdamped_em,
    step_underdamped_exp,
)

from velocity_moment import scaled_second_moment


def linear_spec(gamma=1.0, phi=0.5, sigma=0.0, k=0.0, dim=1):
    """Constant-coefficient model: A = gamma + phi, F = k x."""
    return ModelSpec(
        dim=dim,
        grad_V=LinearVectorField(k) if k else ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(phi * np.eye(dim)),
        gamma=ConstantMatrixField(gamma * np.eye(dim)),
        sigma=ConstantMatrixField(sigma * np.eye(dim)),
        lambda_gamma_hint=gamma,
        lambda_phi_hint=phi if phi > 0 else 0.0,
        classical_sk=phi == 0,
    )


def state_1d(x, v, epsilon=1.0, N=1):
    return UnderdampedEnsemble(
        epsilon=epsilon,
        t=0.0,
        positions=np.full((N, 1), float(x)),
        velocities=np.full((N, 1), float(v)),
    )


# ------------------------------------------------------------------- EM


def test_em_linear_decay():
    # sigma=0, no force, gamma=I, phi=cI: v <- v (1 - dt(1+c)/eps)
    c, dt, eps, v0 = 0.5, 0.01, 0.1, 2.0
    spec = linear_spec(gamma=1.0, phi=c)
    out = step_underdamped_em(
        state_1d(0.0, v0, epsilon=eps), spec, UDStepperConfig("euler_maruyama", dt),
        NoiseStream(0),
    )
    assert out.velocities[0, 0] == pytest.approx(v0 * (1 - dt * (1 + c) / eps), rel=1e-14)


def test_em_dt_zero_is_identity():
    spec = linear_spec(sigma=1.0)
    st = state_1d(1.0, 2.0)
    out = step_underdamped_em(st, spec, UDStepperConfig("euler_maruyama", 0.0), NoiseStream(1))
    assert np.array_equal(out.positions, st.positions)
    assert np.array_equal(out.velocities, st.velocities)
    assert out.t == st.t


def test_em_ou_hand_step():
    # V = x^2/2, gamma=1, phi zero (classical), sigma=1, eps=1, from (1, 0):
    # v = -dt + sqrt(dt) xi, x = 1 + dt v; with sigma=0 exactly v=-dt, x=1-dt^2
    dt = 0.1
    spec0 = linear_spec(gamma=1.0, phi=0.0, sigma=0.0, k=1.0)
    out0 = step_underdamped_em(
        state_1d(1.0, 0.0), spec0, UDStepperConfig("euler_maruyama", dt), NoiseStream(2)
    )
    assert out0.velocities[0, 0] == pytest.approx(-dt, abs=1e-16)
    assert out0.positions[0, 0] == pytest.approx(1.0 - dt * dt, abs=1e-16)

    spec1 = linear_spec(gamma=1.0, phi=0.0, sigma=1.0, k=1.0)
    stream = NoiseStream(2)
    out1 = step_underdamped_em(
        state_1d(1.0, 0.0), spec1, UDStepperConfig("euler_maruyama", dt, run_id=0), stream
    )
    xi = stream.block(0, 1, 1, 1)[0, 0]
    assert out1.velocities[0, 0] == pytest.approx(-dt + np.sqrt(dt) * xi, rel=1e-14)
    assert out1.positions[0, 0] == pytest.approx(1.0 + dt * out1.velocities[0, 0], rel=1e-14)


def test_em_stiffness_guard():
    spec = linear_spec(gamma=1.5, phi=0.5)  # A = 2
    with pytest.raises(StiffnessError) as err:
        step_underdamped_em(
            state_1d(0.0, 0.0, epsilon=0.01), spec,
            UDStepperConfig("euler_maruyama", dt=0.01), NoiseStream(0),
        )
    assert err.value.admissible_dt == pytest.approx(0.5 * 0.01 / 2.0, rel=1e-12)


# ---------------------------------------------------------------- exponential


def test_exp_pure_decay():
    # sigma=0, b=0, A=2, dt/eps=1: v <- v e^-2
    spec = linear_spec(gamma=1.5, phi=0.5)
    out = step_underdamped_exp(
        state_1d(0.0, 3.0), spec, UDStepperConfig("exponential", 1.0), NoiseStream(0)
    )
    assert out.velocities[0, 0] == pytest.approx(3.0 * np.exp(-2.0), rel=1e-14)


def test_exp_dt_zero_is_identity():
    spec = linear_spec(sigma=1.0)
    st = state_1d(0.5, -1.0)
    out = step_underdamped_exp(st, spec, UDStepperConfig("exponential", 0.0), NoiseStream(3))
    assert np.array_equal(out.positions, st.positions)
    assert np.array_equal(out.velocities, st.velocities)


def test_exp_matches_em_to_second_order():
    # deterministic parts differ by O(dt^2): Richardson ratio ~ 4
    spec = linear_spec(gamma=1.0, phi=0.5, sigma=0.0, k=1.0)
    st = state_1d(1.0, 0.7)
    errs = []
    for dt in (0.02, 0.01):
        cfg_e = UDStepperConfig("exponential", dt)
        cfg_m = UDStepperConfig("euler_maruyama", dt)
        ve = step_underdamped_exp(st, spec, cfg_e, NoiseStream(0)).velocities[0, 0]
        vm = step_underdamped_em(st, spec, cfg_m, NoiseStream(0)).velocities[0, 0]
        errs.append(abs(ve - vm))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_exp_stationary_variance_large_dt():
    # frozen 1D, A=1, sigma=sqrt(2), eps=1, dt -> inf: Var(v) = J/eps = 1
    spec = linear_spec(gamma=0.5, phi=0.5, sigma=np.sqrt(2.0))
    n = 40_000
    st = UnderdampedEnsemble(
        epsilon=1.0, t=0.0, positions=np.zeros((n, 1)), velocities=np.zeros((n, 1))
    )
    out = step_underdamped_exp(st, spec, UDStepperConfig("exponential", 50.0), NoiseStream(7))
    var = np.var(out.velocities[:, 0])
    assert abs(var - 1.0) <= 4.0 * np.sqrt(2.0 / n)


def test_exp_rejects_unstable_friction():
    def gamma(x):
        s = np.asarray(x, dtype=float)[..., 0]
        return (0.0 * s - 1.0)[..., None, None]

    spec = ModelSpec(
        dim=1, grad_V=ZeroVectorField(), grad_K=ZeroVectorField(),
        phi=ConstantMatrixField([[0.5]]), gamma=gamma,
        sigma=ConstantMatrixField([[1.0]]), lambda_phi_hint=0.5,
    )
    with pytest.raises(StabilityError):
        step_underdamped_exp(
            state_1d(0.0, 1.0), spec, UDStepperConfig("exponential", 0.1), NoiseStream(0)
        )


def test_exp_multid_matches_decoupled_scalar_formula():
    # diagonal 2D system = two independent scalars (deterministic part)
    spec = linear_spec(gamma=1.0, phi=0.5, sigma=0.0, k=1.0, dim=2)
    st = UnderdampedEnsemble(
        epsilon=0.5, t=0.0,
        positions=np.array([[1.0, -2.0]]), velocities=np.array([[0.3, 0.4]]),
    )
    dt = 0.2
    out = step_underdamped_exp(st, spec, UDStepperConfig("exponential", dt), NoiseStream(0))
    a, eps = 1.5, 0.5
    E = np.exp(-a * dt / eps)
    for j, (x0, v0) in enumerate([(1.0, 0.3), (-2.0, 0.4)]):
        v_expect = E * v0 + (1 - E) * (-x0) / a
        assert out.velocities[0, j] == pytest.approx(v_expect, rel=1e-12)
        assert out.positions[0, j] == pytest.approx(x0 + 0.5 * dt * (v0 + v_expect), rel=1e-12)


# ------------------------------------------------------------------ simulate


def test_simulate_trivial_T():
    spec = linear_spec(sigma=1.0)
    st = state_1d(1.0, 0.0)
    out = simulate_underdamped(spec, st, 0.0, UDStepperConfig("exponential", 0.1), NoiseStream(0))
    assert out == [st]


def test_simulate_determinism():
    spec = make_quadratic_ou()
    init = UnderdampedEnsemble(
        epsilon=0.1, t=0.0,
        positions=np.linspace(-1, 1, 20).reshape(-1, 1), velocities=np.zeros((20, 1)),
    )
    cfg = UDStepperConfig("exponential", 0.05, run_id=4)
    a = simulate_underdamped(spec, init, 1.0, cfg, NoiseStream(42), [0.5, 1.0])
    b = simulate_underdamped(spec, init, 1.0, cfg, NoiseStream(42), [0.5, 1.0])
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.positions, sb.positions)
        assert np.array_equal(sa.velocities, sb.velocities)


def test_simulate_lands_exactly_on_snapshots():
    spec = linear_spec(sigma=1.0)
    st = state_1d(0.0, 0.0)
    out = simulate_underdamped(
        spec, st, 0.5, UDStepperConfig("exponential", 0.2), NoiseStream(1), [0.25, 0.5]
    )
    assert [s.t for s in out] == pytest.approx([0.25, 0.5], abs=1e-12)


def test_simulate_ou_stationary_variance():
    # A=2, k=1, sigma=1: limit stationary Var = sigma^2/(2 k A) = 0.25
    spec = make_quadratic_ou()
    n, eps = 800, 0.01
    stream = NoiseStream(314)
    x0 = stream.block(2**32, 0, n, 1)
    init = UnderdampedEnsemble(epsilon=eps, t=0.0, positions=0.5 * x0,
                               velocities=np.zeros((n, 1)))
    out = simulate_underdamped(spec, init, 8.0, UDStepperConfig("exponential", 0.005), stream)
    var = np.var(out[-1].positions[:, 0])
    se = 0.25 * np.sqrt(2.0 / (n - 1))
    assert abs(var - 0.25) <= 3.0 * se + 0.05 * eps


def test_simulate_blowup_detected():
    def grad_V(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return 10.0 * x**3

    spec = ModelSpec(
        dim=1, grad_V=grad_V, grad_K=ZeroVectorField(),
        phi=ConstantMatrixField([[0.5]]), gamma=ConstantMatrixField([[1.0]]),
        sigma=ConstantMatrixField([[0.0]]), lambda_phi_hint=0.5,
    )
    init = state_1d(3.0, 0.0)
    with pytest.raises(BlowUpError):
        simulate_underdamped(
            spec, init, 50.0,
            UDStepperConfig("euler_maruyama", 0.3), NoiseStream(0),
        )


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("start", ["euler_maruyama", "exponential", "equilibrated"])
def test_indefinite_friction_rejected_naming_the_point(start, dim):
    # A = gamma + phi = -0.5 I everywhere, although the hints claim a floor
    spec = ModelSpec(
        dim=dim, grad_V=ZeroVectorField(), grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(0.5 * np.eye(dim)), gamma=ConstantMatrixField(-np.eye(dim)),
        sigma=ConstantMatrixField(np.eye(dim)), lambda_phi_hint=0.5,
    )
    x = np.linspace(-1.0, 1.0, 4 * dim).reshape(4, dim)
    named = re.escape(f"friction not positive definite at {x[0]}")
    with pytest.raises(StabilityError, match=named):
        if start == "equilibrated":
            initial_velocities(NoiseStream(0), x, spec, 0.1, "equilibrated")
        else:
            state = UnderdampedEnsemble(
                epsilon=0.1, t=0.0, positions=x, velocities=np.zeros_like(x)
            )
            _STEPPERS[start](state, spec, UDStepperConfig(start, 1e-3), NoiseStream(0))


def test_simulate_validates_snapshots():
    spec = linear_spec(sigma=1.0)
    st = state_1d(0.0, 0.0)
    cfg = UDStepperConfig("exponential", 0.1)
    with pytest.raises(ValidationError):
        simulate_underdamped(spec, st, 1.0, cfg, NoiseStream(0), [0.8, 0.2])
    with pytest.raises(ValidationError):
        simulate_underdamped(spec, st, 1.0, cfg, NoiseStream(0), [2.0])


def test_energy_and_moment_uniform_over_epsilon():
    # kinetic energy eps E|v|^2 and position second moment stay bounded
    spec = make_quadratic_ou()
    energies, moments = [], []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        init = UnderdampedEnsemble(
            epsilon=eps, t=0.0,
            positions=np.full((400, 1), 0.5), velocities=np.zeros((400, 1)),
        )
        out = simulate_underdamped(
            spec, init, 1.0, UDStepperConfig("exponential", 0.005, run_id=1),
            NoiseStream(11), [0.5, 1.0],
        )
        energies.append(eps * np.mean(out[-1].velocities ** 2))
        moments.append(max(empirical_moment2(s) for s in out))
    for vals in (energies, moments):
        assert max(vals) <= 2.0 * np.median(vals)


# ------------------------------------------ velocity law of one step from rest


def test_frozen_cov_zero_noise():
    spec = linear_spec(gamma=1.5, phi=0.5, sigma=0.0)
    second, stderr = scaled_second_moment(
        spec, [0.0], epsilon=0.1, t=1.0, reps=10, stream=NoiseStream(0)
    )
    assert np.array_equal(second, np.zeros((1, 1)))
    assert np.array_equal(stderr, np.zeros((1, 1)))


def test_frozen_cov_matches_lyapunov():
    # 1D A=2, sigma=1: J = 1/4; eps E[v^2] -> J within 3 stderr
    spec = linear_spec(gamma=1.5, phi=0.5, sigma=1.0)
    second, stderr = scaled_second_moment(
        spec, [0.0], epsilon=0.01, t=1.0, reps=100_000, stream=NoiseStream(99)
    )
    assert abs(second[0, 0] - 0.25) <= 3.0 * stderr[0, 0]


def test_frozen_cov_deviation_linear_in_eps():
    # with a force, eps E[v v] = J + eps mu mu^T: halving eps halves the gap
    spec = linear_spec(gamma=1.5, phi=0.5, sigma=1.0, k=1.0)
    x = np.array([3.0])
    gaps = []
    for eps in (0.04, 0.02, 0.01):
        second, _ = scaled_second_moment(
            spec, x, epsilon=eps, t=5 * eps, reps=200_000, stream=NoiseStream(123), run_id=5
        )
        gaps.append(abs(second[0, 0] - 0.25))
    slope = np.polyfit(np.log([0.04, 0.02, 0.01]), np.log(gaps), 1)[0]
    assert 0.5 <= slope <= 1.5


def coupled_2d_spec():
    """Constant 2D coefficients with non-diagonal friction and noise, F = 0."""
    return ModelSpec(
        dim=2,
        grad_V=ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField([[0.5, 0.1], [0.0, 0.5]]),
        gamma=ConstantMatrixField([[1.5, 0.4], [-0.2, 1.0]]),
        sigma=ConstantMatrixField([[1.0, 0.3], [-0.2, 0.8]]),
        lambda_gamma_hint=0.9,
        lambda_phi_hint=0.4,
    )


def test_frozen_cov_2d_relaxes_to_the_lyapunov_covariance():
    # F = 0 and t = 10 eps / lambda_min(A): eps E[v v^T] = J - E J E^T with
    # E of norm about e^-10, so the draws estimate J itself
    spec = coupled_2d_spec()
    A = np.array([[2.0, 0.5], [-0.2, 1.5]])
    sig = np.array([[1.0, 0.3], [-0.2, 0.8]])
    J = solve_lyapunov(A, sig @ sig.T).J
    eps = 0.02
    t = 10.0 * eps / min_symmetric_eigenvalue(A)
    second, stderr = scaled_second_moment(
        spec, [0.0, 0.0], eps, t, 100_000, NoiseStream(8), run_id=1
    )
    assert np.all(np.abs(second - J) <= 3.0 * stderr)


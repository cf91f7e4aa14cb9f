"""Model-spec and assumption-audit tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smallmass.ensemble import NoiseStream
from smallmass.errors import ValidationError
from smallmass.model import (
    AUDIT_RUN,
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
    audit_assumptions,
    fd_matrix_jacobian,
    get_preset,
    make_classical_sk_1d,
    make_double_well_1d,
    make_gaussian_interaction_2d,
    make_state_dep_friction_1d,
)


def spec_1d(gamma_fn=None, phi_fn=None, lam_g=1.0, lam_p=0.5, **kw):
    return ModelSpec(
        dim=1,
        grad_V=ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=phi_fn if phi_fn is not None else ConstantMatrixField([[0.5]]),
        gamma=gamma_fn if gamma_fn is not None else ConstantMatrixField([[1.0]]),
        sigma=ConstantMatrixField([[1.0]]),
        lambda_gamma_hint=lam_g,
        lambda_phi_hint=lam_p,
        **kw,
    )


def test_audit_constant_identity_friction_passes():
    spec = ModelSpec(
        dim=2,
        grad_V=ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(0.5 * np.eye(2)),
        gamma=ConstantMatrixField(np.eye(2)),
        sigma=ConstantMatrixField(np.eye(2)),
        lambda_gamma_hint=1.0,
        lambda_phi_hint=0.5,
    )
    rep = audit_assumptions(spec, ([-1, -1], [1, 1]), 100, NoiseStream(1))
    assert rep.lambda_gamma_min == pytest.approx(1.0, abs=1e-12)
    assert rep.pass_h3 and rep.pass_h4 and rep.all_pass


def test_audit_zero_phi_fails_h4():
    spec = spec_1d(phi_fn=ConstantMatrixField([[0.0]]), lam_p=0.1)
    rep = audit_assumptions(spec, ([-1.0], [1.0]), 50, NoiseStream(2))
    assert rep.lambda_phi_min == 0.0
    assert not rep.pass_h4
    assert not rep.all_pass


def test_audit_sine_friction_sampled_floor():
    # gamma(x) = 2 + sin x on [-10, 10]; the sampled floor must land in
    # [1, 1 + 1e-3] and equal the direct minimum over the same sample set
    def gamma(x):
        return (2.0 + np.sin(np.asarray(x, dtype=float)[..., 0]))[..., None, None]

    spec = spec_1d(gamma_fn=gamma, lam_g=1.0)
    stream = NoiseStream(20260815)
    rep = audit_assumptions(spec, ([-10.0], [10.0]), 10_000, stream)
    assert 1.0 <= rep.lambda_gamma_min <= 1.0 + 1e-3

    # oracle: regenerate the documented sample points and minimize directly
    import scipy.special

    z = stream.block(AUDIT_RUN, 0, 10_000, 1)
    pts = -10.0 + 20.0 * scipy.special.ndtr(z)
    oracle = np.min(2.0 + np.sin(pts[:, 0]))
    assert rep.lambda_gamma_min == pytest.approx(oracle, abs=1e-13)


def test_audit_monotone_in_sample_count():
    # enlarging the sample set never flips a fail into a pass
    def gamma(x):
        return (2.0 + np.sin(np.asarray(x, dtype=float)[..., 0]))[..., None, None]

    spec = spec_1d(gamma_fn=gamma, lam_g=1.2)  # hint above the true floor 1.0
    stream = NoiseStream(5)
    small = audit_assumptions(spec, ([-10.0], [10.0]), 200, stream)
    large = audit_assumptions(spec, ([-10.0], [10.0]), 5000, stream)
    assert large.lambda_gamma_min <= small.lambda_gamma_min
    assert large.lip_grad_V >= small.lip_grad_V
    if not small.pass_h3:
        assert not large.pass_h3


def test_audit_affine_lipschitz_exact():
    spec = ModelSpec(
        dim=1,
        grad_V=LinearVectorField(3.0),
        grad_K=LinearVectorField(0.25),
        phi=ConstantMatrixField([[0.5]]),
        gamma=ConstantMatrixField([[1.0]]),
        sigma=ConstantMatrixField([[1.0]]),
        lambda_phi_hint=0.5,
    )
    rep = audit_assumptions(spec, ([-2.0], [2.0]), 400, NoiseStream(3))
    assert rep.lip_grad_V == pytest.approx(3.0, rel=1e-12)
    assert rep.lip_grad_K == pytest.approx(0.25, rel=1e-12)


def test_audit_nonfinite_field_names_field_and_point():
    def gamma(x):
        s = np.asarray(x, dtype=float)[..., 0]
        out = np.where(s > 0.5, np.nan, 2.0)
        return out[..., None, None]

    spec = spec_1d(gamma_fn=gamma)
    with pytest.raises(ValidationError, match=r"gamma.*point"):
        audit_assumptions(spec, ([-1.0], [1.0]), 200, NoiseStream(4))


def test_audit_classical_bypass_warns():
    spec = make_classical_sk_1d()
    with pytest.warns(UserWarning, match="bypass"):
        rep = audit_assumptions(spec, ([-1.0], [1.0]), 50, NoiseStream(6))
    assert rep.pass_h4 and rep.h4_bypassed


def test_audit_h2_reports_both_statistics():
    spec = make_gaussian_interaction_2d()
    rep = audit_assumptions(spec, ([-3, -3], [3, 3]), 500, NoiseStream(7))
    assert np.isfinite(rep.sigma_deriv_max)
    assert np.isfinite(rep.sigma_growth_ratio_max)
    assert rep.pass_h2


def test_audit_validates_inputs():
    spec = spec_1d()
    with pytest.raises(ValidationError):
        audit_assumptions(spec, ([1.0], [1.0]), 10, NoiseStream(0))
    with pytest.raises(ValidationError):
        audit_assumptions(spec, ([-1.0], [1.0]), 1, NoiseStream(0))


def test_spec_constructor_validation():
    with pytest.raises(ValidationError):
        spec_1d(lam_g=-1.0)
    with pytest.raises(ValidationError):
        spec_1d(lam_p=0.0)  # zero phi floor needs the classical flag
    with pytest.raises(ValidationError):
        ModelSpec(
            dim=9,
            grad_V=ZeroVectorField(),
            grad_K=ZeroVectorField(),
            phi=ConstantMatrixField(np.eye(9)),
            gamma=ConstantMatrixField(np.eye(9)),
            sigma=ConstantMatrixField(np.eye(9)),
            lambda_phi_hint=1.0,
        )


def test_fd_jacobian_matches_analytic():
    spec = make_state_dep_friction_1d()
    X = np.linspace(-2, 2, 9).reshape(-1, 1)
    analytic = spec.d_gamma_at(X)
    fd = fd_matrix_jacobian(spec.gamma_at, X, 1)
    assert np.max(np.abs(analytic - fd)) <= 1e-6

    spec2 = make_gaussian_interaction_2d()
    X2 = np.random.default_rng(0).standard_normal((20, 2))
    assert np.max(np.abs(spec2.d_gamma_at(X2) - fd_matrix_jacobian(spec2.gamma_at, X2, 2))) <= 1e-6
    assert np.max(np.abs(spec2.d_phi_at(X2) - fd_matrix_jacobian(spec2.phi_at, X2, 2))) <= 1e-6


class CountedConstant(ConstantMatrixField):
    """A ConstantMatrixField that counts its calls."""

    calls = 0

    def __call__(self, x):
        self.calls += 1
        return super().__call__(x)


@pytest.mark.parametrize("M", [[[1.5]], [[2.0, 0.3], [-0.1, 1.2]]])
def test_constant_gamma_jacobian_is_its_central_difference_without_a_call(M):
    # (M - M) / 2h = +0.0 exactly, so the zeros need no evaluation of gamma
    d = len(M)
    gamma = CountedConstant(M)
    spec = ModelSpec(
        dim=d, grad_V=ZeroVectorField(), grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(0.5 * np.eye(d)), gamma=gamma,
        sigma=ConstantMatrixField(np.eye(d)), lambda_phi_hint=0.5,
    )
    for shape in ((7, d), (2, 3, d)):
        X = 3.0 * NoiseStream(5).block(0, 0, math.prod(shape[:-1]), d).reshape(shape)
        dg = spec.d_gamma_at(X)
        assert gamma.calls == 0
        assert dg.shape == shape[:-1] + (d, d, d)
        fd = fd_matrix_jacobian(spec.gamma_at, X, d)
        assert gamma.calls == 2 * d
        assert dg.tobytes() == fd.tobytes() == np.zeros_like(fd).tobytes()
        gamma.calls = 0


def test_presets_constructible_and_audited():
    for name in ("quadratic-ou", "double-well-1d", "state-dep-friction-1d"):
        spec = get_preset(name)
        rep = audit_assumptions(
            spec, ([-4.0] * spec.dim, [4.0] * spec.dim), 500, NoiseStream(8)
        )
        assert rep.all_pass, name
    spec2 = get_preset("gaussian-interaction-2d")
    rep2 = audit_assumptions(spec2, ([-4, -4], [4, 4]), 500, NoiseStream(9))
    assert rep2.all_pass


def test_get_preset_unknown_name():
    with pytest.raises(ValidationError, match="unknown preset"):
        get_preset("nope")


def test_wrong_shaped_callback_output_is_rejected():
    # a per-point callback gives one (d, d) matrix for the whole stack; it
    # must not be broadcast into every particle's value
    def gamma_single(x):
        return np.diag(2.0 + np.ravel(x)[:1] ** 2)

    spec = spec_1d(gamma_fn=gamma_single)
    with pytest.raises(ValidationError, match=r"field gamma returned shape \(1, 1\)"):
        spec.gamma_at([[0.0], [1.0], [2.0]])


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(1, 16),
        elements=st.floats(-1e100, 1e100, allow_nan=False, allow_subnormal=True),
    )
)
@example(np.array([0.0, -0.0, 5e-324, -1e-310, 1e-100, 0.1, -1.0, 1e100, -1e100]))
def test_double_well_grad_V_by_products_matches_pow(x):
    got = make_double_well_1d().grad_V_at(x[:, None])[:, 0]
    ref = x**3 - x
    # the two cubes differ by at most 2 ulp of |x|^3; the subtraction then
    # rounds each to its own result's ulp, which for |x| < 1 is the ulp of x
    tol = 2.0 * np.spacing(np.abs(x) ** 3) + np.spacing(
        np.maximum(np.abs(got), np.abs(ref))
    )
    assert np.all(np.abs(got - ref) <= tol)

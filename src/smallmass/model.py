r"""Coefficient fields of the interacting system and the assumption audit.

A model is the bundle (V, K, phi, gamma, sigma) entering the underdamped
dynamics

    eps dv = -(gamma(x) + phi*rho(x)) v dt - grad V(x) dt
             - grad K*rho(x) dt + sigma(x) dB,
    dx = v dt,

where * is convolution against the empirical measure of the ensemble.
Only gradients of V and K are ever needed, so ModelSpec stores grad_V and
grad_K directly.

Callback conventions
--------------------
Every callback takes an array of shape (..., d) and returns, for the same
leading axes, exactly

    grad_V, grad_K : (..., d)
    phi, gamma, sigma : (..., d, d)
    d_gamma, d_phi : (..., d, d, d), entry [..., i, j, k] = d gamma_ij / d x_k

Any other shape is rejected; there is no per-point mode, and a constant
field broadcasts itself (ConstantMatrixField). Analytic Jacobians
d_gamma / d_phi are optional; central finite differences with step
h = max(1e-5, 1e-7 (1 + |x|)) are used when absent.

The audit is a falsifier, not a prover: it samples the requested box,
estimates Lipschitz constants by difference quotients over disjoint sample
pairs (so enlarging the sample set never flips a fail into a pass), and
checks the eigenvalue floors of gamma and phi against the declared hints.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

MAX_DIM = 8

# run id used by the audit's sample draws; the band >= 2**32 is reserved
# for utility draws so dynamics runs (small ids) never collide
AUDIT_RUN = 2**32 + 3


def fd_step(x) -> float:
    """Central-difference step for absent Jacobians: max(1e-5, 1e-7 (1+|x|))."""
    return max(1e-5, 1e-7 * (1.0 + float(np.linalg.norm(x))))


class ConstantMatrixField:
    """Field x -> M for a fixed d x d matrix M.

    Recognized by the convolution kernels: phi of this type short-circuits
    the O(N^2) pair sum. Its Jacobian is exact zeros, formed without a call
    (ensemble._conv_dphi for phi, ModelSpec.d_gamma_at for gamma), so a
    constant friction's dA is zero and the limit drift's S = 0 needs no
    path of its own. A call returns the read-only view
    np.broadcast_to(M, x.shape[:-1] + M.shape), made once per shape and kept.
    """

    def __init__(self, M):
        self.M = np.atleast_2d(np.asarray(M, dtype=float))
        self._views = {}

    def __call__(self, x):
        shape = np.shape(x)[:-1] + self.M.shape
        view = self._views.get(shape)
        if view is None:  # threads that race here store equal views
            view = self._views[shape] = np.broadcast_to(self.M, shape)
        return view


class ZeroVectorField:
    """Field x -> 0 in R^d; recognized to short-circuit convolutions."""

    def __call__(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class LinearVectorField:
    """Field z -> coef * z with scalar coef (e.g. grad of quadratic K).

    Convolving against an ensemble reduces to coef * (x - mean(positions)),
    which the convolution kernels exploit.
    """

    def __init__(self, coef: float):
        self.coef = float(coef)

    def __call__(self, z):
        return self.coef * np.asarray(z, dtype=float)


def _eval_field(f, X, core_shape, name):
    """Evaluate callback f over leading axes of X (..., d) -> (..., *core)."""
    X = np.asarray(X, dtype=float)
    expected = X.shape[:-1] + core_shape
    out = np.asarray(f(X), dtype=float)
    if out.shape != expected:
        raise ValidationError(
            f"field {name} returned shape {out.shape}, expected {expected}"
        )
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Immutable coefficient bundle; all callbacks must be pure.

    lambda_gamma_hint / lambda_phi_hint are the claimed uniform floors on the
    smallest eigenvalue of the symmetric parts of gamma and phi. classical_sk
    flags presets with phi identically zero, where the phi-positivity check
    is bypassed with a warning (the limit formulas remain well defined).
    """

    dim: int
    grad_V: Callable
    grad_K: Callable
    phi: Callable
    gamma: Callable
    sigma: Callable
    d_gamma: Callable | None = None
    d_phi: Callable | None = None
    lambda_gamma_hint: float = 1.0
    lambda_phi_hint: float = 0.0
    classical_sk: bool = False
    name: str = ""

    def __post_init__(self):
        if not (1 <= int(self.dim) <= MAX_DIM):
            raise ValidationError(f"dim must be in [1, {MAX_DIM}], got {self.dim}")
        if self.lambda_gamma_hint <= 0:
            raise ValidationError("lambda_gamma_hint must be positive")
        if self.lambda_phi_hint < 0:
            raise ValidationError("lambda_phi_hint must be nonnegative")
        if self.lambda_phi_hint == 0 and not self.classical_sk:
            raise ValidationError(
                "lambda_phi_hint must be positive unless classical_sk is set"
            )

    # ---- batched evaluation (shape-checked) ----

    def grad_V_at(self, X):
        return _eval_field(self.grad_V, X, (self.dim,), "grad_V")

    def grad_K_at(self, X):
        return _eval_field(self.grad_K, X, (self.dim,), "grad_K")

    def phi_at(self, X):
        return _eval_field(self.phi, X, (self.dim, self.dim), "phi")

    def gamma_at(self, X):
        return _eval_field(self.gamma, X, (self.dim, self.dim), "gamma")

    def sigma_at(self, X):
        return _eval_field(self.sigma, X, (self.dim, self.dim), "sigma")

    def d_gamma_at(self, X):
        """Analytic Jacobian when present, else central differences on gamma;
        a ConstantMatrixField gamma gets +0.0 zeros without a call, the bits
        of (M - M) / 2h, which the friction Jacobian dA and the limit S read."""
        d = self.dim
        if self.d_gamma is not None:
            return _eval_field(self.d_gamma, X, (d, d, d), "d_gamma")
        if isinstance(self.gamma, ConstantMatrixField):
            return np.zeros(np.shape(X)[:-1] + (d, d, d))
        return fd_matrix_jacobian(self.gamma_at, X, d)

    def d_phi_at(self, X):
        """Analytic Jacobian when present, else central differences on phi."""
        d = self.dim
        if self.d_phi is not None:
            return _eval_field(self.d_phi, X, (d, d, d), "d_phi")
        return fd_matrix_jacobian(self.phi_at, X, d)


def fd_matrix_jacobian(field_at, X, d):
    """Central-difference Jacobian of a matrix field, (..., d, d, d).

    Entry [..., i, j, k] = d field_ij / d x_k with per-point step fd_step(x).
    """
    X = np.asarray(X, dtype=float)
    h = np.maximum(1e-5, 1e-7 * (1.0 + np.linalg.norm(X, axis=-1)))
    out = np.empty(X.shape[:-1] + (d, d, d))
    for k in range(d):
        shift = np.zeros_like(X)
        shift[..., k] = h
        out[..., k] = (field_at(X + shift) - field_at(X - shift)) / (2.0 * h)[
            ..., None, None
        ]
    return out


@dataclass(frozen=True)
class AuditReport:
    """Sampled statistics and pass/fail flags for the standing assumptions.

    Flags: h1 requires finite sampled Lipschitz quotients for grad_V and
    grad_K; h2 requires a finite sampled derivative bound for sigma (the
    linear-growth ratio is reported alongside without deciding which bound
    is primitive); h3 requires the min sampled symmetric eigenvalue of gamma
    to reach lambda_gamma_hint > 0; h4 the same for phi plus a finite
    operator-norm bound, unless bypassed by a classical_sk preset.
    """

    n_samples: int
    lip_grad_V: float
    lip_grad_K: float
    lambda_gamma_min: float
    lambda_phi_min: float
    phi_norm_max: float
    sigma_deriv_max: float
    sigma_growth_ratio_max: float
    pass_h1: bool
    pass_h2: bool
    pass_h3: bool
    pass_h4: bool
    h4_bypassed: bool = False

    @property
    def all_pass(self) -> bool:
        return self.pass_h1 and self.pass_h2 and self.pass_h3 and self.pass_h4


def _check_finite(values, field_name, points):
    flat = np.asarray(values).reshape(len(points), -1)
    bad = ~np.all(np.isfinite(flat), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValidationError(
            f"audit failure: field {field_name} returned a non-finite value "
            f"at point {points[i].tolist()}"
        )


def audit_assumptions(spec: ModelSpec, box, n_samples: int, rng) -> AuditReport:
    """Sample the box and test the standing assumptions on the coefficients.

    box is (low, high) with low/high length-d arrays (or scalars in 1D).
    Deterministic given the stream's master seed. Lipschitz estimates use
    disjoint draw-order pairs (2t, 2t+1), so growing n_samples only ever
    adds quotients (audit monotonicity).
    """
    low = np.atleast_1d(np.asarray(box[0], dtype=float))
    high = np.atleast_1d(np.asarray(box[1], dtype=float))
    if low.shape != (spec.dim,) or high.shape != (spec.dim,):
        raise ValidationError(
            f"box bounds must have shape ({spec.dim},), got {low.shape}/{high.shape}"
        )
    if not np.all(high > low):
        raise ValidationError("box is degenerate: need high > low in every axis")
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValidationError("n_samples must be at least 2")

    from scipy.special import ndtr

    z = rng.block(AUDIT_RUN, 0, n_samples, spec.dim)
    u = ndtr(z)
    points = low + (high - low) * u

    gv = spec.grad_V_at(points)
    gk = spec.grad_K_at(points)
    gam = spec.gamma_at(points)
    ph = spec.phi_at(points)
    sig = spec.sigma_at(points)
    for vals, nm in ((gv, "grad_V"), (gk, "grad_K"), (gam, "gamma"),
                     (ph, "phi"), (sig, "sigma")):
        _check_finite(vals, nm, points)

    # Lipschitz difference quotients over disjoint pairs
    m = n_samples // 2
    a, b = points[0 : 2 * m : 2], points[1 : 2 * m : 2]
    gaps = np.linalg.norm(a - b, axis=1)
    ok = gaps > 0
    lip_v = float(np.max(
        np.linalg.norm(gv[0:2*m:2][ok] - gv[1:2*m:2][ok], axis=1) / gaps[ok]
    ))
    lip_k = float(np.max(
        np.linalg.norm(gk[0:2*m:2][ok] - gk[1:2*m:2][ok], axis=1) / gaps[ok]
    ))

    lam_gamma = float(np.min(np.linalg.eigvalsh(0.5 * (gam + np.swapaxes(gam, -1, -2)))))
    lam_phi = float(np.min(np.linalg.eigvalsh(0.5 * (ph + np.swapaxes(ph, -1, -2)))))
    phi_norm = float(np.max(np.linalg.svd(ph, compute_uv=False)))

    dsig = fd_matrix_jacobian(spec.sigma_at, points, spec.dim)
    _check_finite(dsig, "sigma derivative", points)
    sigma_deriv = float(np.max(np.linalg.norm(dsig.reshape(n_samples, -1), axis=1)))
    op_sig = np.max(np.linalg.svd(sig, compute_uv=False), axis=-1)
    growth = float(np.max(op_sig**2 / (1.0 + np.sum(points**2, axis=1))))

    h4_bypassed = False
    if spec.classical_sk:
        warnings.warn(
            "classical SK preset: phi positivity (H4) check bypassed",
            stacklevel=2,
        )
        pass_h4 = True
        h4_bypassed = True
    else:
        pass_h4 = (
            lam_phi >= spec.lambda_phi_hint
            and spec.lambda_phi_hint > 0
            and np.isfinite(phi_norm)
        )

    return AuditReport(
        n_samples=n_samples,
        lip_grad_V=lip_v,
        lip_grad_K=lip_k,
        lambda_gamma_min=lam_gamma,
        lambda_phi_min=lam_phi,
        phi_norm_max=phi_norm,
        sigma_deriv_max=sigma_deriv,
        sigma_growth_ratio_max=growth,
        pass_h1=bool(np.isfinite(lip_v) and np.isfinite(lip_k)),
        pass_h2=bool(np.isfinite(sigma_deriv)),
        pass_h3=bool(lam_gamma >= spec.lambda_gamma_hint > 0),
        pass_h4=bool(pass_h4),
        h4_bypassed=h4_bypassed,
    )


# --------------------------------------------------------------- presets


def _identity_grad(x):
    return np.asarray(x, dtype=float)


def make_quadratic_ou(k=1.0, gamma=1.5, phi=0.5, sigma=1.0) -> ModelSpec:
    """1D Ornstein-Uhlenbeck: V = k x^2/2, no interaction potential.

    Effective friction A = gamma + phi is constant; the limit is the
    classical overdamped OU with stationary variance sigma^2 / (2 k A).
    """
    return ModelSpec(
        dim=1,
        grad_V=LinearVectorField(k),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField([[phi]]),
        gamma=ConstantMatrixField([[gamma]]),
        sigma=ConstantMatrixField([[sigma]]),
        lambda_gamma_hint=gamma,
        lambda_phi_hint=phi,
        name="quadratic-ou",
    )


def make_double_well_1d(theta=0.2, gamma=1.5, phi=0.5, sigma=1.0) -> ModelSpec:
    """1D double well V = x^4/4 - x^2/2 with quadratic attraction K = theta z^2/2."""

    def grad_V(x):
        x = np.asarray(x, dtype=float)
        return x * x * x - x

    return ModelSpec(
        dim=1,
        grad_V=grad_V,
        grad_K=LinearVectorField(theta),
        phi=ConstantMatrixField([[phi]]),
        gamma=ConstantMatrixField([[gamma]]),
        sigma=ConstantMatrixField([[sigma]]),
        lambda_gamma_hint=gamma,
        lambda_phi_hint=phi,
        name="double-well-1d",
    )


def make_state_dep_friction_1d(phi=0.5, sigma=1.0) -> ModelSpec:
    """1D free motion with friction gamma(x) = 2 + x/(1+x^2).

    V = K = 0, so every drift in the limit is noise-induced:
    S(x) = -sigma^2 gamma'(x) / (2 A(x)^3) with A = gamma + phi.
    gamma' is provided analytically.
    """

    def gamma(x):
        s = np.asarray(x, dtype=float)[..., 0]
        return (2.0 + s / (1.0 + s * s))[..., None, None]

    def d_gamma(x):
        s = np.asarray(x, dtype=float)[..., 0]
        return ((1.0 - s * s) / (1.0 + s * s) ** 2)[..., None, None, None]

    return ModelSpec(
        dim=1,
        grad_V=ZeroVectorField(),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField([[phi]]),
        gamma=gamma,
        d_gamma=d_gamma,
        sigma=ConstantMatrixField([[sigma]]),
        lambda_gamma_hint=1.5,
        lambda_phi_hint=phi,
        name="state-dep-friction-1d",
    )


def make_gaussian_interaction_2d() -> ModelSpec:
    """2D model exercising matrix-valued paths.

    V = |x|^2/2; K(z) = -0.5 exp(-|z|^2/2); gamma = 2I + 0.3 diag(sin x1,
    cos x2) with analytic Jacobian; phi(z) = (0.5 + 0.25 e^{-|z|^2}) I;
    sigma = (1 + 0.1/(1+|x|^2)) I.
    """

    def grad_K(z):
        z = np.asarray(z, dtype=float)
        n2 = np.sum(z * z, axis=-1, keepdims=True)
        return 0.5 * z * np.exp(-0.5 * n2)

    def gamma(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 + 0.3 * np.sin(x[..., 0])
        out[..., 1, 1] = 2.0 + 0.3 * np.cos(x[..., 1])
        return out

    def d_gamma(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 0.3 * np.cos(x[..., 0])
        out[..., 1, 1, 1] = -0.3 * np.sin(x[..., 1])
        return out

    # the products of c[..., None, None] * I, written as an outer product
    # laid out as c is, so a pair sum's kernel runs on source-major planes
    def phi(z):
        z = np.asarray(z, dtype=float)
        c = 0.5 + 0.25 * np.exp(-np.sum(z * z, axis=-1))
        return np.moveaxis(np.multiply.outer(np.eye(2), c), (0, 1), (-2, -1))

    def d_phi(z):
        z = np.asarray(z, dtype=float)
        dc = -0.5 * np.exp(-np.sum(z * z, axis=-1))[..., None] * z  # (..., 2)
        return np.moveaxis(np.multiply.outer(np.eye(2), dc), (0, 1), (-3, -2))

    def sigma(x):
        x = np.asarray(x, dtype=float)
        c = 1.0 + 0.1 / (1.0 + np.sum(x * x, axis=-1))
        return c[..., None, None] * np.eye(2)

    return ModelSpec(
        dim=2,
        grad_V=_identity_grad,
        grad_K=grad_K,
        phi=phi,
        d_phi=d_phi,
        gamma=gamma,
        d_gamma=d_gamma,
        sigma=sigma,
        lambda_gamma_hint=1.7,
        lambda_phi_hint=0.5,
        name="gaussian-interaction-2d",
    )


def make_classical_sk_1d(k=1.0, gamma=2.0, sigma=1.0) -> ModelSpec:
    """Flagged classical preset with phi identically zero (audit bypass)."""
    return ModelSpec(
        dim=1,
        grad_V=LinearVectorField(k),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField([[0.0]]),
        gamma=ConstantMatrixField([[gamma]]),
        sigma=ConstantMatrixField([[sigma]]),
        lambda_gamma_hint=gamma,
        lambda_phi_hint=0.0,
        classical_sk=True,
        name="classical-sk-1d",
    )


PRESETS = {
    "quadratic-ou": make_quadratic_ou,
    "double-well-1d": make_double_well_1d,
    "state-dep-friction-1d": make_state_dep_friction_1d,
    "gaussian-interaction-2d": make_gaussian_interaction_2d,
    "classical-sk-1d": make_classical_sk_1d,
}


def get_preset(name: str) -> ModelSpec:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return factory()

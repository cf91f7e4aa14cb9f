"""Limit dynamics: drift with friction inverse, noise-induced correction, EM.

The effective friction A(x) = gamma(x) + phi*rho(x) enters the limit SDE
through its inverse, and its spatial variation sources an extra drift

    S_i(x) = sum_{j,k} [d/dx_k A(x)^-1]_{ij} J_{jk}(x),
    A J + J A^T = sigma sigma^T,

so the position process solves

    dx = [ -A(x)^-1 (grad V + grad K * rho)(x) + S(x) ] dt + A(x)^-1 sigma(x) dB.

b is the drift of a snapshot's coefficient object (ensemble._Frozen.drift),
which forms S by the product rule d(A^-1) = -A^-1 (dA) A^-1, fed by analytic
coefficient Jacobians (central differences on A when absent).
limit_coefficients forms b and A^-1 sigma at a stack of targets; each limit
step reads it at the particles and the step guard at its stencil points.
"""

from __future__ import annotations

import numpy as np

from .ensemble import (
    NoiseStream,
    OverdampedEnsemble,
    _constant_friction,
    _step_noise,
    conv_gradK,
    mean_field_coefficients,
)
from .errors import StabilityError, StiffnessError, ValidationError
from .model import ModelSpec, fd_step
from .smallmat import invert, min_symmetric_eigenvalue
from .underdamped import _advance, _run_to_end


def limit_coefficients(positions, spec: ModelSpec, at=None):
    """Drift b = -A^-1 F + S (m, d) and diffusion factor A^-1 sigma (m, d, d)
    at the targets `at` (m, d; default: the positions) against the empirical
    measure of `positions` (N, d), formed once for the whole stack.

    Constant A short-circuits S = 0 exactly, and skips the per-target
    matrices. Otherwise b is the drift of mean_field_coefficients' object at
    the targets, and the diffusion factor is sigma / A in 1D (no per-target
    inverse) and the stacked A^-1 sigma in higher d.
    """
    A0 = _constant_friction(spec)
    if A0 is not None:
        if min_symmetric_eigenvalue(A0) <= 0.0:
            raise StabilityError("constant friction not positive definite")
        Ainv = invert(A0)
        X = positions if at is None else np.asarray(at, dtype=float)
        F = spec.grad_V_at(X) + conv_gradK(X, positions, spec)
        D = np.einsum("ij,njk->nik", Ainv, spec.sigma_at(X))
        return -F @ Ainv.T, D
    c = mean_field_coefficients(positions, spec, at=at)
    return c.drift, (c.sigma / c.A if c.X.shape[1] == 1 else c.A_inv @ c.sigma)


def _drift_lipschitz_estimate(spec: ModelSpec, positions):
    """Local Jacobian norm of b at the ensemble mean, measure held fixed:
    central differences on the 2d points x0 +- h e_k, formed in one call."""
    x0 = positions.mean(axis=0)
    h = fd_step(x0)
    steps = h * np.eye(spec.dim)
    b, _ = limit_coefficients(positions, spec, at=np.concatenate([x0 + steps, x0 - steps]))
    return float(np.linalg.norm(b[: spec.dim] - b[spec.dim :], axis=1).max()) / (2.0 * h)


def simulate_limit(
    spec: ModelSpec,
    init: OverdampedEnsemble,
    T: float,
    dt: float,
    stream: NoiseStream,
    snapshot_times=None,
    run_id: int = 0,
    *,
    drive=None,
) -> list[OverdampedEnsemble]:
    """Euler-Maruyama for the limit SDE, emitting states at the given times.

    Coefficients are evaluated on the step-start snapshot (the empirical
    measure is the ensemble itself). Each step consumes one noise index, so
    runs sharing (stream, run_id, dt) are driven by the same increments as
    an underdamped run with the same indices. drive runs the time loop as
    in simulate_underdamped.
    """
    if not dt >= 0:
        raise ValidationError(f"dt must be >= 0, got {dt}")
    d = spec.dim
    if init.dim != d:
        raise ValidationError(f"ensemble dim {init.dim} != spec dim {d}")
    if T > init.t:
        L = _drift_lipschitz_estimate(spec, init.positions)
        if dt * L > 1.0:
            raise StiffnessError(
                f"dt*Lipschitz(b) = {dt * L:.3g} > 1; reduce dt to <= {1.0 / L:.3e}",
                admissible_dt=1.0 / L,
            )

    def step(state, dt_sub):
        X = state.positions
        b, D = limit_coefficients(X, spec)
        xi = _step_noise(stream, run_id, state)
        x_new = X + dt_sub * b + np.sqrt(dt_sub) * np.einsum("nij,nj->ni", D, xi)
        return state.advanced(x_new, dt_sub)

    return (drive or _run_to_end)(_advance(init, T, dt, snapshot_times, step))

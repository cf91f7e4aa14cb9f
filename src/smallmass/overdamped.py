"""Limit dynamics: drift with friction inverse, noise-induced correction, EM.

The effective friction A(x) = gamma(x) + phi*rho(x) enters the limit SDE
through its inverse, and its spatial variation sources an extra drift

    S_i(x) = sum_{j,k} [d/dx_k A(x)^-1]_{ij} J_{jk}(x),
    A J + J A^T = sigma sigma^T,

so the position process solves

    dx = [ -A(x)^-1 (grad V + grad K * rho)(x) + S(x) ] dt + A(x)^-1 sigma(x) dB.

S is computed by the product rule d(A^-1) = -A^-1 (dA) A^-1, fed by analytic
coefficient Jacobians (central differences on A when absent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import (
    NoiseStream,
    OverdampedEnsemble,
    _constant_friction,
    _d_friction_at,
    _positions_of,
    _step_noise,
    conv_gradK,
    conv_phi,
    mean_field_coefficients,
)
from .errors import StabilityError, StiffnessError, ValidationError
from .model import ModelSpec, fd_step
from .smallmat import LyapunovSolution, invert, min_symmetric_eigenvalue, solve_lyapunov
from .underdamped import _advance, _run_to_end


@dataclass(frozen=True)
class LimitCoefficients:
    """Limit-SDE ingredients at one point against a frozen empirical measure."""

    A: np.ndarray
    A_inv: np.ndarray
    F: np.ndarray
    J: LyapunovSolution
    S: np.ndarray


def _checked_friction(x, positions, spec: ModelSpec):
    """(positions, x, A(x)) at one point x; StabilityError unless the
    symmetric part of the friction A(x) is positive definite."""
    positions = _positions_of(positions)
    x = np.asarray(x, dtype=float).reshape(spec.dim)
    A = spec.gamma_at(x) + conv_phi(x, positions, spec)
    if min_symmetric_eigenvalue(A) <= 0.0:
        raise StabilityError(f"friction not positive definite at {x}")
    return positions, x, A


def noise_induced_drift(x, positions, spec: ModelSpec):
    """S(x) against the empirical measure of `positions`, as a d-vector."""
    positions, x, A = _checked_friction(x, positions, spec)
    sig = spec.sigma_at(x)
    J = solve_lyapunov(A, sig @ sig.T).J
    return _product_rule_drift(invert(A), _d_friction_at(x, positions, spec), J)


def _product_rule_drift(Ainv, dA, J):
    """S_i = sum_{j,k} [d_k A^-1]_{ij} J_jk with d_k A^-1 = -A^-1 (d_k A) A^-1,
    for one point or for each point of a stack."""
    dAinv = -np.einsum("...ip,...pqk,...qj->...ijk", Ainv, dA, Ainv)
    return np.einsum("...ijk,...jk->...i", dAinv, J)


def limit_coefficients(x, positions, spec: ModelSpec) -> LimitCoefficients:
    positions, x, A = _checked_friction(x, positions, spec)
    F = spec.grad_V_at(x) + conv_gradK(x, positions, spec)
    sig = spec.sigma_at(x)
    return LimitCoefficients(
        A=A,
        A_inv=invert(A),
        F=F,
        J=solve_lyapunov(A, sig @ sig.T),
        S=noise_induced_drift(x, positions, spec),
    )


def limit_drift(x, positions, spec: ModelSpec):
    """b(x) = -A(x)^-1 F(x) + S(x)."""
    c = limit_coefficients(x, positions, spec)
    return -c.A_inv @ c.F + c.S


def limit_diffusion(x, positions, spec: ModelSpec):
    """A(x)^-1 sigma(x)."""
    positions, x, A = _checked_friction(x, positions, spec)
    return invert(A) @ spec.sigma_at(x)


def _limit_fields(spec: ModelSpec, positions):
    """Per-particle drift b and diffusion factor A^-1 sigma on a frozen snapshot.

    Returns (b, D) of shapes (N, d) and (N, d, d), formed once for the whole
    stack of particles. Constant A short-circuits S = 0 exactly. Otherwise
    the snapshot's coefficients come from mean_field_coefficients: d = 1
    uses the scalar reduction S = -sigma^2 A' / (2 A^3); higher d reads the
    stacked A^-1, J and dA, whose small-matrix kernels return each
    particle's own bits, so b and D equal limit_drift and limit_diffusion
    at every x_i.
    """
    A0 = _constant_friction(spec)
    if A0 is not None:
        if min_symmetric_eigenvalue(A0) <= 0.0:
            raise StabilityError("constant friction not positive definite")
        Ainv = invert(A0)
        F = spec.grad_V_at(positions) + conv_gradK(positions, positions, spec)
        D = np.einsum("ij,njk->nik", Ainv, spec.sigma_at(positions))
        return -F @ Ainv.T, D
    c = mean_field_coefficients(positions, spec)
    if positions.shape[1] == 1:
        a, s, da = c.A[:, 0, 0], c.sigma[:, 0, 0], c.dA[:, 0, 0, 0]
        S = -(s**2) * da / (2.0 * (a * a * a))
        return (-c.F[:, 0] / a + S)[:, None], (s / a)[:, None, None]
    Ainv = c.A_inv
    S = _product_rule_drift(Ainv, c.dA, c.J)
    return (-Ainv @ c.F[..., None])[..., 0] + S, Ainv @ c.sigma


def _drift_lipschitz_estimate(spec: ModelSpec, positions):
    """Local Jacobian norm of b at the ensemble mean, measure held fixed."""
    x0 = positions.mean(axis=0)
    h = fd_step(x0)
    L = 0.0
    for k in range(spec.dim):
        e = np.zeros(spec.dim)
        e[k] = h
        bp = limit_drift(x0 + e, positions, spec)
        bm = limit_drift(x0 - e, positions, spec)
        L = max(L, float(np.linalg.norm(bp - bm)) / (2.0 * h))
    return L


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
        b, D = _limit_fields(spec, X)
        xi = _step_noise(stream, run_id, state)
        x_new = X + dt_sub * b + np.sqrt(dt_sub) * np.einsum("nij,nj->ni", D, xi)
        return state.advanced(x_new, dt_sub)

    return (drive or _run_to_end)(_advance(init, T, dt, snapshot_times, step))

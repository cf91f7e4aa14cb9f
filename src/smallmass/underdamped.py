r"""Time integration of the stiff underdamped particle system.

Per particle, with A = gamma(x) + phi*rho(x) and F = grad V + gradK*rho
evaluated on the frozen start-of-step snapshot,

    eps dv = (-A v - F) dt + sigma dB,    dx = v dt.

Two schemes:

* Euler-Maruyama: explicit, requires dt * lambda_max(sym A) / eps below the
  stability guard, so dt must shrink with eps.
* Exponential: the frozen-coefficient velocity block is a linear SDE whose
  transition law is known exactly,

      v <- E v + A^{-1}(I - E) b + xi,   E = expm(-A dt/eps),  b = -F,

  with xi mean-zero Gaussian, Cov(xi) = (J - E J E^T)/eps and
  A J + J A^T = sigma sigma^T. This is exact in dt for the velocity given
  frozen coefficients, hence stable uniformly in eps. The position update
  uses the trapezoidal velocity, accurate while dt stays within a few
  velocity relaxation times eps/lambda(A). Far beyond that the scheme is
  still stable and the velocity marginal still exact, but the position law
  degrades: the trapezoid holds v for a step it actually decorrelates
  within, inflating position noise by roughly dt*lambda(A)/(2 eps), and
  the step-frozen coefficients average away the noise-induced drift of
  state-dependent friction. Long-step runs demonstrate stability, not
  position accuracy; resolve eps/lambda(A) when the position law matters.

The covariance formula is the stationary-minus-decayed form of the
differential Sylvester solution: d/ds [e^{-As} J e^{-A^T s}] integrates the
noise covariance flow, so Var(v_t) = (J - E J E^T)/eps after time dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import (
    NoiseStream,
    UnderdampedEnsemble,
    _step_noise,
    mean_field_coefficients,
)
from .errors import StiffnessError, ValidationError
from .model import ModelSpec
from .smallmat import _mT, expm

SCHEMES = ("euler_maruyama", "exponential")
# EM rejects a step with dt * lambda_max(sym A) / eps above this
SUBSTEP_GUARD = 0.5


@dataclass(frozen=True)
class UDStepperConfig:
    """Scheme selection and step control for the underdamped integrators.

    run_id tags the noise-stream blocks consumed by this run; coupled runs
    share it, independent runs use distinct ids.
    """

    scheme: str = "exponential"
    dt: float = 1e-3
    run_id: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not self.dt >= 0:
            raise ValidationError(f"dt must be nonnegative, got {self.dt}")


def step_underdamped_em(
    state: UnderdampedEnsemble,
    spec: ModelSpec,
    cfg: UDStepperConfig,
    stream: NoiseStream,
    dt: float | None = None,
) -> UnderdampedEnsemble:
    """One explicit Euler-Maruyama step on the frozen snapshot.

    Rejects a friction that is not positive definite, as the exponential
    step does, and a dt past the stability guard.
    """
    dt = cfg.dt if dt is None else dt
    eps = state.epsilon
    X, V = state.positions, state.velocities
    c = mean_field_coefficients(X, spec)

    lam_max = float(c.eig[:, -1].max())
    if dt * lam_max / eps > SUBSTEP_GUARD:
        admissible = SUBSTEP_GUARD * eps / lam_max
        raise StiffnessError(
            f"EM step dt={dt:.3e} violates the stability guard "
            f"(dt*lam_max/eps = {dt * lam_max / eps:.3f} > {SUBSTEP_GUARD}); "
            f"reduce dt to <= {admissible:.3e} or switch to the exponential scheme",
            admissible_dt=admissible,
        )

    xi = _step_noise(stream, cfg.run_id, state)
    drift = -np.einsum("nij,nj->ni", c.A, V) - c.F
    noise = np.einsum("nij,nj->ni", c.sigma, xi)
    v_new = V + (dt / eps) * drift + (np.sqrt(dt) / eps) * noise
    x_new = X + dt * v_new
    return state.advanced(x_new, v_new, dt)


def _velocity_transition(c, V, dt, eps, xi):
    """Exact velocity after time dt of eps dv = (-A v - F) dt + sigma dB from V.

    c holds the frozen coefficients, one row per row of V and of the unit
    normals xi. Closed form in 1D; in d > 1 one expm of the stack (no scipy
    for a diagonal friction), and xi colored by a PSD-clipped eigenfactor of
    the covariance.
    """
    A, J, b = c.A, c.J, -c.F
    d = A.shape[-1]
    if d == 1:
        a = A[:, 0, 0]
        E = np.exp(-a * dt / eps)
        v_det = E[:, None] * V + ((1.0 - E) * b[:, 0] / a)[:, None]
        std = np.sqrt(np.maximum(J[:, 0, 0] * (1.0 - E * E) / eps, 0.0))
        return v_det + std[:, None] * xi
    E = expm(-A * (dt / eps))
    cov = (J - E @ J @ _mT(E)) / eps
    v_det = E @ V[:, :, None] + c.A_inv @ ((np.eye(d) - E) @ b[:, :, None])
    w, U = np.linalg.eigh(0.5 * (cov + _mT(cov)))
    L = U * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    return v_det[:, :, 0] + (xi[:, None, :] @ _mT(L))[:, 0]


def step_underdamped_exp(
    state: UnderdampedEnsemble,
    spec: ModelSpec,
    cfg: UDStepperConfig,
    stream: NoiseStream,
    dt: float | None = None,
) -> UnderdampedEnsemble:
    """One frozen-coefficient exact exponential step (any dt, any eps)."""
    dt = cfg.dt if dt is None else dt
    eps = state.epsilon
    X, V = state.positions, state.velocities
    c = mean_field_coefficients(X, spec)
    xi = _step_noise(stream, cfg.run_id, state)
    v_new = _velocity_transition(c, V, dt, eps, xi)
    x_new = X + 0.5 * dt * (V + v_new)
    return state.advanced(x_new, v_new, dt)


_STEPPERS = {"euler_maruyama": step_underdamped_em, "exponential": step_underdamped_exp}


def simulate_underdamped(
    spec: ModelSpec,
    init: UnderdampedEnsemble,
    T: float,
    cfg: UDStepperConfig,
    stream: NoiseStream,
    snapshot_times=None,
    *,
    drive=None,
) -> list[UnderdampedEnsemble]:
    """Integrate to T, emitting states at the requested times.

    Substeps are shortened to land exactly on each snapshot time (every
    step consumes one noise index regardless of its length). With
    snapshot_times None, only the final state is returned.

    drive(loop) runs the time loop, a generator that yields the snapshots
    taken so far after each step and returns them all; by default it is
    stepped to its end here. A sweep passes a drive that steps it together
    with other runs; the slice pass, one that consumes each snapshot as it
    arrives.
    """
    stepper = _STEPPERS[cfg.scheme]

    def step(state, dt_sub):
        return stepper(state, spec, cfg, stream, dt=dt_sub)

    return (drive or _run_to_end)(_advance(init, T, cfg.dt, snapshot_times, step))


def _snapshot_targets(t0, T, dt, snapshot_times):
    """Validate and normalize the emission times shared by all integrators."""
    if T < t0:
        raise ValidationError(f"T={T} precedes the initial time {t0}")
    if snapshot_times is None:
        targets = [T]
    else:
        targets = [float(s) for s in snapshot_times]
        if targets != sorted(targets):
            raise ValidationError("snapshot_times must be sorted")
        # past T, the time loop's landing tolerance
        if targets and (targets[0] < t0 - 1e-12 or targets[-1] > T + 1e-12 * max(1.0, abs(T))):
            raise ValidationError("snapshot_times must lie within [init.t, T]")
    if dt == 0.0 and T > t0:
        raise ValidationError("dt=0 cannot reach T > init.t")
    return targets


def _advance(state, T, dt, snapshot_times, step):
    """The time loop of every integrator: state <- step(state, dt_sub) to T.

    A generator that yields after each step and returns the states at the
    snapshot times (only the final one when snapshot_times is None). A
    substep is shortened to land on each target within 1e-12 * max(1, |T|).
    Each yield hands over the list of snapshots filled so far, the one it
    returns; a drive may read and release its entries as they arrive.
    """
    targets = _snapshot_targets(state.t, T, dt, snapshot_times)
    out = []
    tol = 1e-12 * max(1.0, abs(T))
    for target in targets:
        while state.t < target - tol:
            state = step(state, min(dt, target - state.t))
            yield out
        out.append(state)
    return out


def _run_to_end(loop):
    """Step one time loop to its end; its snapshots."""
    while True:
        try:
            next(loop)
        except StopIteration as stop:
            return stop.value

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

The same one-shot exact update, pinned at a fixed x and measure, implements
`frozen_velocity_covariance`: the pinned velocity SDE has genuinely frozen
coefficients, so a single exponential step of length t IS its exact
simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    NoiseStream,
    UnderdampedEnsemble,
    _check_friction_floor,
    conv_gradK,
    conv_phi,
    mean_field_coefficients,
)
from .errors import BlowUpError, StiffnessError, ValidationError
from .model import ModelSpec
from .smallmat import _mT, expm, invert, solve_lyapunov

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
    d = state.dim
    A, F = mean_field_coefficients(X, spec)

    lam_max = float(_check_friction_floor(A, X)[:, -1].max())
    if dt * lam_max / eps > SUBSTEP_GUARD:
        admissible = SUBSTEP_GUARD * eps / lam_max
        raise StiffnessError(
            f"EM step dt={dt:.3e} violates the stability guard "
            f"(dt*lam_max/eps = {dt * lam_max / eps:.3f} > {SUBSTEP_GUARD}); "
            f"reduce dt to <= {admissible:.3e} or switch to the exponential scheme",
            admissible_dt=admissible,
        )

    xi = stream.block(cfg.run_id, state.step + 1, state.N)[:, :d]
    drift = -np.einsum("nij,nj->ni", A, V) - F
    noise = np.einsum("nij,nj->ni", spec.sigma_at(X), xi)
    v_new = V + (dt / eps) * drift + (np.sqrt(dt) / eps) * noise
    x_new = X + dt * v_new
    return _advance_checked(state, x_new, v_new, dt)


def _advance_checked(state, x_new, v_new, dt):
    # detect divergence before the ensemble constructor rejects the arrays
    if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(v_new))):
        raise BlowUpError(
            f"non-finite state after step to t={state.t + dt:.6g}", t=state.t + dt
        )
    return state.advanced(x_new, v_new, dt)


def _gaussian_from_cov(cov, xi):
    """Color unit normals xi (..., n, d) by covariances cov (..., d, d), PSD-clipped."""
    w, U = np.linalg.eigh(0.5 * (cov + _mT(cov)))
    L = U * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    return xi @ _mT(L)


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
    d = state.dim
    A, F = mean_field_coefficients(X, spec)
    _check_friction_floor(A, X)
    b = -F
    xi = stream.block(cfg.run_id, state.step + 1, state.N)[:, :d]

    if d == 1:
        a = A[:, 0, 0]
        s = spec.sigma_at(X)[:, 0, 0]
        E = np.exp(-a * dt / eps)
        J = s * s / (2.0 * a)
        v_det = E[:, None] * V + ((1.0 - E) * b[:, 0] / a)[:, None]
        std = np.sqrt(np.maximum(J * (1.0 - E * E) / eps, 0.0))
        v_new = v_det + std[:, None] * xi
    else:
        sig = spec.sigma_at(X)
        E = expm(-A * (dt / eps))
        J = solve_lyapunov(A, sig @ _mT(sig)).J
        cov = (J - E @ J @ _mT(E)) / eps
        v_det = E @ V[:, :, None] + invert(A) @ ((np.eye(d) - E) @ b[:, :, None])
        v_new = v_det[:, :, 0] + _gaussian_from_cov(cov, xi[:, None, :])[:, 0]
    x_new = X + 0.5 * dt * (V + v_new)
    return _advance_checked(state, x_new, v_new, dt)


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

    drive(loop) runs the time loop, a generator that yields after each step
    and returns the snapshots; by default it is stepped to its end here. A
    sweep passes a drive that steps it in lockstep with other runs.
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
        if targets and (targets[0] < t0 - 1e-12 or targets[-1] > T + 1e-12):
            raise ValidationError("snapshot_times must lie within [init.t, T]")
    if dt == 0.0 and T > t0:
        raise ValidationError("dt=0 cannot reach T > init.t")
    return targets


def _advance(state, T, dt, snapshot_times, step):
    """The time loop of every integrator: state <- step(state, dt_sub) to T.

    A generator that yields after each step and returns the states at the
    snapshot times (only the final one when snapshot_times is None). A
    substep is shortened to land on each target within 1e-12 * max(1, |T|).
    """
    targets = _snapshot_targets(state.t, T, dt, snapshot_times)
    out = []
    tol = 1e-12 * max(1.0, abs(T))
    for target in targets:
        while state.t < target - tol:
            state = step(state, min(dt, target - state.t))
            yield
        out.append(state)
    return out


def _run_to_end(loop):
    """Step one time loop to its end; its snapshots."""
    while True:
        try:
            next(loop)
        except StopIteration as stop:
            return stop.value


def _lockstep(loops, abort):
    """Step each time loop once per round, in order, until every one has ended.

    Returns, per loop, its snapshots or the exception that ended it, and the
    seconds spent in its own steps. Loops that read the same noise block at
    the same step ask for it one after another, so a stream that keeps its
    last block draws it once. abort is a list that other lockstep groups may
    share: once it holds an exception, every loop still running ends with
    that exception instead of taking its next step.
    """
    outcomes = [None] * len(loops)
    seconds = [0.0] * len(loops)
    live = list(range(len(loops)))
    while live:
        for i in live:
            if abort:
                outcomes[i] = abort[0]
                continue
            started = time.perf_counter()
            try:
                next(loops[i])
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:
                outcomes[i] = exc
            seconds[i] += time.perf_counter() - started
        live = [i for i in live if outcomes[i] is None]
    return list(zip(outcomes, seconds))


def frozen_velocity_covariance(
    spec: ModelSpec,
    x,
    measure,
    epsilon: float,
    t: float,
    reps: int,
    stream: NoiseStream,
    run_id: int = 0,
):
    """eps * E[v (x) v] at time t for the velocity SDE pinned at x.

    The pinned process has frozen coefficients (A, F, sigma evaluated at x
    against the fixed measure) and starts from v = 0, so its time-t law is
    Gaussian with mean A^{-1}(I - E)b and covariance (J - E J E^T)/eps; one
    exact exponential draw per replica realizes it. Returns the (d, d)
    matrix eps * mean(v v^T) and its Monte Carlo standard-error matrix.
    """
    reps = int(reps)
    if reps < 2:
        raise ValidationError("reps must be at least 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = spec.dim
    if x.shape != (d,):
        raise ValidationError(f"x must have shape ({d},), got {x.shape}")
    if not (epsilon > 0 and t >= 0):
        raise ValidationError("need epsilon > 0 and t >= 0")

    A = spec.gamma_at(x[None])[0] + conv_phi(x, measure, spec)
    F = spec.grad_V_at(x[None])[0] + conv_gradK(x, measure, spec)
    sig = spec.sigma_at(x[None])[0]
    _check_friction_floor(A[None], x[None])

    E = expm(-A * (t / epsilon))
    J = solve_lyapunov(A, sig @ sig.T).J
    mu = invert(A) @ ((np.eye(d) - E) @ (-F))
    cov = (J - E @ J @ E.T) / epsilon

    xi = stream.block(run_id, 1, reps)[:, :d]
    v = mu + _gaussian_from_cov(cov, xi)
    outer = v[:, :, None] * v[:, None, :]
    second = epsilon * np.mean(outer, axis=0)
    stderr = epsilon * np.std(outer, axis=0, ddof=1) / np.sqrt(reps)
    return second, stderr

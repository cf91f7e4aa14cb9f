"""Particle containers, empirical-measure convolutions, and the noise source.

The law of the McKean-Vlasov dynamics is represented throughout by the
empirical measure of the ensemble, so the convolution fields are plain
pair sums over particles,

    phi*rho(x)    ~ (1/N) sum_j phi(x - x_j)          (d x d)
    gradK*rho(x)  ~ (1/N) sum_j grad K(x - x_j)       (d,)

including the self term j = i. Constant and linear kernels (the preset
cases) short-circuit the O(N^2) sum exactly; the generic path chunks the
pair sum over targets to bound memory and keeps a fixed index-order
reduction for reproducibility.

NoiseStream is a counter-based Gaussian source: the draw at
(run, particle, step, component) is a pure function of the master seed and
the index tuple, independent of thread count and call order. Each
(run, step) pair keys one Philox block; a block holds 8 lanes per particle
(the max state dimension), so the scalar draw sits at flat index
8*particle + component inside the block regardless of d. A stream keeps
its last block, read-only, and hands the same array to the next request
for the same (run, step, n), so coupled runs stepped in lockstep on one
stream (a sweep's epsilon group) draw each step's block once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import StabilityError, ValidationError
from .model import (
    MAX_DIM,
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
)
from .smallmat import _symmetric_eigenvalues

D_MAX = MAX_DIM  # noise lanes per (particle, step), one per state dimension
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # key filler word

# reserved utility run ids (dynamics runs use small nonnegative ids)
RUN_INIT_POSITIONS = 2**32
RUN_INIT_VELOCITIES = 2**32 + 1
RUN_W2_PROJECTIONS = 2**32 + 2

# chunk budget (floats) for the generic O(N^2) pair sums
_PAIR_CHUNK_BUDGET = 1 << 22


class NoiseStream:
    """Deterministic counter-based standard-normal source.

    One Philox4x64 block per (run, step): key = (master_seed, golden), the
    256-bit counter carries step and run in its two high words, leaving the
    low 128 bits for in-block advancement. Blocks never split across
    threads; the block draw is a single vectorized call.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed) & _MASK64
        # ((run, step, n), block) of the last draw; one tuple, so a thread
        # reads a key and its block together
        self._last = None

    def _generator(self, run: int, step: int) -> np.random.Generator:
        run = int(run)
        step = int(step)
        if not (0 <= run <= _MASK64 and 0 <= step <= _MASK64):
            raise ValidationError("run and step must fit in 64 bits")
        bg = np.random.Philox(
            counter=[0, 0, step, run], key=[self.master_seed, _GOLDEN]
        )
        return np.random.Generator(bg)

    def block(self, run: int, step: int, n: int) -> np.ndarray:
        """(n, 8) standard normals for particles 0..n-1 at (run, step).

        Read-only: a repeat of the last request returns the same array.
        """
        n = int(n)
        if n < 0:
            raise ValidationError("block size must be nonnegative")
        key = (int(run), int(step), n)
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        out = self._generator(run, step).standard_normal(n * D_MAX).reshape(n, D_MAX)
        out.flags.writeable = False
        self._last = (key, out)
        return out

    def gaussian(self, run: int, particle: int, step: int, component: int) -> float:
        """Scalar draw; equals block(run, step, .)[particle, component]."""
        particle = int(particle)
        component = int(component)
        if particle < 0 or not (0 <= component < D_MAX):
            raise ValidationError(
                f"particle must be >= 0 and component in [0, {D_MAX})"
            )
        idx = particle * D_MAX + component
        gen = self._generator(run, step)
        return float(gen.standard_normal(idx + 1)[-1])


@dataclass(frozen=True)
class UnderdampedEnsemble:
    """Phase-space particle state (positions, velocities) at time t.

    step counts completed integrator steps since the run started and indexes
    the noise blocks; it is plumbing, not physics.
    """

    epsilon: float
    t: float
    positions: np.ndarray
    velocities: np.ndarray
    step: int = 0

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        v = np.asarray(self.velocities, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValidationError(f"positions must be (N, d) with N >= 1, got {x.shape}")
        if v.shape != x.shape:
            raise ValidationError(
                f"velocities shape {v.shape} does not match positions {x.shape}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValidationError("ensemble state has non-finite entries")
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "velocities", v)

    @property
    def N(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def advanced(self, positions, velocities, dt) -> "UnderdampedEnsemble":
        return replace(
            self,
            positions=positions,
            velocities=velocities,
            t=self.t + dt,
            step=self.step + 1,
        )


@dataclass(frozen=True)
class OverdampedEnsemble:
    """Position-only particle state of the limit dynamics."""

    t: float
    positions: np.ndarray
    step: int = 0

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValidationError(f"positions must be (N, d) with N >= 1, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValidationError("ensemble state has non-finite entries")
        object.__setattr__(self, "positions", x)

    @property
    def N(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def advanced(self, positions, dt) -> "OverdampedEnsemble":
        return replace(self, positions=positions, t=self.t + dt, step=self.step + 1)


def _positions_of(ens) -> np.ndarray:
    if isinstance(ens, (UnderdampedEnsemble, OverdampedEnsemble)):
        return ens.positions
    x = np.asarray(ens, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"expected ensemble or (N, d) positions, got shape {x.shape}")
    return x


def _pair_mean(field_at, targets, positions, core):
    """(1/N) sum_j f(x - x_j) for each row x of targets: (n, d) -> (n, *core).

    Chunked over targets so one chunk holds at most _PAIR_CHUNK_BUDGET
    floats; each target's sum runs over j in index order.
    """
    n = positions.shape[0]
    out = np.empty((targets.shape[0],) + core)
    chunk = max(1, _PAIR_CHUNK_BUDGET // max(1, n * math.prod(core)))
    for lo in range(0, targets.shape[0], chunk):
        diffs = targets[lo : lo + chunk, None, :] - positions[None, :, :]
        # np.mean(..., axis=1) without its wrapper: the same sum, then / n
        out[lo : lo + chunk] = np.add.reduce(field_at(diffs), axis=1) / n
    return out


def conv_phi(x, ens, spec: ModelSpec) -> np.ndarray:
    """Empirical convolution phi*rho at target(s) x: (..., d) -> (..., d, d)."""
    positions = _positions_of(ens)
    x = np.asarray(x, dtype=float)
    d = spec.dim
    if isinstance(spec.phi, ConstantMatrixField):
        return np.broadcast_to(spec.phi.M, x.shape[:-1] + (d, d))
    out = _pair_mean(spec.phi_at, x.reshape(-1, d), positions, (d, d))
    return out.reshape(x.shape[:-1] + (d, d))


def conv_gradK(x, ens, spec: ModelSpec) -> np.ndarray:
    """Empirical convolution gradK*rho at target(s) x: (..., d) -> (..., d)."""
    positions = _positions_of(ens)
    x = np.asarray(x, dtype=float)
    d = spec.dim
    if isinstance(spec.grad_K, ZeroVectorField):
        return np.zeros_like(x)
    if isinstance(spec.grad_K, LinearVectorField):
        return spec.grad_K.coef * (x - np.mean(positions, axis=0))
    out = _pair_mean(spec.grad_K_at, x.reshape(-1, d), positions, (d,))
    return out.reshape(x.shape)


def empirical_moment2(ens) -> float:
    """(1/N) sum_i |x_i|^2 over the ensemble positions."""
    x = _positions_of(ens)
    return float(np.mean(np.sum(x * x, axis=1)))


def mean_field_coefficients(positions, spec: ModelSpec):
    """Per-particle effective friction and force on a frozen snapshot.

    Returns (A, F) with A = gamma(x_i) + phi*rho(x_i) of shape (N, d, d)
    and F = grad V(x_i) + gradK*rho(x_i) of shape (N, d), where rho is the
    empirical measure of the same positions (self term included).
    """
    positions = _positions_of(positions)
    A = spec.gamma_at(positions) + conv_phi(positions, positions, spec)
    F = spec.grad_V_at(positions) + conv_gradK(positions, positions, spec)
    return A, F


def _check_friction_floor(A, points) -> np.ndarray:
    """Raise StabilityError unless every friction in the (n, d, d) stack A
    has a positive definite symmetric part; points[i] locates A[i].

    Returns the ascending eigenvalues (n, d) of the symmetric parts.
    """
    eig = _symmetric_eigenvalues(A)
    lam = eig[:, 0]
    i = int(np.argmin(lam))
    if lam[i] <= 0.0:
        raise StabilityError(
            f"friction not positive definite at {points[i]} "
            f"(min symmetric eigenvalue {lam[i]:.6e})"
        )
    return eig

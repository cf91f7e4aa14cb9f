"""Particle containers, the model against the empirical measure, and the noise source.

The law of the McKean-Vlasov dynamics is represented throughout by the
empirical measure of the ensemble, so the convolution fields are plain
pair sums over particles,

    phi*rho(x)    ~ (1/N) sum_j phi(x - x_j)          (d x d)
    gradK*rho(x)  ~ (1/N) sum_j grad K(x - x_j)       (d,)
    dphi*rho(x)   ~ (1/N) sum_j dphi(x - x_j)         (d x d x d)

including the self term j = i; they give the friction gamma + phi*rho, the
force grad V + gradK*rho and the friction Jacobian dgamma + dphi*rho.
Constant and linear kernels (the preset cases) short-circuit the O(N^2)
sum exactly; the generic path chunks the pair sum over targets to bound
memory. For kernels built of elementwise operations its reduction order
over j is fixed by d alone, so a target's sum has the same bits in any
chunk or batch: index order for d > 1, numpy's pairwise sum in 1D (see
_pair_mean).

NoiseStream is a counter-based Gaussian source: the draw at
(run, particle, step, component) is a pure function of the master seed and
the index tuple, independent of thread count, call order, block size and
lane count. Lane c of the (run, step) block is its own Philox sequence,
with c in a counter word, and particle i reads that sequence's draw i; a
block holds the lanes its caller reads (d for a step), so a 1D step draws
one normal per particle. A stream keeps its last block, read-only, and
hands the same array to the next request for the same (run, step, n,
lanes), so coupled runs stepped in lockstep on one stream (a sweep's
shared group) draw each step's block once.

Every integrator and estimator reads a snapshot's per-particle coefficients
from mean_field_coefficients, which forms and checks them in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BlowUpError, StabilityError, ValidationError
from .model import (
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
)
from .smallmat import _stationary_covariance, _symmetric_eigenvalues, invert

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # key filler word

# reserved utility run ids (dynamics runs use small nonnegative ids)
RUN_INIT_POSITIONS = 2**32
RUN_INIT_VELOCITIES = 2**32 + 1
RUN_W2_PROJECTIONS = 2**32 + 2

# chunk budget (floats) for the generic O(N^2) pair sums
_PAIR_CHUNK_BUDGET = 1 << 22
# numpy sums a contiguous run of this many floats or more pairwise
_PAIRWISE_RUN = 8


class NoiseStream:
    """Deterministic counter-based standard-normal source.

    One Philox4x64 sequence per (run, step, lane): key = (master_seed,
    golden), the 256-bit counter carries run, step and lane in its three
    high words, leaving the low 64 bits for in-block advancement. Blocks
    never split across threads; each lane is a single vectorized call.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        if not 0 <= self.master_seed <= _MASK64:
            raise ValidationError(f"master seed must lie in [0, 2**64), got {master_seed}")
        # ((run, step, n, lanes), block) of the last draw; one tuple, so a
        # thread reads a key and its block together
        self._last = None

    def _generator(self, run: int, step: int, lane: int) -> np.random.Generator:
        bg = np.random.Philox(
            counter=[0, lane, step, run], key=[self.master_seed, _GOLDEN]
        )
        return np.random.Generator(bg)

    def block(self, run: int, step: int, n: int, lanes: int) -> np.ndarray:
        """(n, lanes) standard normals for particles 0..n-1 at (run, step):
        column c holds the first n draws of lane c's sequence.

        C-contiguous and read-only: a repeat of the last request returns the
        same array.
        """
        key = run, step, n, lanes = int(run), int(step), int(n), int(lanes)
        if not (0 <= run <= _MASK64 and 0 <= step <= _MASK64):
            raise ValidationError("run and step must fit in 64 bits")
        if n < 0 or lanes < 0:
            raise ValidationError("block size and lane count must be nonnegative")
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        out = np.empty((n, lanes))
        for c in range(lanes):
            out[:, c] = self._generator(run, step, c).standard_normal(n)
        out.flags.writeable = False
        self._last = (key, out)
        return out


def _step_noise(stream: NoiseStream, run_id: int, state) -> np.ndarray:
    """The (N, d) unit normals that drive `state`'s next step of run run_id."""
    return stream.block(run_id, state.step + 1, state.N, state.dim)


class _Ensemble:
    """What both ensembles share: their sizes and the step to the next state."""

    @property
    def N(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def _set_state(self, *names):
        """Store the named fields as float arrays once they are checked: the
        first is (N, d) with N >= 1, the rest share its shape, all are finite."""
        x, *rest = arrays = [np.asarray(getattr(self, n), dtype=float) for n in names]
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValidationError(f"{names[0]} must be (N, d) with N >= 1, got {x.shape}")
        for n, a in zip(names[1:], rest):
            if a.shape != x.shape:
                raise ValidationError(f"{n} shape {a.shape} does not match {names[0]} {x.shape}")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValidationError("ensemble state has non-finite entries")
        self.__dict__.update(zip(names, arrays))  # the frozen fields, as _advanced sets them

    def _advanced(self, dt, **arrays):
        """This state one step of length dt later, holding a step's new arrays.

        The one check of a step's result: a changed shape raises
        ValidationError, a non-finite entry BlowUpError at the new time. The
        frozen instance is built without __post_init__, which would repeat it.
        """
        t = self.t + dt
        shape = self.positions.shape
        for a in arrays.values():
            if a.shape != shape:
                raise ValidationError(f"step changed the state shape {shape} to {a.shape}")
        for a in arrays.values():
            if not np.isfinite(a).all():
                raise BlowUpError(f"non-finite state after step to t={t:.6g}", t=t)
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, t=t, step=self.step + 1, **arrays)
        return new


@dataclass(frozen=True)
class UnderdampedEnsemble(_Ensemble):
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
        self._set_state("positions", "velocities")
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")

    def advanced(self, positions, velocities, dt) -> "UnderdampedEnsemble":
        return self._advanced(dt, positions=positions, velocities=velocities)


@dataclass(frozen=True)
class OverdampedEnsemble(_Ensemble):
    """Position-only particle state of the limit dynamics."""

    t: float
    positions: np.ndarray
    step: int = 0

    def __post_init__(self):
        self._set_state("positions")

    def advanced(self, positions, dt) -> "OverdampedEnsemble":
        return self._advanced(dt, positions=positions)


def _positions_of(ens) -> np.ndarray:
    if isinstance(ens, (UnderdampedEnsemble, OverdampedEnsemble)):
        return ens.positions
    x = np.asarray(ens, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"expected ensemble or (N, d) positions, got shape {x.shape}")
    return x


def _pair_mean(field_at, targets, positions, core):
    """(1/N) sum_j f(x - x_j) for each target x: (..., d) -> (..., *core).

    Chunked over targets at N (d + 2 prod(core)) floats of
    _PAIR_CHUNK_BUDGET each: differences, output and kernel temporaries.
    For 1 < d < 8 the (m, N, d) differences view an (N, d, m) buffer, so
    the kernel runs on contiguous m-long planes, one per source, and each
    sum over j adds the planes in index order, as C order does for d > 1.
    In 1D, C order makes j contiguous and numpy sums it pairwise. At d = 8
    numpy would sum the kernel's contiguous runs over d (|z|^2) pairwise in
    C order but sequentially in planes, so C order stays.

    Each sum over j is numpy's on the kernel's output in C order. An output
    laid out as its input (gaussian-interaction-2d's phi) can make j the
    contiguous axis, as at a one-target chunk; numpy would then sum j
    pairwise, which C order does only in 1D, so it is copied to C order.
    """
    n, d = positions.shape
    lead = targets.shape[:-1]
    targets = targets.reshape(-1, d)
    out = np.empty((targets.shape[0],) + core)
    chunk = max(1, _PAIR_CHUNK_BUDGET // max(1, n * (d + 2 * math.prod(core))))
    for lo in range(0, targets.shape[0], chunk):
        t = targets[lo : lo + chunk]
        if 1 < d < _PAIRWISE_RUN:
            buf = np.empty((n, d, t.shape[0]))
            np.subtract(t.T[None], positions[:, :, None], out=buf)
            diffs = buf.transpose(2, 0, 1)
        else:
            diffs = t[:, None, :] - positions[None, :, :]
        vals = field_at(diffs)
        if vals.strides[1] == vals.itemsize:
            vals = np.ascontiguousarray(vals)
        # np.mean(..., axis=1) without its wrapper: the same sum, then / n
        out[lo : lo + chunk] = np.add.reduce(vals, axis=1) / n
    return out.reshape(lead + core)


def conv_phi(x, ens, spec: ModelSpec) -> np.ndarray:
    """Empirical convolution phi*rho at target(s) x: (..., d) -> (..., d, d)."""
    positions = _positions_of(ens)
    x = np.asarray(x, dtype=float)
    d = spec.dim
    if isinstance(spec.phi, ConstantMatrixField):
        return spec.phi(x)
    return _pair_mean(spec.phi_at, x, positions, (d, d))


def conv_gradK(x, ens, spec: ModelSpec) -> np.ndarray:
    """Empirical convolution gradK*rho at target(s) x: (..., d) -> (..., d)."""
    positions = _positions_of(ens)
    x = np.asarray(x, dtype=float)
    d = spec.dim
    if isinstance(spec.grad_K, ZeroVectorField):
        return np.zeros_like(x)
    if isinstance(spec.grad_K, LinearVectorField):
        # np.mean(positions, axis=0) without its wrapper, as in _pair_mean
        mean = np.add.reduce(positions, axis=0) / positions.shape[0]
        return spec.grad_K.coef * (x - mean)
    return _pair_mean(spec.grad_K_at, x, positions, (d,))


def _conv_dphi(x, positions, spec: ModelSpec):
    """Empirical convolution dphi*rho at target(s) x: (..., d) -> (..., d, d, d)."""
    d = spec.dim
    x = np.asarray(x, dtype=float)
    if isinstance(spec.phi, ConstantMatrixField):
        return np.zeros(x.shape[:-1] + (d, d, d))
    return _pair_mean(spec.d_phi_at, x, positions, (d, d, d))


def _d_friction_at(x, positions, spec: ModelSpec):
    """Friction Jacobian dgamma + dphi*rho at target(s) x: (..., d) -> (..., d, d, d)."""
    return spec.d_gamma_at(x) + _conv_dphi(x, positions, spec)


def _no_pair_sums(spec: ModelSpec) -> bool:
    """Whether conv_phi and conv_gradK evaluate spec without an O(N^2) pair sum."""
    return isinstance(spec.phi, ConstantMatrixField) and isinstance(
        spec.grad_K, (ZeroVectorField, LinearVectorField)
    )


def empirical_moment2(ens) -> float:
    """(1/N) sum_i |x_i|^2 over the ensemble positions."""
    x = _positions_of(ens)
    return float(np.mean(np.sum(x * x, axis=1)))


@dataclass(eq=False)
class _Frozen:
    """Coefficients at n targets X against the measure of one snapshot, state.

    law holds the measure's positions, None when they are X. A = gamma +
    phi*rho (n, d, d), F = grad V + gradK*rho (n, d) and eig (n, d), the
    ascending eigenvalues of each symmetric part of A, are formed at once.
    sigma, J with A J + J A^T = sigma sigma^T, A_inv, the friction
    Jacobian dA (n, d, d, d) and the limit drift (n, d) are formed on first
    read and kept: a step or estimator pays only for what it reads. Per-psi
    results at X are computed once each (see `once`).
    """

    state: object
    X: np.ndarray
    A: np.ndarray
    F: np.ndarray
    eig: np.ndarray
    spec: ModelSpec
    memo: dict = field(default_factory=dict, repr=False)
    law: np.ndarray | None = field(default=None, kw_only=True, repr=False)

    @cached_property
    def sigma(self) -> np.ndarray:
        return self.spec.sigma_at(self.X)

    @cached_property
    def J(self) -> np.ndarray:
        return _stationary_covariance(self.A, self.sigma)

    @cached_property
    def A_inv(self) -> np.ndarray:
        return invert(self.A)

    @cached_property
    def dA(self) -> np.ndarray:
        return _d_friction_at(self.X, self.X if self.law is None else self.law, self.spec)

    @cached_property
    def drift(self) -> np.ndarray:
        """Limit drift b = -A^-1 F + S (n, d), S_i = sum_{j,k} [d_k A^-1]_ij J_jk:
        S = -sigma^2 A' / (2 A^3) in 1D, else by d_k A^-1 = -A^-1 (d_k A) A^-1."""
        if self.X.shape[1] == 1:
            a, s, da = self.A[:, 0, 0], self.sigma[:, 0, 0], self.dA[:, 0, 0, 0]
            S = -(s**2) * da / (2.0 * (a * a * a))
            return (-self.F[:, 0] / a + S)[:, None]
        Ainv = self.A_inv
        dAinv = -np.einsum("...ip,...pqk,...qj->...ijk", Ainv, self.dA, Ainv)
        S = np.einsum("...ijk,...jk->...i", dAinv, self.J)
        return (-Ainv @ self.F[..., None])[..., 0] + S

    def once(self, tag, psi, compute):
        """compute() for (tag, psi), evaluated on the first request only."""
        key = (tag, id(psi))
        if key not in self.memo:
            # the entry holds psi, so its id is not reused while the entry lives
            self.memo[key] = (psi, compute())
        return self.memo[key][1]

    def psi_at(self, psi):
        """psi's values (n, d) and gradients (n, d, d) at X."""
        X = self.X
        return self.once("psi", psi, lambda: (psi.value_at(X), psi.gradient_at(X)))


def mean_field_coefficients(state, spec: ModelSpec, at=None) -> _Frozen:
    """Coefficients at the targets `at` (m, d), their friction floor checked.

    state is an ensemble or its (N, d) positions, and rho is the empirical
    measure of those positions (self term included); the targets default to
    the same positions. Raises StabilityError unless every target's A has a
    positive definite symmetric part.
    """
    law = _positions_of(state)
    X = law if at is None else np.asarray(at, dtype=float)
    A = spec.gamma_at(X) + conv_phi(X, law, spec)
    F = spec.grad_V_at(X) + conv_gradK(X, law, spec)
    eig = _symmetric_eigenvalues(A)
    i = int(np.argmin(eig[:, 0]))
    if eig[i, 0] <= 0.0:
        raise StabilityError(
            f"friction not positive definite at {X[i]} "
            f"(min symmetric eigenvalue {eig[i, 0]:.6e})"
        )
    return _Frozen(state, X, A, F, eig, spec, law=None if at is None else law)

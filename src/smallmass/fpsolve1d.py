"""Finite-volume solver for the d=1 limit Fokker-Planck equation.

    d_t rho = d_x[ (V' + K'*rho)/A . rho ] + d_x[ A^-1 d_x(rho J) ],
    A = gamma + phi*rho,   J = sigma^2 / (2 A),

in conservative face-flux form with zero-flux walls on [-L, L]:

    rho_m <- rho_m - (dt/h)(F_{m+1/2} - F_{m-1/2}),
    F = -u rho_face - A^-1 (Delta(rho J)/h),   u = (V' + K'*rho)/A.

The advective face value is centered while the face Peclet number
|u| h A / J stays <= 2 and switches to upwinding beyond, so smooth
resolved profiles see a second-order flux (stationary residuals and
refinement errors scale like h^2) without losing robustness in
advection-dominated cells. The diffusion term keeps the operator grouping
A^-1 d_x(rho J) rather than expanding it. Convolutions are explicit in
rho (lagged one step) via precomputed O(M^2) kernel matrices; constant
phi and linear/zero K' short-circuit them exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CFLError, StabilityError, ValidationError
from .model import ConstantMatrixField, LinearVectorField, ModelSpec, ZeroVectorField
from .underdamped import _advance, _run_to_end

_MASS_TOL = 1e-9  # Grid1D's tolerance, met by every step's grid; the
#                   conservation *drift* over long runs is tested at 1e-12
_CLIP_FLOOR = -1e-8  # undershoot below this is instability, not rounding
_BOUNDARY_MASS_WARN = 1e-8


def cell_centers(L, M):
    h = 2.0 * L / M
    return -L + h * (np.arange(M) + 0.5)


@dataclass(frozen=True)
class Grid1D:
    """Cell-averaged density on [-L, L] with M uniform cells."""

    L: float
    M: int
    density: np.ndarray
    t: float = 0.0
    clip_count: int = 0

    def __post_init__(self):
        if not (self.L > 0.0 and np.isfinite(self.L)):
            raise ValidationError(f"half-width L must be positive, got {self.L}")
        if self.M < 4:
            raise ValidationError(f"need at least 4 cells, got {self.M}")
        rho = np.asarray(self.density, dtype=float)
        if rho.shape != (self.M,):
            raise ValidationError(
                f"density shape {rho.shape} does not match M={self.M}"
            )
        if not np.logical_and.reduce(np.isfinite(rho)):
            raise ValidationError("density has non-finite entries")
        if np.minimum.reduce(rho) < 0.0:
            raise ValidationError("density has negative entries")
        mass = self.h * np.add.reduce(rho)
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValidationError(
                f"density mass {mass:.12g} is not 1 within {_MASS_TOL:g}"
            )
        object.__setattr__(self, "density", rho)

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def centers(self) -> np.ndarray:
        return cell_centers(self.L, self.M)

    @classmethod
    def from_values(cls, L, M, values, t=0.0) -> "Grid1D":
        """Normalize nonnegative cell values into a unit-mass grid."""
        values = np.asarray(values, dtype=float)
        h = 2.0 * L / M
        mass = h * values.sum()
        if not (mass > 0.0 and np.isfinite(mass)):
            raise ValidationError(f"cannot normalize values with mass {mass}")
        return cls(L=float(L), M=int(M), density=values / mass, t=float(t))


@dataclass(frozen=True)
class _FPCache:
    gamma_c: np.ndarray
    gamma_f: np.ndarray
    sig2_c: np.ndarray
    sig2_f: np.ndarray
    gV_f: np.ndarray
    phi_const: float | None
    phiK_c: np.ndarray | None  # (M, M) kernel matrix, else None
    phiK_f: np.ndarray | None
    K_mode: str  # "zero" | "linear" | "matrix"
    K_coef: float
    gradK_f: np.ndarray | None
    x_c: np.ndarray
    x_f: np.ndarray


def _scalar_field(field_at, x):
    return field_at(x[:, None])[..., 0, 0]


def _build_cache(grid: Grid1D, spec: ModelSpec) -> _FPCache:
    if spec.dim != 1:
        raise ValidationError(f"fp solver is d=1 only, got dim={spec.dim}")
    x_c = grid.centers
    x_f = x_c[:-1] + 0.5 * grid.h
    gamma_c = _scalar_field(spec.gamma_at, x_c)
    gamma_f = _scalar_field(spec.gamma_at, x_f)
    sig_c = _scalar_field(spec.sigma_at, x_c)
    sig_f = _scalar_field(spec.sigma_at, x_f)
    gV_f = spec.grad_V_at(x_f[:, None])[:, 0]
    if isinstance(spec.phi, ConstantMatrixField):
        phi_const = float(np.asarray(spec.phi.M).reshape(()))
        phiK_c = phiK_f = None
    else:
        phi_const = None
        phiK_c = spec.phi_at((x_c[:, None] - x_c[None, :])[..., None])[..., 0, 0]
        phiK_f = spec.phi_at((x_f[:, None] - x_c[None, :])[..., None])[..., 0, 0]
    if isinstance(spec.grad_K, ZeroVectorField):
        K_mode, K_coef, gradK_f = "zero", 0.0, None
    elif isinstance(spec.grad_K, LinearVectorField):
        K_mode, K_coef, gradK_f = "linear", float(spec.grad_K.coef), None
    else:
        K_mode, K_coef = "matrix", 0.0
        gradK_f = spec.grad_K_at((x_f[:, None] - x_c[None, :])[..., None])[..., 0]
    return _FPCache(
        gamma_c=gamma_c, gamma_f=gamma_f, sig2_c=sig_c**2, sig2_f=sig_f**2,
        gV_f=gV_f, phi_const=phi_const, phiK_c=phiK_c, phiK_f=phiK_f,
        K_mode=K_mode, K_coef=K_coef, gradK_f=gradK_f, x_c=x_c, x_f=x_f,
    )


def _face_fluxes(grid: Grid1D, cache: _FPCache):
    """Interior face fluxes F plus the pieces the CFL bound needs."""
    rho = grid.density
    h = grid.h
    mass = h * np.add.reduce(rho)
    if cache.phi_const is not None:
        phi_c = cache.phi_const * mass
        phi_f = phi_c
    else:
        phi_c = h * (cache.phiK_c @ rho)
        phi_f = h * (cache.phiK_f @ rho)
    A_c = cache.gamma_c + phi_c
    A_f = cache.gamma_f + phi_f
    if np.minimum.reduce(A_c) <= 0.0 or np.minimum.reduce(A_f) <= 0.0:
        raise StabilityError("effective friction not positive on the grid")
    if cache.K_mode == "zero":
        Kconv = 0.0
    elif cache.K_mode == "linear":
        Kconv = cache.K_coef * (cache.x_f * mass - h * (cache.x_c @ rho))
    else:
        Kconv = h * (cache.gradK_f @ rho)
    u = (cache.gV_f + Kconv) / A_f
    J_c = cache.sig2_c / (2.0 * A_c)
    J_f = cache.sig2_f / (2.0 * A_f)

    centered = 0.5 * (rho[:-1] + rho[1:])
    upwind = np.where(u < 0.0, rho[:-1], rho[1:])
    # Peclet |u| h A / J <= 2, multiplied out: J = 0 is centered only where u = 0
    rho_face = np.where(np.abs(u) * h * A_f <= 2.0 * J_f, centered, upwind)

    rj = rho * J_c
    F = -u * rho_face - (rj[1:] - rj[:-1]) / (h * A_f)
    return F, u, A_c, J_c


def _cfl_admissible(grid: Grid1D, u, A_c, J_c) -> float:
    h = grid.h
    umax = float(np.maximum.reduce(np.abs(u)))
    jmax = float(np.maximum.reduce(J_c))
    adv = h / umax if umax > 0.0 else np.inf
    dif = h * h * float(np.minimum.reduce(A_c)) / jmax if jmax > 0.0 else np.inf
    return 0.4 * min(adv, dif)


def fp_step(grid: Grid1D, spec: ModelSpec, dt, cache: _FPCache | None = None) -> Grid1D:
    """One conservative explicit step; dt is checked against the CFL bound."""
    if not dt >= 0.0:
        raise ValidationError(f"dt must be >= 0, got {dt}")
    if dt == 0.0:
        return grid
    if cache is None:
        cache = _build_cache(grid, spec)
    F, u, A_c, J_c = _face_fluxes(grid, cache)
    admissible = _cfl_admissible(grid, u, A_c, J_c)
    if dt > admissible or dt == np.inf:  # inf is no step, even where nothing bounds it
        raise CFLError(
            f"dt={dt:.3e} violates the CFL bound; reduce to <= {admissible:.3e}",
            admissible_dt=admissible,
        )
    # flux differences with zero-flux walls: F_{m+1/2} - F_{m-1/2}
    div = np.empty(grid.M)
    div[0] = F[0]
    np.subtract(F[1:], F[:-1], out=div[1:-1])
    div[-1] = 0.0 - F[-1]
    new = grid.density - (dt / grid.h) * div
    clipped = 0
    low = np.minimum.reduce(new)
    if low < 0.0:
        if low < _CLIP_FLOOR:
            raise StabilityError(
                f"density undershoot {low:.3e} exceeds rounding scale"
            )
        clipped = int(np.count_nonzero(new < 0.0))
        new = np.clip(new, 0.0, None)
    return Grid1D(
        L=grid.L, M=grid.M, density=new, t=grid.t + dt,
        clip_count=grid.clip_count + clipped,
    )


def fp_solve(spec: ModelSpec, grid0: Grid1D, T, dt, snapshot_times=None) -> list[Grid1D]:
    """Integrate to T, emitting grids at the requested times.

    Every step's grid passes the Grid1D mass check; boundary cells are
    watched so domain truncation stays visible.
    """
    cache = _build_cache(grid0, spec)
    warned = False

    def step(grid, dt_sub):
        nonlocal warned
        grid = fp_step(grid, spec, dt_sub, cache=cache)
        edge = max(grid.density[0], grid.density[-1])
        if edge > _BOUNDARY_MASS_WARN and not warned:
            warnings.warn(
                f"boundary density {edge:.3e} at t={grid.t:.6g}; "
                "domain may be too small",
                stacklevel=4,
            )
            warned = True
        return grid

    return _run_to_end(_advance(grid0, T, dt, snapshot_times, step))

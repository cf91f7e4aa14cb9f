"""Density oracles for the tests of `fpsolve1d`.

A discrete steady state has zero face fluxes, and a particle cloud is
compared with a grid density through its cell histogram. Criterion 09 and
`test_fpsolve1d.py` import them; pytest does not collect this file.
"""

import numpy as np

from smallmass.errors import ValidationError
from smallmass.fpsolve1d import Grid1D, _build_cache, _face_operator
from smallmass.model import ModelSpec


def stationary_residual(grid: Grid1D, spec: ModelSpec) -> float:
    """Max absolute interior face flux; zero exactly at a discrete steady state."""
    rho = grid.density
    cache = _build_cache(grid, spec)
    alpha, beta, _ = cache.operator or _face_operator(rho, grid.h, cache)
    F = alpha * rho[:-1] + beta * rho[1:]
    return float(np.max(np.abs(F))) if F.size else 0.0


def histogram_density(grid: Grid1D, positions) -> np.ndarray:
    """Cell-averaged density of 1D particle positions on this grid."""
    x = np.asarray(positions, dtype=float).reshape(-1)
    counts, _ = np.histogram(x, bins=grid.M, range=(-grid.L, grid.L))
    return counts / (x.size * grid.h)


def l1_density_distance(grid: Grid1D, other) -> float:
    """h * sum |rho - other| for a density sampled on the same grid."""
    other = np.asarray(other, dtype=float)
    if other.shape != grid.density.shape:
        raise ValidationError(
            f"density shapes differ: {other.shape} vs {grid.density.shape}"
        )
    return float(grid.h * np.sum(np.abs(grid.density - other)))

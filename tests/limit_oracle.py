"""One-point limit-SDE oracle for the tests of `overdamped.limit_coefficients`.

Each function evaluates the limit drift b = -A^-1 F + S, the diffusion
factor A^-1 sigma or the noise-induced drift S at a single point x against
the empirical measure of `positions`, with the one-matrix kernels of
`smallmat` (`solve_lyapunov`, `invert`, `min_symmetric_eigenvalue`) in
place of the stacked ones, and S by the product rule on full matrices with
no 1D reduction. `test_overdamped.py` and `test_golden.py` import it;
pytest does not collect this file.
"""

from dataclasses import dataclass

import numpy as np

from smallmass.ensemble import _d_friction_at, conv_gradK, conv_phi
from smallmass.errors import StabilityError
from smallmass.model import ModelSpec, fd_step
from smallmass.smallmat import (
    LyapunovSolution,
    invert,
    min_symmetric_eigenvalue,
    solve_lyapunov,
)


def product_rule_drift(A_inv, dA, J):
    """S_i = sum_{j,k} [d_k A^-1]_ij J_jk with d_k A^-1 = -A^-1 (d_k A) A^-1.

    The einsum subscripts keep the leading `...` of a stacked evaluation, so
    at one point the sums run in the stacked path's order and give its bits.
    """
    dA_inv = -np.einsum("...ip,...pqk,...qj->...ijk", A_inv, dA, A_inv)
    return np.einsum("...ijk,...jk->...i", dA_inv, J)


@dataclass(frozen=True)
class PointCoefficients:
    """Limit-SDE ingredients at one point against a frozen empirical measure."""

    A: np.ndarray
    A_inv: np.ndarray
    F: np.ndarray
    J: LyapunovSolution
    S: np.ndarray


def point_coefficients(x, positions, spec: ModelSpec) -> PointCoefficients:
    """A, A^-1, F, the certified J and S at one point x; StabilityError
    unless the symmetric part of A(x) is positive definite."""
    positions = np.asarray(positions, dtype=float)
    x = np.asarray(x, dtype=float).reshape(spec.dim)
    A = spec.gamma_at(x) + conv_phi(x, positions, spec)
    if min_symmetric_eigenvalue(A) <= 0.0:
        raise StabilityError(f"friction not positive definite at {x}")
    sig = spec.sigma_at(x)
    J = solve_lyapunov(A, sig @ sig.T)
    A_inv = invert(A)
    return PointCoefficients(
        A=A,
        A_inv=A_inv,
        F=spec.grad_V_at(x) + conv_gradK(x, positions, spec),
        J=J,
        S=product_rule_drift(A_inv, _d_friction_at(x, positions, spec), J.J),
    )


def noise_induced_drift(x, positions, spec: ModelSpec):
    """S(x) as a d-vector."""
    return point_coefficients(x, positions, spec).S


def limit_drift(x, positions, spec: ModelSpec):
    """b(x) = -A(x)^-1 F(x) + S(x)."""
    c = point_coefficients(x, positions, spec)
    return -c.A_inv @ c.F + c.S


def limit_diffusion(x, positions, spec: ModelSpec):
    """A(x)^-1 sigma(x)."""
    x = np.asarray(x, dtype=float).reshape(spec.dim)
    return point_coefficients(x, positions, spec).A_inv @ spec.sigma_at(x)


def drift_lipschitz(spec: ModelSpec, positions):
    """The limit run's probe one point at a time: max_k |b(x0 + h e_k) -
    b(x0 - h e_k)| / 2h at the ensemble mean x0."""
    x0 = np.asarray(positions, dtype=float).mean(axis=0)
    h = fd_step(x0)
    L = 0.0
    for e in h * np.eye(spec.dim):
        bp = limit_drift(x0 + e, positions, spec)
        bm = limit_drift(x0 - e, positions, spec)
        L = max(L, float(np.linalg.norm(bp - bm)) / (2.0 * h))
    return L

"""Dense d x d matrix kernels (d <= 8) on (..., d, d) stacks.

Everything here is a pure function on small matrices: the matrix
exponential, the symmetric eigenvalue floor, a guarded inverse, and the
Lyapunov solver that defines the fast-velocity stationary covariance

    A J + J A^T = Q,    Q = sigma sigma^T,

solved exactly as a d^2 x d^2 Kronecker linear system. All four take a
stack (one matrix per particle; one (d, d) matrix is the special case),
run each matrix through the same scipy/LAPACK routine as alone, so they
return the bits of per-matrix calls, and guard against the worst matrix.
The integral representation J = int_0^inf exp(-A s) Q exp(-A^T s) ds is
implemented separately (`lyapunov_quadrature`, one matrix) as an
independent cross-check of the direct solve; the two routes share no
linear algebra beyond the exponential itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConditionError, StabilityError, ValidationError
from .model import MAX_DIM

# fixed nodes for the composite Gauss-Legendre rule in lyapunov_quadrature
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class LyapunovSolution:
    """Solution J of A J + J A^T = Q with its residual certificate.

    residual = max ||A J + J A^T - Q||_F over a stack, after any symmetrization.
    """

    J: np.ndarray
    residual: float


def _as_square(M, name="matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise ValidationError(f"{name} must be square, got shape {M.shape}")
    if M.shape[-1] > MAX_DIM:
        raise ValidationError(
            f"{name} has dimension {M.shape[-1]}, kernels support d <= {MAX_DIM}"
        )
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} has non-finite entries")
    return M


def _mT(M) -> np.ndarray:
    """Transpose of each matrix of a stack (numpy >= 2 spells it M.mT)."""
    return np.swapaxes(M, -1, -2)


def expm(M) -> np.ndarray:
    """Matrix exponential of each matrix of a (..., d, d) stack.

    Scaling-and-squaring with a Pade core (scipy); relative error below
    1e-12 for ||M|| <= 50, which covers every exponent this package forms.
    """
    return scipy.linalg.expm(_as_square(M, "expm argument"))


def min_symmetric_eigenvalue(A) -> float:
    """Smallest eigenvalue of the symmetric parts (A + A^T)/2 over a stack."""
    A = _as_square(A, "matrix")
    return float(np.min(np.linalg.eigvalsh(0.5 * (A + _mT(A)))[..., 0]))


def invert(A) -> np.ndarray:
    """Inverse of each matrix of a stack; rejects it if any cond >= 1e12."""
    A = _as_square(A, "matrix")
    cond = float(np.max(np.linalg.cond(A)))
    if not np.isfinite(cond) or cond >= 1e12:
        raise ConditionError(
            f"matrix is singular or ill-conditioned (cond estimate {cond:.3e})",
            cond=cond,
        )
    return np.linalg.inv(A)


def solve_lyapunov(A, Q) -> LyapunovSolution:
    """Solve A J + J A^T = Q by Kronecker vectorization, for a stack of pairs.

    Requires the symmetric part of every A to be positive definite
    (otherwise the integral representation diverges and the equation may
    be singular). With row-major vec, vec(A J) = (A kron I) vec(J) and
    vec(J A^T) = (I kron A) vec(J), so each system matrix is
    A kron I + I kron A; one `np.linalg.solve` covers the stack. Each J is
    symmetrized after the solve when its Q is symmetric, removing roundoff
    asymmetry that would otherwise leak into downstream derivatives.
    """
    A = _as_square(A, "A")
    Q = _as_square(Q, "Q")
    if A.shape != Q.shape:
        raise ValidationError(f"A and Q shapes differ: {A.shape} vs {Q.shape}")
    lam = min_symmetric_eigenvalue(A)
    if lam <= 0.0:
        raise StabilityError(
            f"symmetric part of A has min eigenvalue {lam:.6e} <= 0; "
            "the Lyapunov problem is not stable"
        )
    d = A.shape[-1]
    eye = np.eye(d)
    # np.kron pads eye with leading unit axes: one d^2 x d^2 system per matrix
    system = np.kron(A, eye) + np.kron(eye, A)
    J = np.linalg.solve(system, Q.reshape(Q.shape[:-2] + (d * d, 1))).reshape(Q.shape)
    qscale = np.linalg.norm(Q, axis=(-2, -1), keepdims=True)
    close = np.isclose(Q, _mT(Q), rtol=1e-12, atol=1e-12 * (1.0 + qscale))
    J = np.where(np.all(close, axis=(-2, -1), keepdims=True), 0.5 * (J + _mT(J)), J)
    residual = np.linalg.norm(A @ J + J @ _mT(A) - Q, axis=(-2, -1))
    return LyapunovSolution(J=J, residual=float(np.max(residual)))


def lyapunov_quadrature(A, Q, tol: float = 1e-10, max_doublings: int = 12) -> np.ndarray:
    """Integral-form Lyapunov solution, int_0^inf exp(-As) Q exp(-A^T s) ds.

    For one (d, d) pair, not a stack. Truncates at s* with
    exp(-2 lambda_min s*) ||Q|| <= tol, then applies a composite 16-node
    Gauss-Legendre rule with panel doubling until the change drops below
    tol. Serves as the independent oracle for `solve_lyapunov` (no
    Kronecker algebra in this route).
    """
    A = _as_square(A, "A")
    Q = _as_square(Q, "Q")
    if A.shape != Q.shape:
        raise ValidationError(f"A and Q shapes differ: {A.shape} vs {Q.shape}")
    if A.ndim != 2:
        raise ValidationError(f"quadrature takes one (d, d) pair, got {A.shape}")
    lam = min_symmetric_eigenvalue(A)
    if lam <= 0.0:
        raise StabilityError(
            f"symmetric part of A has min eigenvalue {lam:.6e} <= 0; "
            "the Lyapunov integral diverges"
        )
    qnorm = float(np.linalg.norm(Q))
    if qnorm == 0.0:
        return np.zeros_like(Q)
    s_star = np.log(qnorm / tol) / (2.0 * lam)
    s_star = max(s_star, 16.0 * np.finfo(float).tiny)

    def composite(panels: int) -> np.ndarray:
        total = np.zeros_like(Q)
        width = s_star / panels
        for p in range(panels):
            left = p * width
            # map [-1,1] nodes onto the panel; one stacked expm per panel
            s_vals = left + 0.5 * width * (_GL_NODES + 1.0)
            E = scipy.linalg.expm(-A * s_vals[:, None, None])
            for term, w in zip(E @ Q @ _mT(E), _GL_WEIGHTS):
                total += (0.5 * width * w) * term
        return total

    previous = composite(1)
    panels = 2
    for _ in range(max_doublings):
        current = composite(panels)
        if np.linalg.norm(current - previous) <= tol:
            return current
        previous = current
        panels *= 2
    return previous

"""Dense d x d matrix kernels (d <= 8) on (..., d, d) stacks.

Everything here is a pure function on small matrices: the matrix
exponential, the symmetric eigenvalue floor, a guarded inverse, and the
Lyapunov solver that defines the fast-velocity stationary covariance

    A J + J A^T = Q,    Q = sigma sigma^T,

solved exactly as a d^2 x d^2 Kronecker linear system. All four take a
stack (one matrix per particle; one (d, d) matrix is the special case),
run each matrix through the same scipy/LAPACK routine as alone, so they
return the bits of per-matrix calls, and guard against the worst matrix.

The kernels run once per stack, and on a step's stack numpy's
Python-level wrappers are still a share of a call: a Lyapunov solve on a
(200, 2, 2) stack takes about 230 us, against about 280 us through
np.kron, np.isclose and np.linalg.norm (timeit, best of 7, 2-core Intel
Xeon). They skip the wrappers and form the same floating-point
operations directly, returning the bits the wrappers would: the
Kronecker system A kron I + I kron A is assembled by broadcasting the
products np.kron forms, the symmetry test is the inequality np.isclose
evaluates on finite input, Frobenius norms are sqrt(sum(x*x)) reduced as
np.linalg.norm reduces them, and cond is s_max/s_min from the singular
values, as np.linalg.cond takes it. The LAPACK calls themselves (solve,
eigvalsh, inv, svd) are numpy's.

`expm` is this module's only scipy route: it imports scipy.linalg at its
first stack with a nonzero off the diagonal (a diagonal stack takes scipy's
own diagonal branch, exp of the diagonal, in one pass), so a run that forms
no such exponential never loads it, and no sweep loads it ahead. It is not
the package's only one: observables.weak_Yhat imports scipy.linalg itself
for its Van Loan block, which is 3d x 3d and so past MAX_DIM for d >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionError, StabilityError, ValidationError
from .model import MAX_DIM

# tolerance of the per-matrix "Q is symmetric" decision in solve_lyapunov
_SYM_TOL = 1e-12


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
    if not np.isfinite(M).all():
        raise ValidationError(f"{name} has non-finite entries")
    return M


def _mT(M) -> np.ndarray:
    """Transpose of each matrix of a stack (numpy >= 2 spells it M.mT)."""
    return np.swapaxes(M, -1, -2)


def _frobenius(M, keepdims=False) -> np.ndarray:
    """||M||_F of each matrix of a stack, reduced as np.linalg.norm reduces it."""
    return np.sqrt(np.add.reduce(M * M, axis=(-2, -1), keepdims=keepdims))


def _symmetric_eigenvalues(A) -> np.ndarray:
    """Ascending eigenvalues of each symmetric part (A + A^T)/2, as (..., d).

    A 1 x 1 symmetric part is its own eigenvalue and is returned as it is:
    eigvalsh returns the same bits for it, at a fraction of the cost.
    """
    sym = 0.5 * (A + _mT(A))
    if A.shape[-1] == 1:
        return sym[..., 0]
    return np.linalg.eigvalsh(sym)


def _is_symmetric(Q) -> np.ndarray:
    """(..., 1, 1) mask: each Q equals its transpose within _SYM_TOL.

    The test is np.isclose(Q, Q^T, rtol=_SYM_TOL, atol=_SYM_TOL (1 + ||Q||_F))
    on every entry, written as the inequality isclose evaluates on finite
    input, |Q - Q^T| <= atol + rtol |Q^T|.
    """
    QT = _mT(Q)
    atol = _SYM_TOL * (1.0 + _frobenius(Q, keepdims=True))
    close = np.abs(Q - QT) <= atol + _SYM_TOL * np.abs(QT)
    return close.all(axis=(-2, -1), keepdims=True)


def _worst_condition(A) -> float:
    """Largest 2-norm condition number s_max / s_min over a stack.

    As np.linalg.cond: s_min = 0 gives inf, and so does 0/0 (a zero matrix).
    """
    s = np.linalg.svd(A, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = float((s[..., 0] / s[..., -1]).max())
    return np.inf if cond != cond else cond


def _kronecker_system(A) -> np.ndarray:
    """A kron I + I kron A of each matrix of a stack, as (..., d, d, d, d).

    Entry [i, k, j, l] is A_ij I_kl + I_ij A_kl: the products np.kron forms,
    signed zeros included, summed in the same order. Reshaping the last four
    axes to (d^2, d^2) gives the row-major Kronecker matrix.
    """
    eye = np.eye(A.shape[-1])
    return (
        A[..., :, None, :, None] * eye[:, None, :]
        + eye[:, None, :, None] * A[..., None, :, None, :]
    )


def expm(M) -> np.ndarray:
    """Matrix exponential of each matrix of a (..., d, d) stack.

    Scaling-and-squaring with a Pade core (scipy); relative error below
    1e-12 for ||M|| <= 50, which covers every exponent this package forms.
    A stack whose off-diagonal entries are all zero (-0.0 included) gets
    scipy's result for a diagonal matrix, zeros with exp of the diagonal,
    formed at once without loading scipy; any other goes to scipy whole.
    """
    M = _as_square(M, "expm argument")
    diag = np.diagonal(M, axis1=-2, axis2=-1)
    if np.count_nonzero(M) == np.count_nonzero(diag):
        E = np.zeros(M.shape)
        np.einsum("...ii->...i", E)[...] = np.exp(diag)
        return E
    import scipy.linalg

    return scipy.linalg.expm(M)


def min_symmetric_eigenvalue(A) -> float:
    """Smallest eigenvalue of the symmetric parts (A + A^T)/2 over a stack."""
    A = _as_square(A, "matrix")
    return float(_symmetric_eigenvalues(A)[..., 0].min())


def invert(A) -> np.ndarray:
    """Inverse of each matrix of a stack; rejects it if any cond >= 1e12."""
    A = _as_square(A, "matrix")
    cond = _worst_condition(A)
    if cond >= 1e12:
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
    stack = A.shape[:-2]
    system = _kronecker_system(A).reshape(stack + (d * d, d * d))
    J = np.linalg.solve(system, Q.reshape(stack + (d * d, 1))).reshape(Q.shape)
    J = np.where(_is_symmetric(Q), 0.5 * (J + _mT(J)), J)
    residual = _frobenius(A @ J + J @ _mT(A) - Q)
    return LyapunovSolution(J=J, residual=float(residual.max()))


def _stationary_covariance(A, sig) -> np.ndarray:
    """J of A J + J A^T = sigma sigma^T for each pair of a stack: sigma^2/(2a)
    in closed form when d = 1, solve_lyapunov when d > 1."""
    if A.shape[-1] == 1:
        return sig * sig / (2.0 * A)
    return solve_lyapunov(A, sig @ _mT(sig)).J

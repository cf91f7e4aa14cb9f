"""Integral-form Lyapunov oracle for the tests of `smallmat.solve_lyapunov`.

J = int_0^inf exp(-A s) Q exp(-A^T s) ds solves A J + J A^T = Q when the
symmetric part of A is positive definite. This route shares no linear
algebra with the Kronecker solve beyond the matrix exponential, so it is
an independent cross-check of it. Criterion 01 and `test_smallmat.py`
import it; pytest does not collect this file.
"""

import numpy as np

from smallmass.errors import StabilityError, ValidationError
from smallmass.smallmat import _as_square, _mT, expm, min_symmetric_eigenvalue

# fixed nodes for the composite Gauss-Legendre rule in lyapunov_quadrature
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# its truncation and panel-doubling tolerance, and the most doublings it takes
_QUAD_TOL = 1e-10
_QUAD_MAX_DOUBLINGS = 12


def lyapunov_quadrature(A, Q) -> np.ndarray:
    """Integral-form Lyapunov solution, int_0^inf exp(-As) Q exp(-A^T s) ds.

    For one (d, d) pair, not a stack. Truncates at s* with
    exp(-2 lambda_min s*) ||Q|| <= 1e-10, then applies a composite 16-node
    Gauss-Legendre rule with panel doubling until the change drops below
    1e-10. Serves as the independent oracle for `solve_lyapunov` (no
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
    s_star = np.log(qnorm / _QUAD_TOL) / (2.0 * lam)
    s_star = max(s_star, 16.0 * np.finfo(float).tiny)

    def composite(panels: int) -> np.ndarray:
        total = np.zeros_like(Q)
        width = s_star / panels
        # exp(-A (left + u)) = exp(-A left) exp(-A u): the [-1,1] nodes mapped
        # onto the first panel, then one step of exp(-A width) per panel
        u = 0.5 * width * (_GL_NODES + 1.0)
        offsets = expm(-A * u[:, None, None])
        step = expm(-A * width)
        left = np.eye(A.shape[0])
        for _ in range(panels):
            E = left @ offsets
            for term, w in zip(E @ Q @ _mT(E), _GL_WEIGHTS):
                total += (0.5 * width * w) * term
            left = left @ step
        return total

    previous = composite(1)
    panels = 2
    for _ in range(_QUAD_MAX_DOUBLINGS):
        current = composite(panels)
        if np.linalg.norm(current - previous) <= _QUAD_TOL:
            return current
        previous = current
        panels *= 2
    return previous

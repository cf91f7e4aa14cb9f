"""Weak-form observables, Wasserstein distances, and run diagnostics.

The averaging machinery is evaluated only in weak form against vector test
functions psi, as plain particle averages:

    <Y,  psi> = (1/N) sum_i v_i . psi(x_i)
    <Y*, psi> = (1/N) sum_i [psi . b + sum_{m,k} J_mk (A^-T d_k psi)_m](x_i),
                  with b = -A^-1 F + S the limit drift (S takes the d_k A^-1
                  terms of the integration by parts) and A J + J A^T = sigma sigma^T
    <Yhat_t, psi> = frozen-coefficient evolution of <Y, psi> across a time
                  slice [t_k, t]: exponentially decayed momentum, an exactly
                  integrated force source, and the exact time integral of
                  the leading velocity-covariance term J/eps.

Integration by parts replaces every density or density-gradient estimate,
so the estimators are plain particle sums (the empirical convolutions are
the only O(N^2) ingredient). Distances: exact order-statistics matching in
1D, optimal assignment for small clouds, sliced random projections beyond.

Each estimator's one input is a snapshot's coefficient object, the one
that ensemble.mean_field_coefficients(state, spec) returns: a caller forms
it once per snapshot, and every estimator read at that snapshot shares it.
Y and Yhat also read the velocities, t and epsilon of the underdamped
ensemble it was formed from.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .ensemble import (
    RUN_W2_PROJECTIONS,
    NoiseStream,
    UnderdampedEnsemble,
    _Frozen,
    mean_field_coefficients,  # unused here; bench/tests check the tracer wraps it
)
from .errors import SmallMassError, ValidationError
from .model import _eval_field
from .smallmat import _mT

W2_EXACT_MAX_N = 1024


# ------------------------------------------------------------ test functions


@dataclass(frozen=True)
class TestFunction:
    """Vector test function psi with its Jacobian, gradient[m, k] = d_k psi_m.

    Construction cross-checks the supplied gradient against central
    differences of the value at the check points (standard normal points
    when none are given).
    """

    __test__ = False  # keep pytest from collecting the class by its name

    dim: int
    value: object
    gradient: object
    name: str = ""
    check_points: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"test function dim must be >= 1, got {self.dim}")
        if len(self.check_points):
            pts = np.asarray(self.check_points, dtype=float).reshape(-1, self.dim)
        else:
            pts = np.random.default_rng(1234).normal(size=(8, self.dim))
        h = 1e-6
        G = self.gradient_at(pts)
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = h
            fd = (self.value_at(pts + e) - self.value_at(pts - e)) / (2.0 * h)
            if np.any(np.abs(fd - G[:, :, k]) > 1e-5 * (1.0 + np.abs(G[:, :, k]))):
                raise ValidationError(
                    f"test function {self.name!r}: gradient inconsistent with value"
                )

    def _eval(self, f, X, core):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:  # one (d,) point
            return _eval_field(f, X[None, :], core, self.name)[0]
        return _eval_field(f, X, core, self.name)

    def value_at(self, X):
        return self._eval(self.value, X, (self.dim,))

    def gradient_at(self, X):
        return self._eval(self.gradient, X, (self.dim, self.dim))


def bump_test_functions(dim=1, centers=(-1.0, 0.0, 1.0), radius=1.0):
    """Smooth compactly supported bumps, one per center, every component

    psi_m(x) = exp(1/(|x-c|^2/r^2 - 1)) inside |x-c| < r, zero outside.
    """
    out = []
    for c in centers:
        center = np.full(dim, float(c)) if np.ndim(c) == 0 else np.asarray(c, float)
        if center.shape != (dim,):
            raise ValidationError(f"bump center {c!r} does not have dim {dim}")
        out.append(_bump(dim, center, float(radius)))
    return tuple(out)


def _bump(dim, center, radius):
    def value(x):
        x = np.asarray(x, dtype=float)
        diff = (x - center) / radius
        s = np.sum(diff * diff, axis=-1)
        b = np.zeros_like(s)
        m = s < 1.0
        b[m] = np.exp(1.0 / (s[m] - 1.0))
        return np.repeat(b[..., None], dim, axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        diff = (x - center) / radius
        s = np.sum(diff * diff, axis=-1)
        db = np.zeros(x.shape)
        m = s < 1.0
        t1 = 1.0 / (s[m] - 1.0)
        db[m] = (np.exp(t1) * (-(t1 * t1)))[..., None] * (2.0 * diff[m] / radius)
        return np.repeat(db[..., None, :], dim, axis=-2)

    rng = np.random.default_rng(4321)
    pts = center + 0.6 * radius * rng.normal(size=(6, dim)) / math.sqrt(dim)
    label = "_".join(f"{c:g}" for c in center)  # comma-free for the CSV column
    return TestFunction(
        dim=dim,
        value=value,
        gradient=gradient,
        name=f"bump_c{label}_r{radius:g}",
        check_points=tuple(map(tuple, pts)),
    )


# -------------------------------------------------------- weak-form machinery


def _underdamped(c: _Frozen) -> UnderdampedEnsemble:
    """The ensemble c was formed from: Y and Yhat read its v, t and epsilon."""
    if not isinstance(c.state, UnderdampedEnsemble):
        raise ValidationError(
            "Y and Yhat need the coefficients of an underdamped ensemble, "
            f"not of {type(c.state).__name__}"
        )
    return c.state


def momentum_summands(c: _Frozen, psi: TestFunction):
    """Per-particle v_i . psi(x_i) at a snapshot's coefficients c."""
    return np.einsum("nd,nd->n", _underdamped(c).velocities, c.psi_at(psi)[0])


def weak_momentum(c: _Frozen, psi: TestFunction) -> float:
    """Particle estimator (1/N) sum_i v_i . psi(x_i)."""
    return float(np.mean(momentum_summands(c, psi)))


def ystar_summands(c: _Frozen, psi: TestFunction):
    """Per-particle summands psi . b + J : (A^-T d psi) of <Y*, psi> at a
    snapshot's coefficients c, with b = c.drift shared by every psi;
    weak_Ystar is their mean. c may be formed from bare positions."""
    P, G = c.psi_at(psi)
    if c.X.shape[1] == 1:
        return P[:, 0] * c.drift[:, 0] + c.J[:, 0, 0] * G[:, 0, 0] / c.A[:, 0, 0]
    JG = np.einsum("nmk,nmk->n", c.J, _mT(c.A_inv) @ G)
    return np.einsum("nd,nd->n", P, c.drift) + JG


def weak_Ystar(c: _Frozen, psi: TestFunction) -> float:
    """<Y*, psi> via integration by parts, the mean of psi . b + J : (A^-T d psi)
    over the particles; no density estimation."""
    return float(np.mean(ystar_summands(c, psi)))


def _paired_stderr(y, ystar) -> float:
    diff = y - ystar
    if diff.size < 2:
        return float("nan")
    return float(np.std(diff, ddof=1) / np.sqrt(diff.size))


def _one_minus_exp_poly(x):
    """1 - e^{-x}(1 + x) for x >= 0, without cancellation at small x."""
    out = -np.expm1(-x) - x * np.exp(-x)  # within 1.2e-15 relative from 0.25 up
    small = x < 0.25
    s = x[small]
    # Taylor series sum_{k >= 2} (-1)^k (k - 1) s^k / k!, truncated below 1e-16
    acc = np.zeros_like(s)
    for k in range(13, 1, -1):
        acc = acc * s + (-1) ** k * (k - 1) / math.factorial(k)
    out[small] = acc * s * s
    return out


def weak_Yhat(start: _Frozen, t, psi: TestFunction) -> float:
    """<Yhat_t, psi> for the frozen-coefficient slice [t_k, t].

    start is the coefficient object of the underdamped ensemble at the slice
    start, whose t (= t_k) and epsilon the slice reads. All coefficients are
    frozen at its positions; the velocity second moment is closed by its
    leading term J/eps. At t = t_k this is exactly weak_momentum(start, psi).

    The time integrals are exact. With M = -A^T, dM_k = -(d_k A)^T and
    c = (t - t_k)/eps, each particle contributes

        v . e^{Mc} psi - F . B psi + sum_{m,k} J_mk [L_k psi + B d_k psi]_m,

    B = int_0^c e^{Mu} du, L_k = int_0^c int_0^u e^{M(u-s)} dM_k e^{Ms} ds du.
    In 1D these are closed forms in e^{-ac}. In d > 1 they are the blocks
    (1,1), (2,3) and (1,3) of expm(c [[M, dM_k, 0], [0, M, I], [0, 0, 0]])
    (Van Loan, IEEE Trans. Automat. Control 23, 1978).
    """
    state = _underdamped(start)
    t = float(t)
    tau = t - state.t
    if tau < 0.0:
        raise ValidationError(f"t={t} precedes the slice origin t_k={state.t}")
    if tau == 0.0:
        return weak_momentum(start, psi)
    c = tau / state.epsilon
    V = state.velocities
    n, d = V.shape
    A, F, J = start.A, start.F, start.J
    P, G = start.psi_at(psi)
    if d == 1:
        a, p, g, da = A[:, 0, 0], P[:, 0], G[:, 0, 0], start.dA[:, 0, 0, 0]
        x = a * c
        i0 = -np.expm1(-x) / a  # B
        i1 = _one_minus_exp_poly(x) / (a * a)  # L = -da i1
        memory = J[:, 0, 0] * (g * i0 - da * p * i1)
        return float(np.mean(V[:, 0] * np.exp(-x) * p - F[:, 0] * i0 * p + memory))
    import scipy.linalg

    # one exponential per (particle, k)
    block = np.zeros((n, d, 3 * d, 3 * d))
    block[..., :d, :d] = block[..., d : 2 * d, d : 2 * d] = -_mT(A)[:, None]
    block[..., :d, d : 2 * d] = -_mT(np.moveaxis(start.dA, -1, 1))
    block[..., d : 2 * d, 2 * d :] = np.eye(d)
    expo = scipy.linalg.expm(c * block)
    Et, B = expo[:, 0, :d, :d], expo[:, 0, d : 2 * d, 2 * d :]
    Gg = np.einsum("ikmn,in->imk", expo[..., :d, 2 * d :], P) + B @ G
    term1 = np.mean(V[:, None, :] @ (Et @ P[..., None]))
    term2 = -np.mean(F[:, None, :] @ (B @ P[..., None]))
    return float(term1 + term2 + np.mean(np.einsum("imk,imk->i", J, Gg)))


# ---------------------------------------------------------------- distances


def w2_1d(samples_a, samples_b) -> float:
    """Exact W2 between equal-weight empirical measures on the line, from
    (N,) or (N, 1) samples."""
    a, b = _cloud(samples_a), _cloud(samples_b)
    if a.shape[1] != 1 or a.shape != b.shape:
        raise ValidationError(
            f"w2_1d needs equal (N,) or (N, 1) sample shapes, got {a.shape} and {b.shape}"
        )
    a, b = np.sort(a[:, 0]), np.sort(b[:, 0])
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _cloud(samples):
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError(f"expected (N, d) samples, got shape {x.shape}")
    return x


@functools.cache
def _assignment_solver():
    """scipy's compiled linear_sum_assignment, without importing scipy.optimize.

    scipy.optimize re-exports the function of its extension module _lsap, and
    importing the package for it loads scipy.linalg and scipy.special too
    (about 0.5 s and 45 MB with scipy 1.17). The extension is run from its
    file and kept out of sys.modules. A scipy with no such extension, or one
    without that function in it, takes the package's import: the same routine.
    """
    import scipy

    where = os.path.join(scipy.__path__[0], "optimize")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec("_lsap")
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # a single-phase extension enters itself in sys.modules as it loads
        if sys.modules.get(spec.name) is module:
            del sys.modules[spec.name]
        solver = getattr(module, "linear_sum_assignment", None)
        if solver is not None:
            return solver
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def w2_exact(samples_a, samples_b) -> float:
    """Exact W2 between equal-size clouds via optimal assignment."""
    a = _cloud(samples_a)
    b = _cloud(samples_b)
    if a.shape != b.shape:
        raise ValidationError(f"cloud shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] > W2_EXACT_MAX_N:
        raise ValidationError(
            f"w2_exact capped at N={W2_EXACT_MAX_N} (O(N^3)); use w2_sliced"
        )
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    rows, cols = _assignment_solver()(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def w2_sliced(samples_a, samples_b, n_projections, stream: NoiseStream) -> float:
    """Root-mean squared w2_1d over random unit projections (proxy for d>1)."""
    a = _cloud(samples_a)
    b = _cloud(samples_b)
    if a.shape != b.shape:
        raise ValidationError(f"cloud shapes differ: {a.shape} vs {b.shape}")
    if n_projections < 1:
        raise ValidationError("n_projections must be >= 1")
    d = a.shape[1]
    total = 0.0
    for p in range(1, n_projections + 1):
        g = stream.block(RUN_W2_PROJECTIONS, p, 1, d)[0]
        norm = np.linalg.norm(g)
        if norm == 0.0:
            raise SmallMassError(f"degenerate projection draw at index {p}")
        theta = g / norm
        total += w2_1d(a @ theta, b @ theta) ** 2
    return float(np.sqrt(total / n_projections))


# -------------------------------------------------------------- diagnostics


@dataclass(frozen=True)
class HolderReport:
    slope: float
    intercept: float
    n_pairs: int
    degenerate: bool


def holder_diagnostic(snapshots) -> HolderReport:
    """Least-squares slope of log mean-squared displacement vs log lag.

    Only pairs with lag >= 10 eps enter (shorter lags see the ballistic
    velocity scale, not the limit diffusion); eps is the first snapshot's
    epsilon, 0 for limit snapshots. Zero-displacement inputs are flagged
    degenerate instead of fitted.
    """
    snaps = list(snapshots)
    eps = float(getattr(snaps[0], "epsilon", 0.0)) if snaps else 0.0
    lags, msds = [], []
    for i in range(len(snaps)):
        for k in range(i + 1, len(snaps)):
            lag = snaps[k].t - snaps[i].t
            if lag > 0.0 and lag >= 10.0 * eps:
                disp = snaps[k].positions - snaps[i].positions
                lags.append(lag)
                msds.append(float(np.mean(np.sum(disp * disp, axis=-1))))
    if len(lags) < 4:
        raise ValidationError(
            f"need >= 4 snapshot pairs with lag >= 10*eps, got {len(lags)}"
        )
    lags = np.asarray(lags)
    msds = np.asarray(msds)
    pos = msds > 0.0
    if np.count_nonzero(pos) < 4:
        return HolderReport(0.0, 0.0, len(lags), True)
    slope, intercept = np.polyfit(np.log(lags[pos]), np.log(msds[pos]), 1)
    return HolderReport(float(slope), float(intercept), len(lags), False)


@dataclass(frozen=True)
class EnergyReport:
    rows: tuple  # (epsilon, t, eps * mean |v|^2)
    ratio: float  # max/median over rows; 1 when all zero


def energy_diagnostic(runs: dict) -> EnergyReport:
    """Scaled kinetic energy table over an eps grid, with max/median ratio."""
    items = sorted(runs.items())
    if not items:
        raise ValidationError("no runs given")
    rows = []
    for eps, snaps in items:
        for s in snaps:
            e = float(eps) * float(np.mean(np.sum(s.velocities**2, axis=-1)))
            rows.append((float(eps), float(s.t), e))
    vals = np.sort([r[2] for r in rows])
    mx = float(vals[-1])
    # np.median's value without the numpy.ma import of its first call (about
    # 13 ms, inside the sweep's measured window): the middle value, or the
    # mean of the middle two as np.mean forms it
    mid = len(vals) // 2
    med = float(vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2)
    if mx == 0.0:
        ratio = 1.0
    elif med == 0.0:
        ratio = float("inf")
    else:
        ratio = mx / med
    return EnergyReport(tuple(rows), ratio)


# ---------------------------------------------------------------- gap rows


@dataclass(frozen=True)
class WeakGapRow:
    epsilon: float
    t: float
    psi_id: str
    Y: float
    Yhat: float
    Ystar: float
    mc_stderr: float

    @property
    def gap_Y_Ystar(self) -> float:
        return self.Y - self.Ystar

    @property
    def gap_Y_Yhat(self) -> float:
        return self.Y - self.Yhat


def weak_gap_rows(c: _Frozen, psis, anchor=None):
    """One gap row per test function at the snapshot whose coefficients are c.

    c and anchor are coefficient objects of underdamped ensembles. Each
    psi's Y and Y* summands are computed once per object, and Ystar and
    mc_stderr both read them, so rows at one snapshot under several anchors
    share them when they share c. With a slice anchor (the slice start's
    coefficients), Yhat is weak_Yhat(anchor, t, psi); else NaN.
    """
    snap = _underdamped(c)
    rows = []
    for psi in psis:
        Y, Ystar, stderr = c.once("gap", psi, lambda: _gap_terms(c, psi))
        yhat = float("nan") if anchor is None else weak_Yhat(anchor, snap.t, psi)
        rows.append(gap_row(snap.epsilon, snap.t, psi.name, Y, Ystar, yhat, stderr))
    return rows


def _gap_terms(c: _Frozen, psi: TestFunction):
    """(Y, Y*, mc_stderr) of psi at a snapshot's coefficients c."""
    y = momentum_summands(c, psi)
    ystar = ystar_summands(c, psi)
    return np.mean(y), np.mean(ystar), _paired_stderr(y, ystar)


def gap_row(
    epsilon, t, psi_id, Y, Ystar, Yhat=float("nan"), mc_stderr=float("nan")
) -> WeakGapRow:
    return WeakGapRow(
        epsilon=float(epsilon),
        t=float(t),
        psi_id=str(psi_id),
        Y=float(Y),
        Yhat=float(Yhat),
        Ystar=float(Ystar),
        mc_stderr=float(mc_stderr),
    )

"""Weak-form observables, Wasserstein distances, and run diagnostics.

The averaging machinery is evaluated only in weak form against vector test
functions psi, as plain particle averages:

    <Y,  psi> = (1/N) sum_i v_i . psi(x_i)
    <Y*, psi> = -(1/N) sum_i psi(x_i) . A(x_i)^-1 F(x_i)
                + (1/N) sum_i sum_{m,k} J_mk(x_i) d_k g_m(x_i),
                  with g = (A^T)^-1 psi and A J + J A^T = sigma sigma^T
    <Yhat_t, psi> = frozen-coefficient evolution of <Y, psi> across a time
                  slice [t_k, t]: exponentially decayed momentum, an exactly
                  integrated force source, and a time quadrature against the
                  leading velocity-covariance term J/eps.

Integration by parts replaces every density or density-gradient estimate,
so the estimators are plain particle sums (the empirical convolutions are
the only O(N^2) ingredient). Distances: exact order-statistics matching in
1D, optimal assignment for small clouds, sliced random projections beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, expm_frechet
from scipy.optimize import linear_sum_assignment

from .ensemble import (
    RUN_W2_PROJECTIONS,
    NoiseStream,
    UnderdampedEnsemble,
    _check_friction_floor,
    _positions_of,
    mean_field_coefficients,
)
from .errors import SmallMassError, ValidationError
from .model import ModelSpec
from .overdamped import _d_friction_at
from .smallmat import _GL_NODES, _GL_WEIGHTS, _mT, invert, solve_lyapunov

W2_EXACT_MAX_N = 1024
_QUAD_TOL = 1e-8
_QUAD_MAX_DOUBLINGS = 10
# float budget of one (nodes, N) temporary in the 1D slice quadrature (64 KB)
_QUAD_BLOCK_BUDGET = 1 << 13


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
    lip_norm_hint: float
    support_radius: float = math.inf
    name: str = ""
    vectorized: bool = True
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
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if self.vectorized:
            out = np.asarray(f(X), dtype=float)
            if out.shape != X.shape[:-1] + core:
                raise ValidationError(
                    f"test function {self.name!r} returned shape {out.shape}, "
                    f"expected {X.shape[:-1] + core}"
                )
        else:
            flat = X.reshape(-1, self.dim)
            out = np.stack(
                [np.asarray(f(p), dtype=float).reshape(core) for p in flat]
            ).reshape(X.shape[:-1] + core)
        return out[0] if single else out

    def value_at(self, X):
        return self._eval(self.value, X, (self.dim,))

    def gradient_at(self, X):
        return self._eval(self.gradient, X, (self.dim, self.dim))


def _bump_slope():
    # max |d/du exp(1/(u^2-1))| on (-1, 1), for Lipschitz hints
    u = np.linspace(-0.999, 0.999, 4001)
    f = np.exp(1.0 / (u * u - 1.0))
    return float(np.max(np.abs(np.gradient(f, u))))


def bump_test_functions(dim=1, centers=(-1.0, 0.0, 1.0), radius=1.0):
    """Smooth compactly supported bumps, one per center, every component

    psi_m(x) = exp(1/(|x-c|^2/r^2 - 1)) inside |x-c| < r, zero outside.
    """
    slope = _bump_slope()
    out = []
    for c in centers:
        center = np.full(dim, float(c)) if np.ndim(c) == 0 else np.asarray(c, float)
        if center.shape != (dim,):
            raise ValidationError(f"bump center {c!r} does not have dim {dim}")
        out.append(_bump(dim, center, float(radius), slope))
    return tuple(out)


def _bump(dim, center, radius, slope):
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
        lip_norm_hint=math.sqrt(dim) * slope / radius,
        support_radius=radius,
        name=f"bump_c{label}_r{radius:g}",
        check_points=tuple(map(tuple, pts)),
    )


# -------------------------------------------------------- weak-form machinery


@dataclass(frozen=True)
class _Frozen:
    """Per-particle coefficients of one snapshot, frozen for the estimators.

    A (n, d, d), F (n, d), the friction Jacobian dA (n, d, d, d) and
    J (n, d, d) with A J + J A^T = sigma sigma^T. A_inv is kept for d > 1
    only: the 1D formulas divide by A. state is what the coefficients were
    computed from (an ensemble or an (n, d) array), X its positions.
    Per-psi results at X are computed once each (see `once`).
    """

    state: object
    X: np.ndarray
    A: np.ndarray
    F: np.ndarray
    dA: np.ndarray
    J: np.ndarray
    A_inv: np.ndarray | None
    memo: dict = field(default_factory=dict, repr=False, compare=False)

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


def _frozen_coefficients(positions, spec: ModelSpec) -> _Frozen:
    """Coefficients of a snapshot against its own measure; a _Frozen passes as is."""
    if isinstance(positions, _Frozen):
        return positions
    X = _positions_of(positions)
    A, F = mean_field_coefficients(X, spec)
    _check_friction_floor(A, X)
    sig = spec.sigma_at(X)
    dA = _d_friction_at(X, X, spec)
    if X.shape[1] == 1:
        s = sig[:, 0, 0]
        J = (s * s / (2.0 * A[:, 0, 0]))[:, None, None]
        return _Frozen(positions, X, A, F, dA, J, None)
    J = solve_lyapunov(A, sig @ _mT(sig)).J
    return _Frozen(positions, X, A, F, dA, J, invert(A))


def momentum_summands(state, psi: TestFunction):
    """Per-particle v_i . psi(x_i) of an ensemble or of its frozen coefficients."""
    if isinstance(state, _Frozen):
        V, P = state.state.velocities, state.psi_at(psi)[0]
    else:
        V, P = state.velocities, psi.value_at(state.positions)
    return np.einsum("nd,nd->n", V, P)


def weak_momentum(state, psi: TestFunction) -> float:
    """Particle estimator (1/N) sum_i v_i . psi(x_i)."""
    return float(np.mean(momentum_summands(state, psi)))


def ystar_summands(positions, spec: ModelSpec, psi: TestFunction):
    """Per-particle summands of <Y*, psi>; weak_Ystar is their mean.

    positions is an ensemble, an (N, d) array, or the frozen coefficients
    of a snapshot (as weak_gap_rows passes them, computed once for all psi).
    """
    c = _frozen_coefficients(positions, spec)
    P, G = c.psi_at(psi)
    if c.X.shape[1] == 1:
        a = c.A[:, 0, 0]
        da = c.dA[:, 0, 0, 0]
        gprime = G[:, 0, 0] / a - P[:, 0] * da / (a * a)
        return -P[:, 0] * c.F[:, 0] / a + c.J[:, 0, 0] * gprime
    # Gg[i, m, k] = d_k g_m(x_i): column k is -(A^-1 d_kA A^-1)^T psi + A^-T d_k psi
    Ainv = c.A_inv[:, None]
    dAinvT = -_mT(Ainv @ np.moveaxis(c.dA, -1, 1) @ Ainv)
    cols = dAinvT @ P[:, None, :, None] + _mT(Ainv) @ np.moveaxis(G, -1, 1)[..., None]
    Gg = np.ascontiguousarray(_mT(cols[..., 0]))
    drift = -P[:, None, :] @ (c.A_inv @ c.F[:, :, None])
    return drift[:, 0, 0] + np.einsum("imk,imk->i", c.J, Gg)


def weak_Ystar(positions, spec: ModelSpec, psi: TestFunction) -> float:
    """<Y*, psi> via integration by parts; no density estimation."""
    return float(np.mean(ystar_summands(positions, spec, psi)))


def _paired_stderr(y, ystar) -> float:
    diff = y - ystar
    if diff.size < 2:
        return float("nan")
    return float(np.std(diff, ddof=1) / np.sqrt(diff.size))


def paired_gap_stderr(state: UnderdampedEnsemble, spec, psi) -> float:
    """Standard error of <Y - Y*, psi> from the paired per-particle summands."""
    return _paired_stderr(
        momentum_summands(state, psi), ystar_summands(state.positions, spec, psi)
    )


def _gl_panels(c, n_panels):
    edges = np.linspace(0.0, c, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _doubling_quadrature(node_values, c):
    """Gauss-Legendre integral over [0, c], doubling the panels until two
    successive values agree; node_values maps the node array to its values."""
    prev = None
    panels = 1
    for _ in range(_QUAD_MAX_DOUBLINGS):
        nodes, weights = _gl_panels(c, panels)
        # sequential in node order: a pairwise sum would move the bits
        cur = float(sum(w * v for w, v in zip(weights, node_values(nodes))))
        if prev is not None and abs(cur - prev) < _QUAD_TOL:
            return cur
        prev = cur
        panels *= 2
    raise SmallMassError(
        f"slice quadrature did not settle below {_QUAD_TOL:g} "
        f"with {16 * panels // 2} nodes"
    )


def weak_Yhat(slice_start, t, t_k, spec: ModelSpec, psi: TestFunction) -> float:
    """<Yhat_t, psi> for the frozen-coefficient slice started at t_k.

    All coefficients are frozen at the slice-start positions; the velocity
    second moment is closed by its leading term J/eps. At t = t_k this is
    exactly weak_momentum of the slice start. slice_start is that ensemble
    or its frozen coefficients (weak_gap_rows computes them once per anchor).
    """
    state = slice_start.state if isinstance(slice_start, _Frozen) else slice_start
    if not isinstance(state, UnderdampedEnsemble):
        raise ValidationError("slice_start must be an underdamped ensemble")
    t = float(t)
    t_k = float(t_k)
    if abs(state.t - t_k) > 1e-9 * max(1.0, abs(t_k)):
        raise ValidationError(
            f"t_k={t_k} does not match the slice-start time {state.t}"
        )
    tau = t - t_k
    if tau < 0.0:
        raise ValidationError(f"t={t} precedes the slice origin t_k={t_k}")
    if tau == 0.0:
        return weak_momentum(slice_start, psi)
    eps = state.epsilon
    c = tau / eps
    V = state.velocities
    n, d = V.shape
    frozen = _frozen_coefficients(slice_start, spec)
    A, F = frozen.A, frozen.F
    P, Gpsi = frozen.psi_at(psi)
    if d == 1:
        a = A[:, 0, 0]
        E = np.exp(-a * c)
        term1 = float(np.mean(V[:, 0] * E * P[:, 0]))
        term2 = -float(np.mean(F[:, 0] * (1.0 - E) / a * P[:, 0]))
        j, da = frozen.J[:, 0, 0], frozen.dA[:, 0, 0, 0]
        node_values = _slice_nodes_1d(a, j, da, P[:, 0], Gpsi[:, 0, 0])
        return term1 + term2 + _doubling_quadrature(node_values, c)

    dA, Js = frozen.dA, frozen.J
    E = expm(-A * c)
    B = frozen.A_inv @ (np.eye(d) - E)
    # sequential sums from 0.0 in particle order (np.sum's pairwise order moves bits)
    term1 = np.cumsum(np.append(0.0, V[:, None, :] @ (_mT(E) @ P[..., None])))[-1] / n
    term2 = np.cumsum(np.append(0.0, -(F[:, None, :] @ (_mT(B) @ P[..., None]))))[-1] / n

    def node_value(u):
        total = 0.0
        for i in range(n):
            M = -A[i].T * u
            EtU = expm(M)
            Gg = np.empty((d, d))
            for k in range(d):
                dE = expm_frechet(M, -dA[i, :, :, k].T * u, compute_expm=False)
                Gg[:, k] = dE @ P[i] + EtU @ Gpsi[i, :, k]
            total += np.einsum("mk,mk->", Js[i], Gg)
        return total / n

    return term1 + term2 + _doubling_quadrature(
        lambda nodes: [node_value(u) for u in nodes], c
    )


def _slice_nodes_1d(a, j, da, p, g):
    """Node values u -> mean_i j_i exp(-a_i u) (g_i - u da_i p_i) of the 1D
    slice quadrature, a block of nodes at a time.

    A block is as many nodes as keep one (nodes, N) temporary within
    _QUAD_BLOCK_BUDGET floats; each row is the same elementwise expression
    and the same pairwise mean as one node alone, so the bits do not depend
    on the block size.
    """
    block = max(1, _QUAD_BLOCK_BUDGET // a.size)

    def node_values(nodes):
        out = np.empty(nodes.size)
        for lo in range(0, nodes.size, block):
            u = nodes[lo : lo + block, None]
            out[lo : lo + block] = np.mean(j * np.exp(-a * u) * (g - u * da * p), axis=1)
        return out

    return node_values


# ---------------------------------------------------------------- distances


def w2_1d(samples_a, samples_b) -> float:
    """Exact W2 between equal-weight empirical measures on the line."""
    a = np.sort(np.asarray(samples_a, dtype=float).reshape(-1))
    b = np.sort(np.asarray(samples_b, dtype=float).reshape(-1))
    if a.size != b.size or a.size == 0:
        raise ValidationError(
            f"equal nonzero sample counts required, got {a.size} and {b.size}"
        )
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _cloud(samples):
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError(f"expected (N, d) samples, got shape {x.shape}")
    return x


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
    rows, cols = linear_sum_assignment(cost)
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
        g = stream.block(RUN_W2_PROJECTIONS, p, 1)[0, :d]
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


def holder_diagnostic(snapshots, epsilon=None) -> HolderReport:
    """Least-squares slope of log mean-squared displacement vs log lag.

    Only pairs with lag >= 10 eps enter (shorter lags see the ballistic
    velocity scale, not the limit diffusion). Zero-displacement inputs are
    flagged degenerate instead of fitted.
    """
    snaps = list(snapshots)
    if epsilon is not None:
        eps = float(epsilon)
    else:
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


def energy_diagnostic(runs) -> EnergyReport:
    """Scaled kinetic energy table over an eps grid, with max/median ratio."""
    items = sorted(runs.items()) if isinstance(runs, dict) else list(runs)
    if not items:
        raise ValidationError("no runs given")
    rows = []
    for eps, snaps in items:
        for s in snaps:
            e = float(eps) * float(np.mean(np.sum(s.velocities**2, axis=-1)))
            rows.append((float(eps), float(s.t), e))
    vals = np.array([r[2] for r in rows])
    mx = float(np.max(vals))
    med = float(np.median(vals))
    if mx == 0.0:
        ratio = 1.0
    elif med == 0.0:
        ratio = float("inf")
    else:
        ratio = mx / med
    return EnergyReport(tuple(rows), ratio)


# ------------------------------------------------------------- gap reports


def _same_or_both_nan(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@dataclass(frozen=True)
class WeakGapRow:
    epsilon: float
    t: float
    psi_id: str
    Y: float
    Yhat: float
    Ystar: float
    gap_Y_Ystar: float
    gap_Y_Yhat: float
    mc_stderr: float

    def __post_init__(self):
        if not _same_or_both_nan(self.gap_Y_Ystar, self.Y - self.Ystar):
            raise ValidationError("gap_Y_Ystar is not exactly Y - Ystar")
        if not _same_or_both_nan(self.gap_Y_Yhat, self.Y - self.Yhat):
            raise ValidationError("gap_Y_Yhat is not exactly Y - Yhat")


def weak_gap_rows(state, spec: ModelSpec, psis, anchor=None):
    """One gap row per test function at the snapshot `state`.

    state and anchor are ensembles or their frozen coefficients. The
    snapshot's coefficients are computed once; each psi's Y and Y*
    summands are computed once per frozen snapshot, and Ystar and
    mc_stderr both read them, so rows at one snapshot under several
    anchors share them. With a slice anchor (the slice-start state), Yhat
    is weak_Yhat from the anchor's coefficients, computed once unless the
    anchor is the snapshot itself; else NaN.
    """
    frozen = _frozen_coefficients(state, spec)
    snap = frozen.state
    if anchor is not None:
        same = anchor is state or anchor is snap
        start = frozen if same else _frozen_coefficients(anchor, spec)
    rows = []
    for psi in psis:
        Y, Ystar, stderr = frozen.once("gap", psi, lambda: _gap_terms(frozen, spec, psi))
        yhat = float("nan")
        if anchor is not None:
            yhat = weak_Yhat(start, snap.t, start.state.t, spec, psi)
        rows.append(gap_row(snap.epsilon, snap.t, psi.name, Y, Ystar, yhat, stderr))
    return rows


def _gap_terms(frozen: _Frozen, spec: ModelSpec, psi: TestFunction):
    """(Y, Y*, mc_stderr) of psi at a frozen snapshot."""
    y = momentum_summands(frozen, psi)
    ystar = ystar_summands(frozen, spec, psi)
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
        gap_Y_Ystar=float(Y) - float(Ystar),
        gap_Y_Yhat=float(Y) - float(Yhat),
        mc_stderr=float(mc_stderr),
    )


@dataclass(frozen=True)
class WeakGapReport:
    rows: tuple

    _COLS = (
        "epsilon", "t", "psi_id", "Y", "Yhat", "Ystar",
        "gap_Y_Ystar", "gap_Y_Yhat", "mc_stderr",
    )

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(",".join(self._COLS) + "\n")
            for r in self.rows:
                vals = [
                    f"{r.epsilon:.17g}", f"{r.t:.17g}", r.psi_id,
                    f"{r.Y:.17g}", f"{r.Yhat:.17g}", f"{r.Ystar:.17g}",
                    f"{r.gap_Y_Ystar:.17g}", f"{r.gap_Y_Yhat:.17g}",
                    f"{r.mc_stderr:.17g}",
                ]
                f.write(",".join(vals) + "\n")

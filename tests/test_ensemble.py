"""Ensemble, convolution, and noise-stream tests."""

import dataclasses
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallmass import ensemble, observables, overdamped, smallmat, underdamped
from smallmass.ensemble import (
    NoiseStream,
    OverdampedEnsemble,
    UnderdampedEnsemble,
    _d_friction_at,
    conv_gradK,
    conv_phi,
    empirical_moment2,
    mean_field_coefficients,
)
from smallmass.errors import BlowUpError, ValidationError
from smallmass.harness import ExperimentConfig, run_convergence_sweep, write_snapshots_csv
from smallmass.model import (
    MAX_DIM,
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
    get_preset,
)
from smallmass.smallmat import _stationary_covariance, invert
from smallmass.underdamped import UDStepperConfig


def spec_with(phi=None, grad_K=None, dim=1):
    return ModelSpec(
        dim=dim,
        grad_V=ZeroVectorField(),
        grad_K=grad_K if grad_K is not None else ZeroVectorField(),
        phi=phi if phi is not None else ConstantMatrixField(0.5 * np.eye(dim)),
        gamma=ConstantMatrixField(np.eye(dim)),
        sigma=ConstantMatrixField(np.eye(dim)),
        lambda_phi_hint=0.1,
    )


# ----------------------------------------------------------- convolutions


def test_conv_phi_single_coincident_particle():
    def phi(z):
        z = np.asarray(z, dtype=float)
        return (3.0 * np.exp(-np.sum(z * z, axis=-1)))[..., None, None]

    spec = spec_with(phi=phi)
    out = conv_phi(np.array([0.7]), np.array([[0.7]]), spec)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(3.0, abs=1e-14)


def test_conv_phi_constant_kernel_shortcut():
    M = np.array([[2.0, 0.3], [0.1, 1.5]])
    spec = spec_with(phi=ConstantMatrixField(M), dim=2)
    pos = np.random.default_rng(0).standard_normal((50, 2))
    out = conv_phi(np.zeros(2), pos, spec)
    assert np.array_equal(out, M)


def test_conv_phi_two_point_hand_sum():
    # phi(z) = 2 + exp(-z^2), positions {0, 1}, x = 0 -> 2 + (1 + e^-1)/2
    def phi(z):
        z = np.asarray(z, dtype=float)
        return (2.0 + np.exp(-np.sum(z * z, axis=-1)))[..., None, None]

    spec = spec_with(phi=phi)
    out = conv_phi(np.array([0.0]), np.array([[0.0], [1.0]]), spec)
    assert out[0, 0] == pytest.approx(2.0 + 0.5 * (1.0 + np.exp(-1.0)), abs=1e-14)


def test_conv_phi_constant_shortcut_matches_generic():
    M = np.array([[1.5]])

    def phi_generic(z):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(M, z.shape[:-1] + (1, 1))

    pos = np.random.default_rng(1).standard_normal((37, 1))
    x = np.random.default_rng(2).standard_normal((5, 1))
    fast = conv_phi(x, pos, spec_with(phi=ConstantMatrixField(M)))
    slow = conv_phi(x, pos, spec_with(phi=phi_generic))
    assert np.allclose(fast, slow, atol=1e-14)


def test_conv_gradK_zero_kernel():
    spec = spec_with()
    out = conv_gradK(np.array([[1.0], [2.0]]), np.array([[0.0]]), spec)
    assert np.array_equal(out, np.zeros((2, 1)))


def test_conv_gradK_coincident():
    def gk(z):
        z = np.asarray(z, dtype=float)
        return 5.0 + 0.0 * z  # grad K(0) = 5

    spec = spec_with(grad_K=gk)
    out = conv_gradK(np.array([2.0]), np.array([[2.0]]), spec)
    assert out[0] == pytest.approx(5.0)


def test_conv_gradK_quadratic_symmetry():
    # K(z) = z^2/2: mean of (0 - (-1)) and (0 - 1) vanishes
    spec = spec_with(grad_K=LinearVectorField(1.0))
    out = conv_gradK(np.array([0.0]), np.array([[-1.0], [1.0]]), spec)
    assert out[0] == pytest.approx(0.0, abs=1e-15)


def test_conv_gradK_linear_shortcut_matches_generic():
    def gk_generic(z):
        return 0.7 * np.asarray(z, dtype=float)

    pos = np.random.default_rng(3).standard_normal((23, 1))
    x = np.random.default_rng(4).standard_normal((6, 1))
    fast = conv_gradK(x, pos, spec_with(grad_K=LinearVectorField(0.7)))
    slow = conv_gradK(x, pos, spec_with(grad_K=gk_generic))
    assert np.allclose(fast, slow, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5000),
    st.integers(1, MAX_DIM),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.sampled_from([0.2, 1.0, -3.7]),
)
def test_conv_gradK_linear_shortcut_is_bit_equal_to_the_mean_form(n, d, seed, scale, coef):
    rng = np.random.default_rng(seed)
    pos = scale * rng.standard_normal((n, d)) + rng.standard_normal(d)
    spec = spec_with(grad_K=LinearVectorField(coef), dim=d)
    expected = coef * (pos - np.mean(pos, axis=0))
    assert np.array_equal(conv_gradK(pos, pos, spec), expected)
    assert np.array_equal(conv_gradK(pos[0], pos, spec), expected[0])


def test_constant_field_views_match_broadcast_to_for_alternating_shapes():
    M = np.array([[2.0, 0.3], [0.1, 1.5]])
    field = ConstantMatrixField(M)
    shapes = [(5, 2), (2,), (2, 2), (5, 3, 2), (5, 2), (1, 2), (2,), (5, 3, 2)]
    for shape in shapes:
        out = field(np.zeros(shape))
        assert np.array_equal(out, np.broadcast_to(M, shape[:-1] + (2, 2)))
        assert out.shape == shape[:-1] + (2, 2)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[...] = 0.0
        assert field(np.ones(shape)) is out  # one kept view per shape
    assert np.array_equal(field.M, M)


def test_constant_field_views_are_right_under_concurrent_threads():
    M = np.array([[1.0, -0.5], [0.25, 3.0]])
    field = ConstantMatrixField(M)
    wrong = []

    def caller(shapes):
        for _ in range(1000):
            for shape in shapes:
                out = field(np.ones(shape))
                if not (
                    np.array_equal(out, np.broadcast_to(M, shape[:-1] + (2, 2)))
                    and not out.flags.writeable
                ):
                    wrong.append(shape)

    # more threads than a small host has cores, on overlapping shape sets
    threads = [
        threading.Thread(target=caller, args=(shapes,))
        for shapes in (
            [(7, 2), (2,), (3, 5, 2)],
            [(3, 2), (7, 5, 2), (2, 2)],
            [(2,), (3, 2), (7, 2)],
            [(3, 5, 2), (2, 2), (7, 5, 2)],
        )
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside a call, not between calls
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def test_conv_translation_covariance_exact():
    # lattice-valued inputs so the translated differences are bitwise equal
    def gk(z):
        z = np.asarray(z, dtype=float)
        return z * np.exp(-np.sum(z * z, axis=-1, keepdims=True))

    rng = np.random.default_rng(5)
    pos = np.round(rng.standard_normal((40, 1)) * 2**20) / 2**20
    x = np.round(rng.standard_normal((3, 1)) * 2**20) / 2**20
    shift = 7.0
    spec = spec_with(grad_K=gk)
    assert np.array_equal(
        conv_gradK(x + shift, pos + shift, spec), conv_gradK(x, pos, spec)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 25))
def test_conv_permutation_invariance_ulp(seed, n):
    def gk(z):
        z = np.asarray(z, dtype=float)
        return np.tanh(z)

    spec = spec_with(grad_K=gk)
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((n, 1))
    x = np.array([0.3])
    base = conv_gradK(x, pos, spec)[0]
    shuffled = conv_gradK(x, rng.permutation(pos, axis=0), spec)[0]
    assert abs(base - shuffled) <= 8 * np.finfo(float).eps * max(1.0, abs(base))


def c_layout_pair_mean(field_at, targets, positions, core):
    """The sum _pair_mean must match: C-ordered (m, N, d) differences, here
    in one chunk (each target's sum is its own), and the kernel's output
    summed over j in C order."""
    lead = targets.shape[:-1]
    targets = targets.reshape(-1, targets.shape[-1])
    diffs = targets[:, None, :] - positions[None, :, :]
    vals = np.ascontiguousarray(field_at(diffs))
    out = np.add.reduce(vals, axis=1) / positions.shape[0]
    return out.reshape(lead + core)


def gaussian_kernels(d):
    """The gaussian-interaction-2d kernels phi, grad_K and d_phi in R^d.

    phi and d_phi are written as I c broadcast, so their outputs are C
    ordered: at d = 2 they are the oracles of the preset's source-major ones.
    """

    def phi(z):
        c = 0.5 + 0.25 * np.exp(-np.sum(z * z, axis=-1))
        return c[..., None, None] * np.eye(d)

    def grad_K(z):
        return 0.5 * z * np.exp(-0.5 * np.sum(z * z, axis=-1, keepdims=True))

    def d_phi(z):
        dc = -0.5 * np.exp(-np.sum(z * z, axis=-1))[..., None] * z
        return np.eye(d)[..., :, :, None] * dc[..., None, None, :]

    return phi, grad_K, d_phi


def pair_kernels(d):
    """name -> (field_at, core) for every kernel shape _pair_mean serves."""
    if d == 2:  # the preset's own callbacks
        spec = get_preset("gaussian-interaction-2d")
        phi, grad_K, d_phi = spec.phi, spec.grad_K, spec.d_phi
    else:
        phi, grad_K, d_phi = gaussian_kernels(d)
    full = np.arange(1.0, d * d + 1).reshape(d, d) / d
    no_d_phi = spec_with(phi=phi, dim=d)
    return {
        "phi": (phi, (d, d)),
        "grad_K": (grad_K, (d,)),
        "d_phi": (d_phi, (d, d, d)),
        # every entry differs, from the outer product of z with itself
        "full": (lambda z: np.sin(z[..., :, None] * z[..., None, :] + full), (d, d)),
        "constant": (lambda z: np.broadcast_to(full, z.shape[:-1] + (d, d)), (d, d)),
        # central differences on phi (fd_matrix_jacobian): the spec has no d_phi
        "fd_d_phi": (no_d_phi.d_phi_at, (d, d, d)),
        # laid out as its (m, N) factor, so j is the contiguous axis at one
        # target of the planes (and at every m of the C layout)
        "source_major": (
            lambda z: np.moveaxis(
                np.multiply.outer(full, np.exp(-np.sum(z * z, axis=-1))), (0, 1), (-2, -1)
            ),
            (d, d),
        ),
    }


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, MAX_DIM),
    n=st.integers(1, 12),
    lead=st.sampled_from([(), (1,), (3,), (7,), (2, 3)]),
    kernel=st.sampled_from(
        ["phi", "grad_K", "d_phi", "full", "constant", "fd_d_phi", "source_major"]
    ),
    chunk=st.sampled_from([None, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=MAX_DIM, n=1, lead=(3,), kernel="grad_K", chunk=None, seed=1)
@example(d=2, n=12, lead=(), kernel="grad_K", chunk=None, seed=0)
@example(d=2, n=12, lead=(), kernel="phi", chunk=None, seed=0)
@example(d=3, n=12, lead=(7,), kernel="source_major", chunk=1, seed=0)
@example(d=MAX_DIM, n=12, lead=(7,), kernel="source_major", chunk=None, seed=0)
def test_pair_mean_is_bit_equal_to_the_c_layout_sum(d, n, lead, kernel, chunk, seed):
    stream = NoiseStream(seed)
    positions = stream.block(0, 0, n, MAX_DIM)[:, :d]  # a strided (n, d) view
    targets = stream.block(1, 0, max(1, math.prod(lead)), d).reshape(lead + (d,))
    field_at, core = pair_kernels(d)[kernel]
    expected = c_layout_pair_mean(field_at, targets, positions, core)
    # chunk targets per pass; None keeps the default budget
    budget = ensemble._PAIR_CHUNK_BUDGET if chunk is None else (
        chunk * n * (d + 2 * math.prod(core))
    )
    with mock.patch.object(ensemble, "_PAIR_CHUNK_BUDGET", budget):
        got = ensemble._pair_mean(field_at, targets, positions, core)
    assert got.shape == expected.shape == lead + core
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def plane_view(m, n, d, seed):
    """(m, n, d) differences laid out as _pair_mean's (n, d, m) planes."""
    return np.random.default_rng(seed).standard_normal((n, d, m)).transpose(2, 0, 1)


@pytest.mark.parametrize("kernel", ["phi", "d_phi"])
@pytest.mark.parametrize(
    "z",
    [
        np.array([0.3, -1.2]),
        np.array([-0.0, 0.0]),
        NoiseStream(7).block(0, 0, 5, 2),
        np.random.default_rng(8).standard_normal((3, 4, 2)),
        plane_view(1, 9, 2, 9),
        plane_view(6, 9, 2, 10),
    ],
    ids=["point", "signed-zeros", "rows", "nested", "planes-m1", "planes-m6"],
)
def test_preset_kernels_are_bit_equal_to_their_c_layout_forms(kernel, z):
    spec = get_preset("gaussian-interaction-2d")
    phi, _, d_phi = gaussian_kernels(2)
    got = getattr(spec, kernel)(z)
    expected = {"phi": phi, "d_phi": d_phi}[kernel](z)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_empirical_moment2():
    assert empirical_moment2(np.zeros((5, 2))) == 0.0
    assert empirical_moment2(np.array([[3.0, 4.0]])) == pytest.approx(25.0)
    assert empirical_moment2(np.array([[1.0], [-2.0]])) == pytest.approx(2.5)


# ---------------------------------------------------- snapshot coefficients

KERNELS = ("solve_lyapunov", "invert", "expm")


def count_kernel_calls(monkeypatch, kernels=KERNELS):
    """Count the small-matrix kernels at every module's binding, and the
    spec's d_phi evaluations."""
    calls = dict.fromkeys(kernels + ("d_phi_at",), 0)

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    originals = {name: getattr(smallmat, name) for name in kernels}
    for mod in (smallmat, ensemble, observables, underdamped, overdamped):
        for name, f in originals.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, f))
    monkeypatch.setattr(ModelSpec, "d_phi_at", counted("d_phi_at", ModelSpec.d_phi_at))
    return calls


@pytest.mark.parametrize("preset", ["state-dep-friction-1d", "gaussian-interaction-2d"])
def test_snapshot_coefficients_equal_their_direct_forms(preset):
    spec = get_preset(preset)
    X = 0.8 * NoiseStream(11).block(0, 0, 40, spec.dim)
    c = mean_field_coefficients(X, spec)
    A = spec.gamma_at(X) + conv_phi(X, X, spec)
    assert np.array_equal(c.A, A)
    assert np.array_equal(c.F, spec.grad_V_at(X) + conv_gradK(X, X, spec))
    assert np.array_equal(c.eig, np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, 1, 2))))
    assert np.array_equal(c.J, _stationary_covariance(A, spec.sigma_at(X)))
    assert np.array_equal(c.A_inv, invert(A))
    assert np.array_equal(c.dA, _d_friction_at(X, X, spec))
    assert c.J is c.J and c.A_inv is c.A_inv and c.dA is c.dA  # formed once


def test_an_em_step_forms_no_covariance_inverse_exponential_or_friction_jacobian(
    monkeypatch,
):
    spec = get_preset("gaussian-interaction-2d")
    X = NoiseStream(12).block(0, 0, 30, 2)
    state = UnderdampedEnsemble(0.1, 0.0, X, np.zeros_like(X))
    calls = count_kernel_calls(monkeypatch)
    stream = NoiseStream(1)
    em = UDStepperConfig(scheme="euler_maruyama", dt=1e-4)
    assert underdamped.step_underdamped_em(state, spec, em, stream).step == 1
    assert calls == {"solve_lyapunov": 0, "invert": 0, "expm": 0, "d_phi_at": 0}
    # the same counters see the exponential step form J, A^-1 and expm once,
    # and the limit step J, A^-1 and dA
    exp = UDStepperConfig(scheme="exponential", dt=1e-4)
    underdamped.step_underdamped_exp(state, spec, exp, stream)
    assert calls == {"solve_lyapunov": 1, "invert": 1, "expm": 1, "d_phi_at": 0}
    overdamped.limit_coefficients(X, spec)
    assert calls == {"solve_lyapunov": 2, "invert": 2, "expm": 1, "d_phi_at": 1}


def test_a_1d_snapshot_never_inverts(monkeypatch):
    spec = get_preset("state-dep-friction-1d")
    X = NoiseStream(13).block(0, 0, 30, 1)
    state = UnderdampedEnsemble(0.1, 0.0, X, 0.3 * X)
    calls = count_kernel_calls(monkeypatch)
    psis = observables.bump_test_functions(1)
    c = mean_field_coefficients(state, spec)
    rows = observables.weak_gap_rows(c, psis, anchor=c)
    stream = NoiseStream(1)
    cfg = UDStepperConfig(scheme="exponential", dt=1e-3)
    underdamped.step_underdamped_exp(state, spec, cfg, stream)
    overdamped.limit_coefficients(X, spec)
    assert len(rows) == len(psis)
    assert calls["invert"] == calls["solve_lyapunov"] == calls["expm"] == 0


@pytest.mark.parametrize("preset", ["state-dep-friction-1d", "double-well-1d"])
def test_a_1d_limit_run_reaches_no_smallmat_kernel(monkeypatch, tmp_path, preset):
    # constant or state-dependent, a 1D friction takes the scalar path: the
    # floor is the coefficient object's, S the scalar reduction (0 when A is
    # constant), the diffusion sigma / a; so does a coupled sweep's ε run
    spec = get_preset(preset)
    calls = count_kernel_calls(monkeypatch, KERNELS + ("min_symmetric_eigenvalue",))
    none = dict.fromkeys(calls, 0)
    steps, dt = 4, 1e-3
    for n in (3, 60):
        init = OverdampedEnsemble(t=0.0, positions=NoiseStream(n).block(0, 0, n, 1))
        out = overdamped.simulate_limit(spec, init, steps * dt, dt, NoiseStream(1))
        assert out[-1].step == steps
        assert calls == none
    if preset == "double-well-1d":
        cfg = ExperimentConfig.from_mapping(dict(
            preset=preset, n_particles=20, epsilon_grid=(0.1,), T=0.004, t_star=0.002,
            snapshot_times=(0.002, 0.004), seed=3, out_dir=str(tmp_path),
        ))
        report = run_convergence_sweep(cfg)
        assert len(report.w2_rows) == 2
        assert calls == none


# ------------------------------------------------------------ noise stream


def gaussian(stream, run, particle, step, component) -> float:
    """The scalar oracle of block: draw `particle` of lane `component`'s own
    Philox sequence, counter (0, component, step, run) under the key
    (master seed, golden word), read off one at a time."""
    bg = np.random.Philox(
        counter=[0, component, step, run], key=[stream.master_seed, ensemble._GOLDEN]
    )
    return float(np.random.Generator(bg).standard_normal(particle + 1)[-1])


def test_gaussian_determinism():
    s = NoiseStream(123)
    a = s.block(4, 99, 18, 4)[17, 3]
    s.block(4, 100, 18, 4)  # another key, so the next request draws afresh
    assert s.block(4, 99, 18, 4)[17, 3] == a
    # a separately constructed stream agrees
    assert NoiseStream(123).block(4, 99, 18, 4)[17, 3] == a


def test_gaussian_distinct_seeds_distinct_sequences():
    s1, s2 = NoiseStream(1), NoiseStream(2)
    draws1 = s1.block(0, 0, 1250, MAX_DIM).ravel()  # 10^4 values
    draws2 = s2.block(0, 0, 1250, MAX_DIM).ravel()
    assert not np.any(draws1 == draws2)


def test_gaussian_block_scalar_consistency():
    s = NoiseStream(987)
    blk = s.block(run=3, step=11, n=6, lanes=MAX_DIM)
    assert blk.shape == (6, MAX_DIM)
    assert blk.flags.c_contiguous
    for p in (0, 2, 5):
        for c in (0, 1, 7):
            assert blk[p, c] == gaussian(s, 3, p, 11, c)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    run=st.integers(0, 2**64 - 1),
    step=st.integers(0, 2**64 - 1),
    n=st.integers(1, 30),
    lanes=st.integers(1, MAX_DIM),
    more_n=st.integers(0, 9),
    more_lanes=st.integers(0, MAX_DIM),
)
@example(seed=0, run=0, step=1, n=1, lanes=1, more_n=0, more_lanes=1)
@example(seed=2**64 - 1, run=2**64 - 1, step=2**64 - 1, n=30, lanes=MAX_DIM, more_n=9,
         more_lanes=1)
def test_block_entries_are_the_oracle_draws_at_any_block_size(
    seed, run, step, n, lanes, more_n, more_lanes
):
    # the draw at (seed, run, step, particle, component) does not depend on
    # n or on the lane count: a longer or wider block extends a smaller one
    s = NoiseStream(seed)
    blk = s.block(run, step, n, lanes)
    assert blk.shape == (n, lanes) and blk.flags.c_contiguous
    for i in {0, n // 2, n - 1}:
        for c in {0, lanes - 1}:
            assert blk[i, c] == gaussian(s, run, i, step, c)
    wider = NoiseStream(seed).block(run, step, n + more_n, lanes + more_lanes)
    assert np.array_equal(wider[:n, :lanes], blk)


def test_block_prefix_property():
    # the first m particles and k lanes of a larger block equal the smaller
    # block: lane 0 of a 1D block is lane 0 of a 2D block
    s = NoiseStream(55)
    one = s.block(1, 2, 5, 1)
    two = s.block(1, 2, 9, 2)
    assert one.shape == (5, 1)
    assert np.array_equal(two[:5, :1], one)
    assert not np.array_equal(two[:, 0], two[:, 1])


def test_blocks_differ_across_runs_and_steps():
    s = NoiseStream(9)
    b = s.block(0, 0, 4, 2)
    assert not np.array_equal(b, s.block(0, 1, 4, 2))
    assert not np.array_equal(b, s.block(1, 0, 4, 2))


def _count_draws(monkeypatch):
    """Count the Philox sequences NoiseStream really draws, by (seed, run,
    step, lane); a block draws one per lane."""
    drawn = []
    original = NoiseStream._generator

    def counting(self, run, step, lane):
        drawn.append((self.master_seed, run, step, lane))
        return original(self, run, step, lane)

    monkeypatch.setattr(NoiseStream, "_generator", counting)
    return drawn


def test_repeated_block_key_returns_the_kept_block(monkeypatch):
    drawn = _count_draws(monkeypatch)
    s = NoiseStream(31)
    first = s.block(2, 5, 7, 2)
    again = s.block(2, 5, 7, 2)
    assert again is first
    assert drawn == [(31, 2, 5, 0), (31, 2, 5, 1)]
    assert np.array_equal(first, NoiseStream(31).block(2, 5, 7, 2))
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    with pytest.raises(ValueError):
        first[:, :1] *= 2.0


def test_mixed_block_keys_never_return_a_stale_block(monkeypatch):
    keys = [
        (0, 1, 4, 1), (0, 1, 4, 1), (0, 2, 4, 1), (0, 1, 4, 1), (1, 1, 4, 1),
        (0, 1, 5, 1), (0, 1, 4, 2), (0, 1, 4, 2), (0, 1, 4, 1),
    ]
    fresh = {key: NoiseStream(8).block(*key) for key in keys}
    drawn = _count_draws(monkeypatch)
    s = NoiseStream(8)
    for key in keys:
        assert np.array_equal(s.block(*key), fresh[key]), key
    # one block, a sequence per lane, per change of key
    redrawn = [keys[0]] + [b for a, b in zip(keys, keys[1:]) if a != b]
    assert len(drawn) == sum(lanes for *_, lanes in redrawn)


def test_a_stream_shared_by_threads_never_returns_another_keys_block():
    # a sweep's workers all read W2 projection blocks from one stream
    keys = [
        (run, step, n, lanes)
        for run in (0, 1) for step in (1, 2, 3) for n in (2, 3) for lanes in (1, 2)
    ]
    fresh = {key: NoiseStream(17).block(*key) for key in keys}
    shared = NoiseStream(17)
    wrong = []

    def hammer(offset):
        for r in range(1000):
            key = keys[(offset + r * (offset + 1)) % len(keys)]
            if not np.array_equal(shared.block(*key), fresh[key]):
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_gaussian_moment_checks():
    n = 1_000_000
    draws = NoiseStream(2026).block(7, 0, n // MAX_DIM, MAX_DIM).ravel()
    assert abs(np.mean(draws)) <= 4.0 / np.sqrt(n)
    assert abs(np.var(draws) - 1.0) <= 4.0 * np.sqrt(2.0 / n)


def test_gaussian_index_validation():
    with pytest.raises(ValidationError):
        NoiseStream(0).block(-1, 0, 3, 1)
    with pytest.raises(ValidationError):
        NoiseStream(0).block(0, 0, 3, -1)


def test_master_seed_outside_64_bits_is_rejected_not_masked():
    # 2**64 + 5 used to be masked to 5 and draw seed 5's blocks
    for seed in (2**64 + 5, 2**64, -1):
        with pytest.raises(ValidationError, match="master seed must lie in"):
            NoiseStream(seed)
    top = NoiseStream(2**64 - 1)
    assert not np.array_equal(top.block(0, 1, 4, 2), NoiseStream(5).block(0, 1, 4, 2))


# -------------------------------------------------------------- containers


def test_ensemble_validation():
    with pytest.raises(ValidationError):
        UnderdampedEnsemble(epsilon=0.0, t=0.0,
                            positions=np.zeros((2, 1)), velocities=np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        UnderdampedEnsemble(epsilon=1.0, t=0.0,
                            positions=np.zeros((2, 1)), velocities=np.zeros((3, 1)))
    with pytest.raises(ValidationError):
        OverdampedEnsemble(t=0.0, positions=np.array([[np.inf]]))
    ens = UnderdampedEnsemble(
        epsilon=0.5, t=1.0, positions=np.ones((3, 2)), velocities=np.zeros((3, 2))
    )
    assert ens.N == 3 and ens.dim == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructors_reject_non_finite_state(bad):
    clean = np.zeros((3, 2))
    dirty = clean.copy()
    dirty[1, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        UnderdampedEnsemble(epsilon=0.5, t=0.0, positions=dirty, velocities=clean)
    with pytest.raises(ValidationError, match="non-finite"):
        UnderdampedEnsemble(epsilon=0.5, t=0.0, positions=clean, velocities=dirty)
    with pytest.raises(ValidationError, match="non-finite"):
        OverdampedEnsemble(t=0.0, positions=dirty)


SHAPE = "positions must be (N, d) with N >= 1, got {}"
NON_FINITE = "ensemble state has non-finite entries"
X, NAN_X = np.zeros((2, 1)), np.array([[0.0], [np.nan]])
# id -> (positions, velocities, epsilon, the UnderdampedEnsemble message, the
# OverdampedEnsemble(positions) message or None if it takes the positions);
# the checks run in this order: the positions' shape, the velocities' shape,
# finiteness, epsilon
MALFORMED = {
    "1d-array": (np.zeros(3), np.zeros(3), 0.5, SHAPE.format((3,)), SHAPE.format((3,))),
    "no-particles": (np.zeros((0, 2)), np.zeros((0, 2)), 0.5,
                     SHAPE.format((0, 2)), SHAPE.format((0, 2))),
    "velocity-shape": (X, np.zeros((3, 1)), 0.5,
                       "velocities shape (3, 1) does not match positions (2, 1)", None),
    "velocity-1d": (X, np.zeros(2), 0.5,
                    "velocities shape (2,) does not match positions (2, 1)", None),
    "zero-epsilon": (X, X, 0.0, "epsilon must be positive, got 0.0", None),
    "negative-epsilon": (X, X, -0.5, "epsilon must be positive, got -0.5", None),
    "1d-array-before-velocity-shape": (np.zeros(2), np.zeros((3, 1)), 0.0,
                                       SHAPE.format((2,)), SHAPE.format((2,))),
    "velocity-shape-before-non-finite": (
        NAN_X, np.zeros((3, 1)), 0.0,
        "velocities shape (3, 1) does not match positions (2, 1)", NON_FINITE,
    ),
    "non-finite-before-epsilon": (X, NAN_X, 0.0, NON_FINITE, None),
}
for name, value in [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]:
    bad = np.array([[0.0], [value]])
    MALFORMED[f"{name}-positions"] = (bad, X, 0.5, NON_FINITE, NON_FINITE)
    MALFORMED[f"{name}-velocities"] = (X, bad, 0.5, NON_FINITE, None)


@pytest.mark.parametrize(
    "positions, velocities, epsilon, message, overdamped_message",
    list(MALFORMED.values()), ids=list(MALFORMED),
)
def test_constructors_reject_malformed_states_with_one_message(
    positions, velocities, epsilon, message, overdamped_message
):
    with pytest.raises(ValidationError) as err:
        UnderdampedEnsemble(epsilon=epsilon, t=0.0, positions=positions, velocities=velocities)
    assert type(err.value) is ValidationError and str(err.value) == message
    if overdamped_message is None:
        assert OverdampedEnsemble(t=0.0, positions=positions).positions.shape == (2, 1)
        return
    with pytest.raises(ValidationError) as err:
        OverdampedEnsemble(t=0.0, positions=positions)
    assert type(err.value) is ValidationError and str(err.value) == overdamped_message


def test_constructors_store_the_state_as_float_arrays():
    under = UnderdampedEnsemble(epsilon=0.5, t=0.0, positions=[[1], [2]], velocities=[[0], [3]])
    over = OverdampedEnsemble(t=0.0, positions=[[1], [2]])
    for a in (under.positions, under.velocities, over.positions):
        assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (2, 1)
    assert under.velocities[1, 0] == 3.0


def both_states():
    rng = np.random.default_rng(8)
    x, v = rng.standard_normal((2, 4, 3))
    return (
        UnderdampedEnsemble(epsilon=0.25, t=0.5, positions=x, velocities=v, step=7),
        OverdampedEnsemble(t=0.5, positions=x, step=7),
    )


def new_arrays(state, positions):
    """advanced()'s array arguments: positions, then velocities if the state has them."""
    if isinstance(state, UnderdampedEnsemble):
        return positions, 2.0 * positions
    return (positions,)


@pytest.mark.parametrize("kind", [0, 1], ids=["underdamped", "overdamped"])
def test_advanced_sets_time_step_and_arrays(kind, monkeypatch):
    state = both_states()[kind]
    x = state.positions + 1.0
    arrays = new_arrays(state, x)
    # a step's result is checked once, in advanced(), not again in __post_init__
    monkeypatch.setattr(type(state), "__post_init__", lambda self: pytest.fail("rechecked"))
    new = state.advanced(*arrays, 0.125)
    assert type(new) is type(state)
    assert new.t == 0.625 and new.step == 8
    assert new.positions is x
    if kind == 0:
        assert new.epsilon == 0.25 and new.velocities is arrays[1]
    assert state.t == 0.5 and state.step == 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        new.t = 0.0


# (state kind, index of the array argument of advanced() to spoil)
SPOILED = [(0, 0), (0, 1), (1, 0)]
SPOILED_IDS = ["underdamped-positions", "underdamped-velocities", "overdamped-positions"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind, which", SPOILED, ids=SPOILED_IDS)
def test_advanced_raises_blowup_naming_the_new_time(kind, which, bad):
    state = both_states()[kind]
    arrays = [a.copy() for a in new_arrays(state, state.positions + 1.0)]
    arrays[which][2, 1] = bad
    with pytest.raises(BlowUpError, match=r"non-finite state after step to t=0\.625") as err:
        state.advanced(*arrays, 0.125)
    assert err.value.t == 0.625


@pytest.mark.parametrize("kind, which", SPOILED, ids=SPOILED_IDS)
def test_advanced_rejects_a_changed_shape(kind, which):
    state = both_states()[kind]
    for shape in [(4, 2), (5, 3), (12,)]:
        arrays = list(new_arrays(state, state.positions))
        arrays[which] = np.zeros(shape)
        with pytest.raises(ValidationError, match="shape"):
            state.advanced(*arrays, 0.125)


def read_snapshots_csv(path):
    """Inverse of write_snapshots_csv: (t, positions, velocities or None) in file order.

    The round-trip oracle of the writer; the package itself reads no snapshots.
    """
    with open(path) as f:
        header = f.readline().strip().split(",")
        d = sum(1 for c in header if c.startswith("x"))
        with_v = any(c.startswith("v") for c in header)
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    out = []
    if data.size == 0:
        return out
    times = data[:, 0]
    for t in np.unique(times):
        rows = data[times == t]
        rows = rows[np.argsort(rows[:, 1])]
        x = rows[:, 2 : 2 + d]
        v = rows[:, 2 + d : 2 + 2 * d] if with_v else None
        out.append((float(t), x, v))
    return out


def test_snapshot_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    snaps = [
        UnderdampedEnsemble(
            epsilon=0.1,
            t=float(t),
            positions=rng.standard_normal((4, 2)),
            velocities=rng.standard_normal((4, 2)),
        )
        for t in (0.0, 0.5)
    ]
    path = tmp_path / "snaps.csv"
    write_snapshots_csv(path, snaps)
    header = path.read_text().splitlines()[0]
    assert header == "t,particle,x0,x1,v0,v1"
    back = read_snapshots_csv(path)
    assert len(back) == 2
    for snap, (t, x, v) in zip(snaps, back):
        assert t == snap.t
        assert np.array_equal(x, snap.positions)  # 17 digits roundtrip exactly
        assert np.array_equal(v, snap.velocities)


def test_snapshot_csv_positions_only(tmp_path):
    snaps = [OverdampedEnsemble(t=0.25, positions=np.array([[1.5], [-2.5]]))]
    path = tmp_path / "pos.csv"
    write_snapshots_csv(path, snaps)
    assert path.read_text().splitlines()[0] == "t,particle,x0"
    back = read_snapshots_csv(path)
    assert back[0][2] is None
    assert np.array_equal(back[0][1], snaps[0].positions)

"""Ensemble, convolution, and noise-stream tests."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallmass.ensemble import (
    D_MAX,
    NoiseStream,
    OverdampedEnsemble,
    UnderdampedEnsemble,
    conv_gradK,
    conv_phi,
    empirical_moment2,
)
from smallmass.errors import ValidationError
from smallmass.harness import write_snapshots_csv
from smallmass.model import (
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
)


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


def test_empirical_moment2():
    assert empirical_moment2(np.zeros((5, 2))) == 0.0
    assert empirical_moment2(np.array([[3.0, 4.0]])) == pytest.approx(25.0)
    assert empirical_moment2(np.array([[1.0], [-2.0]])) == pytest.approx(2.5)


# ------------------------------------------------------------ noise stream


def test_gaussian_determinism():
    s = NoiseStream(123)
    a = s.gaussian(4, 17, 99, 3)
    b = s.gaussian(4, 17, 99, 3)
    assert a == b
    # a separately constructed stream agrees
    assert NoiseStream(123).gaussian(4, 17, 99, 3) == a


def test_gaussian_distinct_seeds_distinct_sequences():
    s1, s2 = NoiseStream(1), NoiseStream(2)
    draws1 = s1.block(0, 0, 1250).ravel()  # 10^4 values
    draws2 = s2.block(0, 0, 1250).ravel()
    assert not np.any(draws1 == draws2)


def test_gaussian_block_scalar_consistency():
    s = NoiseStream(987)
    blk = s.block(run=3, step=11, n=6)
    assert blk.shape == (6, D_MAX)
    for p in (0, 2, 5):
        for c in (0, 1, 7):
            assert blk[p, c] == s.gaussian(3, p, 11, c)


def test_block_prefix_property():
    # the first m particles of a larger block equal the smaller block
    s = NoiseStream(55)
    small = s.block(1, 2, 5)
    large = s.block(1, 2, 9)
    assert np.array_equal(large[:5], small)


def test_blocks_differ_across_runs_and_steps():
    s = NoiseStream(9)
    b = s.block(0, 0, 4)
    assert not np.array_equal(b, s.block(0, 1, 4))
    assert not np.array_equal(b, s.block(1, 0, 4))


def _count_draws(monkeypatch):
    """Count the Philox blocks NoiseStream really draws, by (seed, run, step)."""
    drawn = []
    original = NoiseStream._generator

    def counting(self, run, step):
        drawn.append((self.master_seed, run, step))
        return original(self, run, step)

    monkeypatch.setattr(NoiseStream, "_generator", counting)
    return drawn


def test_repeated_block_key_returns_the_kept_block(monkeypatch):
    drawn = _count_draws(monkeypatch)
    s = NoiseStream(31)
    first = s.block(2, 5, 7)
    again = s.block(2, 5, 7)
    assert again is first
    assert drawn == [(31, 2, 5)]
    assert np.array_equal(first, NoiseStream(31).block(2, 5, 7))
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    with pytest.raises(ValueError):
        first[:, :1] *= 2.0


def test_mixed_block_keys_never_return_a_stale_block(monkeypatch):
    keys = [(0, 1, 4), (0, 1, 4), (0, 2, 4), (0, 1, 4), (1, 1, 4), (0, 1, 5), (0, 1, 4)]
    fresh = {key: NoiseStream(8).block(*key) for key in keys}
    drawn = _count_draws(monkeypatch)
    s = NoiseStream(8)
    for key in keys:
        assert np.array_equal(s.block(*key), fresh[key]), key
    # one draw per change of key
    assert len(drawn) == 1 + sum(a != b for a, b in zip(keys, keys[1:]))


def test_a_stream_shared_by_threads_never_returns_another_keys_block():
    # a sweep's workers all read W2 projection blocks from one stream
    keys = [(run, step, n) for run in (0, 1) for step in (1, 2, 3) for n in (2, 3)]
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
    draws = NoiseStream(2026).block(7, 0, n // D_MAX).ravel()
    assert abs(np.mean(draws)) <= 4.0 / np.sqrt(n)
    assert abs(np.var(draws) - 1.0) <= 4.0 * np.sqrt(2.0 / n)


def test_gaussian_index_validation():
    s = NoiseStream(0)
    with pytest.raises(ValidationError):
        s.gaussian(0, -1, 0, 0)
    with pytest.raises(ValidationError):
        s.gaussian(0, 0, 0, D_MAX)
    with pytest.raises(ValidationError):
        s.block(-1, 0, 3)


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

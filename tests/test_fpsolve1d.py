"""Finite-volume solver tests: invariances, rates, and frozen oracles."""

from dataclasses import replace

import numpy as np
import pytest

from smallmass.ensemble import NoiseStream, OverdampedEnsemble
from smallmass.errors import CFLError, StabilityError, ValidationError
from smallmass.fpsolve1d import (
    _CLIP_FLOOR,
    Grid1D,
    _build_cache,
    cell_centers,
    fp_solve,
    fp_step,
)
from smallmass.harness import write_density_csv
from smallmass.model import (
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
    make_double_well_1d,
    make_gaussian_interaction_2d,
    make_state_dep_friction_1d,
)
from smallmass.overdamped import simulate_limit

from fp_oracle import histogram_density, l1_density_distance, stationary_residual


def const_spec(gamma=1.0, sigma=1.0, grad_V=None, grad_K=None, phi=0.0):
    """1D spec with constant friction; phi=0 flags the classical regime."""
    classical = phi == 0.0
    return ModelSpec(
        dim=1,
        grad_V=grad_V if grad_V is not None else ZeroVectorField(),
        grad_K=grad_K if grad_K is not None else ZeroVectorField(),
        phi=ConstantMatrixField(phi),
        gamma=ConstantMatrixField(gamma),
        sigma=ConstantMatrixField(sigma),
        lambda_gamma_hint=gamma,
        lambda_phi_hint=phi,
        classical_sk=classical,
    )


def gaussian_grid(L, M, var, mean=0.0, t=0.0):
    x = cell_centers(L, M)
    return Grid1D.from_values(L, M, np.exp(-((x - mean) ** 2) / (2.0 * var)), t=t)


def grid_mean_var(g):
    m1 = g.h * (g.centers @ g.density)
    m2 = g.h * ((g.centers - m1) ** 2 @ g.density)
    return m1, m2


# ---- Grid1D construction ----

def test_grid_geometry():
    g = Grid1D.from_values(2.0, 8, np.ones(8))
    assert g.h == pytest.approx(0.5)
    assert np.allclose(g.centers, [-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75])
    assert g.h * g.density.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(g.density, 0.25)


def test_grid_validation():
    with pytest.raises(ValidationError, match="mass"):
        Grid1D(L=1.0, M=4, density=np.ones(4))  # mass 2, not normalized
    with pytest.raises(ValidationError, match="negative"):
        Grid1D.from_values(1.0, 4, np.array([1.0, -0.5, 1.0, 0.5]))
    with pytest.raises(ValidationError, match="at least 4"):
        Grid1D.from_values(1.0, 2, np.ones(2))
    with pytest.raises(ValidationError, match="shape"):
        Grid1D(L=1.0, M=4, density=np.ones(5))
    with pytest.raises(ValidationError, match="mass"):
        Grid1D.from_values(1.0, 4, np.zeros(4))


# ---- fp_step basics ----

def test_uniform_profile_is_exact_steady_state():
    # no forces, constant coefficients: every face flux is exactly zero
    spec = const_spec(gamma=1.0, sigma=1.0, phi=0.5)
    g = Grid1D.from_values(2.0, 16, np.ones(16))
    assert stationary_residual(g, spec) == 0.0
    stepped = g
    for _ in range(5):
        stepped = fp_step(stepped, spec, 1e-3)
    assert np.array_equal(stepped.density, g.density)
    assert stepped.t == pytest.approx(5e-3)
    assert stepped.clip_count == 0


def test_zero_dt_is_identity():
    spec = const_spec()
    g = gaussian_grid(4.0, 32, 0.5)
    assert fp_step(g, spec, 0.0) is g


def test_cfl_violation_raises_with_admissible_dt():
    spec = const_spec(gamma=1.0, sigma=1.0, grad_V=lambda x: x)
    g = gaussian_grid(4.0, 64, 0.5)
    h = g.h
    # bound is 0.4 * min(h / max|u|, h^2 min(A) / max(J)); here A=1, J=1/2, max|u|~4
    expected = 0.4 * min(h / 3.9375, h * h / 0.5)
    with pytest.raises(CFLError) as exc:
        fp_step(g, spec, 1.0)
    assert exc.value.admissible_dt == pytest.approx(expected, rel=1e-12)
    fp_step(g, spec, 0.999 * exc.value.admissible_dt)  # just under the bound works


def test_an_infinite_step_on_a_grid_with_no_cfl_bound_is_refused():
    # no drift and no noise: nothing bounds the step, and inf * 0 is nan
    spec = const_spec(sigma=0.0)
    g = gaussian_grid(4.0, 32, 0.5)
    cache = _build_cache(g, spec)
    assert admissible_dt(g, spec, cache) == np.inf
    assert np.array_equal(step_both(g, spec, 1e3, cache).density, g.density)


def test_step_rejects_negative_dt_and_2d_spec():
    g = gaussian_grid(4.0, 32, 0.5)
    with pytest.raises(ValidationError, match="dt"):
        fp_step(g, const_spec(), -1e-3)
    with pytest.raises(ValidationError, match="dt must be >= 0, got nan"):
        fp_step(g, const_spec(), float("nan"))
    with pytest.raises(ValidationError, match="d=1"):
        fp_step(g, make_gaussian_interaction_2d(), 1e-3)


# ---- physics oracles ----

def test_free_diffusion_variance_growth_rate():
    # gamma=1, sigma=sqrt(2): J=1, A=1, so d Var/dt = 2 J / A = 2
    spec = const_spec(gamma=1.0, sigma=np.sqrt(2.0))
    g0 = gaussian_grid(8.0, 320, 0.25)
    T = 0.5
    (gT,) = fp_solve(spec, g0, T, dt=1e-3)
    _, v0 = grid_mean_var(g0)
    _, vT = grid_mean_var(gT)
    rate = (vT - v0) / T
    assert rate == pytest.approx(2.0, rel=0.02)


def test_mass_conserved_over_many_steps():
    # confining quadratic force, 3e4 explicit steps: mass drift stays at rounding
    spec = const_spec(gamma=1.0, sigma=1.0, grad_V=lambda x: x)
    g0 = gaussian_grid(5.0, 80, 0.5)
    (gT,) = fp_solve(spec, g0, T=150.0, dt=5e-3)
    assert abs(gT.h * gT.density.sum() - 1.0) <= 1e-12
    assert gT.clip_count == 0


def test_gibbs_residual_second_order():
    # stationary density ~ exp(-2 gamma V / sigma^2) for constant coefficients:
    # the discrete residual of the interpolated profile shrinks like h^2
    gamma, sigma = 2.0, 1.0
    spec = const_spec(
        gamma=gamma, sigma=sigma, grad_V=lambda x: x**3 - x
    )
    residuals = []
    for M in (100, 200):
        x = cell_centers(3.0, M)
        V = x**4 / 4.0 - x**2 / 2.0
        g = Grid1D.from_values(3.0, M, np.exp(-2.0 * gamma * V / sigma**2))
        residuals.append(stationary_residual(g, spec))
    assert residuals[1] < residuals[0]
    ratio = residuals[0] / residuals[1]
    assert 3.0 <= ratio <= 5.0


def test_gibbs_profile_nearly_static_under_evolution():
    gamma, sigma = 2.0, 1.0
    spec = const_spec(gamma=gamma, sigma=sigma, grad_V=lambda x: x**3 - x)
    M = 200
    x = cell_centers(3.0, M)
    V = x**4 / 4.0 - x**2 / 2.0
    g0 = Grid1D.from_values(3.0, M, np.exp(-2.0 * gamma * V / sigma**2))
    (gT,) = fp_solve(spec, g0, T=0.5, dt=2e-4)
    # relaxation toward the discrete steady state is bounded by the O(h^2)
    # interpolation error of the profile itself (h^2 = 9e-4 here)
    assert l1_density_distance(gT, g0.density) < 1e-3


def test_nonstationary_profile_has_positive_residual():
    spec = const_spec(gamma=1.0, sigma=1.0, grad_V=lambda x: x)
    g = gaussian_grid(4.0, 64, 2.0)  # too wide for this potential
    assert stationary_residual(g, spec) > 1e-3


# ---- interaction kernels ----

def test_linear_kernel_shortcut_matches_matrix_route():
    base = dict(gamma=1.5, sigma=1.0, grad_V=lambda x: x**3 - x, phi=0.5)
    fast = const_spec(grad_K=LinearVectorField(0.2), **base)
    slow = const_spec(grad_K=lambda z: 0.2 * z, **base)
    g = gaussian_grid(3.0, 48, 0.3, mean=0.4)
    a = fp_step(g, fast, 1e-3)
    b = fp_step(g, slow, 1e-3)
    assert np.allclose(a.density, b.density, rtol=0, atol=1e-14)


def test_constant_phi_shortcut_matches_matrix_route():
    common = dict(
        dim=1,
        grad_V=lambda x: x,
        grad_K=ZeroVectorField(),
        gamma=ConstantMatrixField(1.0),
        sigma=ConstantMatrixField(1.0),
        lambda_gamma_hint=1.0,
        lambda_phi_hint=0.5,
    )
    fast = ModelSpec(phi=ConstantMatrixField(0.5), **common)
    slow = ModelSpec(phi=lambda z: np.broadcast_to(0.5, z.shape[:-1] + (1, 1)), **common)
    g = gaussian_grid(4.0, 40, 0.5)
    a = fp_step(g, fast, 2e-3)
    b = fp_step(g, slow, 2e-3)
    assert np.allclose(a.density, b.density, rtol=0, atol=1e-14)


def matrix_kernel_spec():
    """State-dependent gamma, phi and grad_K: every kernel-matrix route runs."""
    return ModelSpec(
        dim=1,
        grad_V=lambda x: x,
        grad_K=lambda z: 0.1 * np.tanh(z),
        phi=lambda z: np.broadcast_to(
            0.5 + 0.2 * np.cos(z[..., 0])[..., None, None], z.shape[:-1] + (1, 1)
        ),
        gamma=lambda x: (2.0 + x[..., 0] / (1.0 + x[..., 0] ** 2))[..., None, None],
        sigma=ConstantMatrixField(1.0),
        lambda_gamma_hint=1.4,
        lambda_phi_hint=0.3,
    )


def test_state_dependent_friction_and_kernel_run():
    spec = matrix_kernel_spec()
    g0 = gaussian_grid(4.0, 48, 0.4)
    (gT,) = fp_solve(spec, g0, T=0.05, dt=1e-3)
    assert abs(gT.h * gT.density.sum() - 1.0) < 1e-12
    assert np.min(gT.density) >= 0.0
    # same inputs replay to the bit
    (gT2,) = fp_solve(spec, g0, T=0.05, dt=1e-3)
    assert np.array_equal(gT.density, gT2.density)


# ---- fp_solve plumbing ----

def test_solve_trivial_horizon_returns_initial():
    g = gaussian_grid(4.0, 32, 0.5)
    out = fp_solve(const_spec(), g, T=g.t, dt=1e-3)
    assert len(out) == 1 and out[0] is g


def test_solve_snapshot_times_land_exactly():
    spec = const_spec(gamma=1.0, sigma=1.0)
    g = gaussian_grid(8.0, 128, 0.5)
    snaps = fp_solve(spec, g, T=0.5, dt=2e-3, snapshot_times=[0.25, 0.5])
    assert [s.t for s in snaps] == pytest.approx([0.25, 0.5], abs=1e-12)


def test_solve_validates_snapshot_order():
    g = gaussian_grid(4.0, 32, 0.5)
    with pytest.raises(ValidationError, match="sorted"):
        fp_solve(const_spec(), g, T=1.0, dt=1e-3, snapshot_times=[0.5, 0.25])


def test_boundary_leak_warns():
    spec = const_spec(gamma=1.0, sigma=np.sqrt(2.0))  # free diffusion
    g = gaussian_grid(2.0, 32, 0.5)
    with pytest.warns(UserWarning, match="boundary"):
        fp_solve(spec, g, T=1.0, dt=2e-3)


# ---- cross-check against the particle limit dynamics ----

def test_density_matches_limit_particles_double_well():
    spec = make_double_well_1d()
    L, M, var0 = 3.5, 35, 0.25
    g0 = gaussian_grid(L, M, var0)
    (gT,) = fp_solve(spec, g0, T=1.0, dt=2e-3)

    stream = NoiseStream(2026)
    n = 10_000
    x0 = np.sqrt(var0) * stream.block(2**32, 0, n, 1)
    init = OverdampedEnsemble(t=0.0, positions=x0)
    (end,) = simulate_limit(spec, init, T=1.0, dt=1e-3, stream=stream)
    hist = histogram_density(gT, end.positions)
    assert l1_density_distance(gT, hist) <= 5e-2


# ---- output format ----

def test_density_csv_format(tmp_path):
    spec = const_spec(gamma=1.0, sigma=1.0)
    g = gaussian_grid(4.0, 16, 0.25)
    snaps = fp_solve(spec, g, T=0.01, dt=1e-3, snapshot_times=[0.0, 0.01])
    path = tmp_path / "density.csv"
    write_density_csv(path, snaps)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x_center,rho"
    assert len(lines) == 1 + 2 * 16
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(-3.75)
    assert float(first[2]) == pytest.approx(g.density[0], rel=1e-15)
    with pytest.raises(ValidationError, match="snapshots"):
        write_density_csv(path, [])


def test_histogram_density_unit_mass():
    g = gaussian_grid(3.0, 24, 0.5)
    rng = np.random.default_rng(7)
    hist = histogram_density(g, rng.normal(0.0, 0.5, size=(500, 1)))
    assert g.h * hist.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError, match="shapes"):
        l1_density_distance(g, np.ones(5))


# ---- differential oracle: the step as first written, with numpy's wrappers ----

def oracle_face_fluxes(grid, cache):
    rho = grid.density
    h = grid.h
    mass = h * rho.sum()
    if cache.phi_const is not None:
        phi_c = cache.phi_const * mass
        phi_f = phi_c
    else:
        phi_c = h * (cache.phiK_c @ rho)
        phi_f = h * (cache.phiK_f @ rho)
    A_c = cache.gamma_c + phi_c
    A_f = cache.gamma_f + phi_f
    if np.min(A_c) <= 0.0 or np.min(A_f) <= 0.0:
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
    with np.errstate(divide="ignore", invalid="ignore"):
        peclet = np.abs(u) * h * A_f / J_f
    peclet = np.where(J_f > 0.0, peclet, np.where(u == 0.0, 0.0, np.inf))
    rho_face = np.where(peclet <= 2.0, centered, upwind)

    rj = rho * J_c
    F = -u * rho_face - (rj[1:] - rj[:-1]) / (h * A_f)
    return F, u, A_c, J_c


def oracle_cfl_admissible(grid, u, A_c, J_c):
    h = grid.h
    umax = float(np.max(np.abs(u))) if u.size else 0.0
    jmax = float(np.max(J_c))
    adv = h / umax if umax > 0.0 else np.inf
    dif = h * h * float(np.min(A_c)) / jmax if jmax > 0.0 else np.inf
    return 0.4 * min(adv, dif)


def oracle_fp_step(grid, spec, dt, cache):
    if dt < 0.0:
        raise ValidationError(f"dt must be >= 0, got {dt}")
    if dt == 0.0:
        return grid
    F, u, A_c, J_c = oracle_face_fluxes(grid, cache)
    admissible = oracle_cfl_admissible(grid, u, A_c, J_c)
    if dt > admissible or dt == np.inf:
        raise CFLError(
            f"dt={dt:.3e} violates the CFL bound; reduce to <= {admissible:.3e}",
            admissible_dt=admissible,
        )
    flux = np.concatenate(([0.0], F, [0.0]))
    new = grid.density - (dt / grid.h) * np.diff(flux)
    clipped = 0
    if np.min(new) < 0.0:
        if np.min(new) < _CLIP_FLOOR:
            raise StabilityError(
                f"density undershoot {np.min(new):.3e} exceeds rounding scale"
            )
        clipped = int(np.count_nonzero(new < 0.0))
        new = np.clip(new, 0.0, None)
    return replace(
        grid, density=new, t=grid.t + dt, clip_count=grid.clip_count + clipped
    )


def step_both(grid, spec, dt, cache):
    """One step by fp_step and by the oracle; both grids, or both errors."""
    outcomes = []
    for step in (fp_step, oracle_fp_step):
        try:
            outcomes.append(step(grid, spec, dt, cache=cache))
        except (CFLError, StabilityError) as exc:
            outcomes.append(exc)
    new, old = outcomes
    assert type(new) is type(old)
    if isinstance(old, Exception):
        assert str(new) == str(old)
        assert getattr(new, "admissible_dt", None) == getattr(old, "admissible_dt", None)
        raise old
    assert np.array_equal(new.density, old.density)
    assert new.t == old.t
    assert new.clip_count == old.clip_count
    return new


def admissible_dt(grid, spec, cache):
    """The CLI's probe: an infinite step fails with the admissible dt."""
    with pytest.raises(CFLError) as exc:
        step_both(grid, spec, np.inf, cache)
    return exc.value.admissible_dt


def one_sided_drift(x):
    """grad V = 0 on x <= 0 and x^3 beyond: u = 0 on half the faces, up to 64 elsewhere."""
    return np.where(x > 0.0, x * x * x, 0.0)


DIFFERENTIAL_SPECS = {
    "constant-phi-zero-K": make_state_dep_friction_1d,
    "linear-K": make_double_well_1d,
    "matrix-phi-K": matrix_kernel_spec,
    "one-sided-drift": lambda: const_spec(grad_V=one_sided_drift),
    # J = 0 on every face: only the faces with u = 0 may stay centered
    "one-sided-drift-no-noise": lambda: const_spec(sigma=0.0, grad_V=one_sided_drift),
}


@pytest.mark.parametrize("M", [4, 1600])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SPECS))
def test_fp_step_matches_oracle_bit_for_bit(name, M):
    spec = DIFFERENTIAL_SPECS[name]()
    grid = gaussian_grid(4.0, M, 0.6, mean=0.3)
    cache = _build_cache(grid, spec)
    for _ in range(10):
        dt = admissible_dt(grid, spec, cache)
        with pytest.raises(CFLError):
            step_both(grid, spec, 1.01 * dt, cache)
        grid = step_both(grid, spec, 0.9 * dt, cache)
    assert grid.t > 0.0


def test_fp_step_matches_oracle_when_clipping_and_on_undershoot():
    # a state-dependent sigma makes the cell-centered J of a loaded cell smaller
    # than its face's J: the centered flux then pulls an empty neighbour below
    # zero, by an amount linear in dt
    spec = ModelSpec(
        dim=1,
        grad_V=LinearVectorField(3.0),
        grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(0.5),
        gamma=ConstantMatrixField(1.0),
        sigma=lambda x: (1.0 + 0.9 * np.cos(10.0 * x[..., 0]))[..., None, None],
        lambda_gamma_hint=1.0,
        lambda_phi_hint=0.5,
    )
    grid = Grid1D.from_values(
        2.0, 8, np.array([0.0, 0.955, 0.0, 0.0, 0.62, 0.0, 0.0, 0.0])
    )
    cache = _build_cache(grid, spec)
    dt = admissible_dt(grid, spec, cache)
    # at the bound the undershoot is about -0.05: -5e-8 here, past the floor
    with pytest.raises(StabilityError, match="undershoot"):
        step_both(grid, spec, 1e-6 * dt, cache)
    # -5e-10: rounding scale, so the step clips
    clipped = step_both(grid, spec, 1e-8 * dt, cache)
    assert clipped.clip_count > 0
    assert np.minimum.reduce(clipped.density) == 0.0

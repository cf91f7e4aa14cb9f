"""Config, sweep, slice-diagnostic, and CLI tests."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallmass import harness, observables, overdamped, underdamped
from smallmass.ensemble import (
    RUN_INIT_POSITIONS,
    NoiseStream,
    UnderdampedEnsemble,
    mean_field_coefficients,
)
from smallmass.errors import (
    BlowUpError,
    SmallMassError,
    StabilityError,
    StiffnessError,
    ValidationError,
)
from smallmass.harness import (
    W2_EXACT_MAX_N,
    ExperimentConfig,
    build_spec,
    default_delta,
    default_snapshots,
    initial_positions,
    initial_velocities,
    main,
    run_convergence_sweep,
    run_slice_pair,
    slice_starts,
    underdamped_dt,
    _worker_count,
)
from smallmass.model import (
    MAX_DIM,
    PRESETS,
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
)
from smallmass.observables import bump_test_functions, weak_gap_rows
from smallmass.underdamped import UDStepperConfig, simulate_underdamped


def micro_sweep_config(tmp_path, **overrides):
    base = dict(
        preset="quadratic-ou",
        n_particles=60,
        epsilon_grid=(0.1, 0.05),
        T=0.3,
        t_star=0.1,
        snapshot_times=(0.1, 0.2, 0.3),
        seed=11,
        out_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig.from_mapping(base)


# ---- configuration ----

def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys"):
        ExperimentConfig.from_mapping({"preset": "quadratic-ou", "particles": 10})


def test_config_requires_exactly_one_model_source():
    with pytest.raises(ValidationError, match="exactly one"):
        ExperimentConfig.from_mapping({})
    with pytest.raises(ValidationError, match="exactly one"):
        ExperimentConfig.from_mapping(
            {"preset": "quadratic-ou", "model": {"kind": "quadratic-ou"}}
        )


def test_config_validates_grids_and_times():
    ok = dict(preset="quadratic-ou")
    with pytest.raises(ValidationError, match="strictly decreasing"):
        ExperimentConfig.from_mapping({**ok, "epsilon_grid": [0.05, 0.1]})
    with pytest.raises(ValidationError, match="strictly decreasing"):
        ExperimentConfig.from_mapping({**ok, "epsilon_grid": []})
    with pytest.raises(ValidationError, match="t_star"):
        ExperimentConfig.from_mapping({**ok, "t_star": 0.0})
    with pytest.raises(ValidationError, match="t_star"):
        ExperimentConfig.from_mapping({**ok, "T": 1.0, "t_star": 1.5})
    with pytest.raises(ValidationError, match="snapshot_times"):
        ExperimentConfig.from_mapping({**ok, "snapshot_times": [0.05]})
    with pytest.raises(ValidationError, match="delta"):
        ExperimentConfig.from_mapping({**ok, "delta": 2.0})
    with pytest.raises(ValidationError, match="scheme"):
        ExperimentConfig.from_mapping({**ok, "scheme": "rk4"})
    with pytest.raises(ValidationError, match="w2_method"):
        ExperimentConfig.from_mapping({**ok, "w2_method": "banana"})
    with pytest.raises(ValidationError, match="init_velocities"):
        ExperimentConfig.from_mapping({**ok, "init_velocities": "hot"})
    with pytest.raises(ValidationError, match="triples"):
        ExperimentConfig.from_mapping({**ok, "init_components": [[1.0, 0.0]]})


def test_config_yaml_roundtrip(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "preset": "double-well-1d",
                "n_particles": 123,
                "epsilon_grid": [0.2, 0.1],
                "T": 2.0,
                "t_star": 0.2,
                "seed": 7,
            }
        )
    )
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg.preset == "double-well-1d"
    assert cfg.epsilon_grid == (0.2, 0.1)
    assert cfg.n_particles == 123
    with pytest.raises(ValidationError, match="cannot read"):
        ExperimentConfig.from_yaml(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    for text, message in (
        ("::: not yaml {{{", "unknown config keys: ::"),  # valid YAML: {'::': 'not yaml {{{'}
        ("T: [1, 2", "is not valid YAML"),
        ("- preset: quadratic-ou", "config must be a mapping, got list"),
    ):
        bad.write_text(text)
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig.from_yaml(bad)


@pytest.mark.parametrize(
    "lines, key, line",
    [
        (["preset: quadratic-ou", "T: 0.2", "t_star: 0.1", "T: 5.0"], "T", 4),
        (["model:", "  kind: quadratic-ou", "  k: 1.0", "  k: 2.0"], "k", 4),
    ],
    ids=["top-level", "model"],
)
def test_cli_rejects_a_key_given_twice(tmp_path, capsys, lines, key, line):
    # a second value must not silently replace the first (T: 0.2, then T: 5.0)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("\n".join(lines + [f"out_dir: {out}"]) + "\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert f"gives key {key!r} twice (again at line {line})" in capsys.readouterr().err
    assert not out.exists()


def test_build_spec_inline_model():
    cfg = ExperimentConfig.from_mapping(
        {"model": {"kind": "quadratic-ou", "k": 2.0, "gamma": 1.0}}
    )
    spec = build_spec(cfg)
    assert spec.dim == 1
    # k=2 shows up in the potential gradient
    assert spec.grad_V_at(np.array([[1.5]]))[0, 0] == pytest.approx(3.0)
    with pytest.raises(ValidationError, match="unknown model kind"):
        build_spec(ExperimentConfig.from_mapping({"model": {"kind": "nope"}}))
    with pytest.raises(ValidationError, match="bad parameters"):
        build_spec(
            ExperimentConfig.from_mapping({"model": {"kind": "quadratic-ou", "zz": 1}})
        )


def test_dt_policy():
    cfg = ExperimentConfig.from_mapping({"preset": "quadratic-ou", "T": 2.0})
    assert underdamped_dt(cfg, 0.2) == pytest.approx(1e-3)
    assert underdamped_dt(cfg, 1e-3) == pytest.approx(1e-4)
    exp = ExperimentConfig.from_mapping(
        {"preset": "quadratic-ou", "T": 2.0, "scheme": "exponential"}
    )
    assert underdamped_dt(exp, 1e-3) == pytest.approx(0.02)
    override = ExperimentConfig.from_mapping(
        {"preset": "quadratic-ou", "dt_under": 5e-4}
    )
    assert underdamped_dt(override, 0.2) == pytest.approx(5e-4)
    assert default_delta(0.05, 1e-3) == pytest.approx(0.01)
    assert default_delta(1.0, 1e-3) == pytest.approx(0.1)  # capped


def test_default_snapshots_span():
    snaps = default_snapshots(0.2, 2.0)
    assert snaps[0] == 0.2 and snaps[-1] == 2.0 and len(snaps) == 9
    assert default_snapshots(1.0, 1.0) == (1.0,)


# ---- initial conditions ----

def test_initial_positions_mixture():
    stream = NoiseStream(3)
    comps = ((0.5, -3.0, 0.1), (0.5, 3.0, 0.1))
    x = initial_positions(stream, 2000, 1, comps)
    left = int(np.sum(x[:, 0] < 0))
    assert 850 <= left <= 1150
    assert np.all(np.abs(np.abs(x[:, 0]) - 3.0) < 1.0)
    # deterministic
    assert np.array_equal(x, initial_positions(NoiseStream(3), 2000, 1, comps))


def test_a_mixture_start_picks_its_component_from_lane_dim():
    # the offsets are lanes 0..dim-1 of the position-init block and the
    # component draw is lane dim, so a mixture fits at every dim, MAX_DIM too
    import scipy.special

    comps = ((0.5, -1.0, 0.1), (0.5, 1.0, 0.1))
    for dim in (1, 3, MAX_DIM):
        x = initial_positions(NoiseStream(3), 10, dim, comps)
        z = NoiseStream(3).block(RUN_INIT_POSITIONS, 0, 10, dim + 1)
        left = scipy.special.ndtr(z[:, dim]) < 0.5
        assert 0 < left.sum() < 10
        assert np.array_equal(x, np.where(left[:, None], -1.0, 1.0) + 0.1 * z[:, :dim])
        # one component: the same offsets, no component lane
        one = initial_positions(NoiseStream(3), 10, dim, comps[:1])
        assert np.array_equal(one, -1.0 + 0.1 * z[:, :dim])


def test_initial_velocities_cold_and_equilibrated():
    spec = build_spec(ExperimentConfig.from_mapping({"preset": "quadratic-ou"}))
    stream = NoiseStream(5)
    x = initial_positions(stream, 4000, 1, ((1.0, 0.0, 0.5),))
    assert np.array_equal(
        initial_velocities(stream, x, spec, 0.01, "cold"), np.zeros_like(x)
    )
    v = initial_velocities(stream, x, spec, 0.01, "equilibrated")
    # J = sigma^2/(2A) = 1/4 with A = gamma + phi = 2, so Var(v) = J/eps = 25
    assert np.var(v) == pytest.approx(25.0, rel=0.08)


def test_initial_velocities_2d_equilibrated():
    spec = build_spec(
        ExperimentConfig.from_mapping({"preset": "gaussian-interaction-2d"})
    )
    stream = NoiseStream(9)
    x = initial_positions(stream, 3000, 2, ((1.0, 0.0, 0.3),))
    v = initial_velocities(stream, x, spec, 0.1, "equilibrated")
    assert v.shape == (3000, 2)
    assert np.all(np.isfinite(v))
    assert np.var(v) > 0.1


def test_initial_velocities_with_a_singular_J_are_a_validation_error():
    # sigma = diag(1, 0): no noise drives the second velocity, so J is singular
    spec = ModelSpec(
        dim=2, grad_V=LinearVectorField(1.0), grad_K=ZeroVectorField(),
        phi=ConstantMatrixField(np.eye(2)), gamma=ConstantMatrixField(np.eye(2)),
        sigma=ConstantMatrixField(np.diag([1.0, 0.0])), lambda_phi_hint=1.0,
    )
    stream = NoiseStream(9)
    x = initial_positions(stream, 10, 2, ((1.0, 0.0, 0.3),))
    assert np.array_equal(initial_velocities(stream, x, spec, 0.1, "cold"), np.zeros_like(x))
    with pytest.raises(ValidationError, match="J is singular at .*init_velocities: cold"):
        initial_velocities(stream, x, spec, 0.1, "equilibrated")


# ---- convergence sweep ----

def test_sweep_row_counts_and_files(tmp_path):
    cfg = micro_sweep_config(tmp_path)
    report = run_convergence_sweep(cfg)
    assert len(report.w2_rows) == 2 * 3  # two epsilons, three snapshots
    assert len(report.weak) == 2 * 3 * 3  # x three bump functions
    for path in report.out_paths.values():
        assert os.path.exists(path)
    assert set(report.max_moment2) == {0.1, 0.05}
    assert report.energy.ratio >= 1.0
    # single-entry grid gives a single-epsilon report
    solo = run_convergence_sweep(
        micro_sweep_config(tmp_path, epsilon_grid=(0.1,), out_dir=str(tmp_path / "s"))
    )
    assert {r[0] for r in solo.w2_rows} == {0.1}


def count_coefficient_forms(monkeypatch):
    """The states whose coefficient objects harness forms, in call order."""
    formed = []
    form = harness.mean_field_coefficients

    def counting(state, spec):
        formed.append(state)
        return form(state, spec)

    monkeypatch.setattr(harness, "mean_field_coefficients", counting)
    return formed


def test_a_sweep_forms_one_coefficient_object_per_epsilon_and_snapshot(
    tmp_path, monkeypatch
):
    cfg = micro_sweep_config(tmp_path)
    formed = count_coefficient_forms(monkeypatch)
    run_convergence_sweep(cfg)
    snaps = [(s.epsilon, s.t) for s in formed if isinstance(s, UnderdampedEnsemble)]
    assert len(snaps) == len(set(snaps)) == len(cfg.epsilon_grid) * len(cfg.snapshot_times)
    assert sorted({e for e, _ in snaps}) == sorted(cfg.epsilon_grid)
    # the other calls draw each epsilon run's equilibrated start velocities
    starts = [s for s in formed if isinstance(s, np.ndarray)]
    assert len(starts) == len(cfg.epsilon_grid) == len(formed) - len(snaps)


def test_sweep_deterministic_outputs(tmp_path):
    a = run_convergence_sweep(micro_sweep_config(tmp_path, out_dir=str(tmp_path / "a")))
    b = run_convergence_sweep(micro_sweep_config(tmp_path, out_dir=str(tmp_path / "b")))
    for name in ("w2", "weak_gaps", "diagnostics"):
        bytes_a = open(a.out_paths[name], "rb").read()
        bytes_b = open(b.out_paths[name], "rb").read()
        assert bytes_a == bytes_b, name


def test_sweep_thread_count_does_not_change_results(tmp_path, monkeypatch):
    # a coupled 1D sweep with no pair sums is one lockstep group at any
    # thread count; uncoupled, each run is a job of its own on 1-3 workers.
    # EM steps at min(eps / 10, 1e-3), so in the second grid the runs take
    # 200, 200, 400 and 800 steps and the runs of a group end apart
    for coupled in (True, False):
        for grid in ((0.2, 0.1, 0.05), (0.02, 0.01, 0.005, 0.0025)):
            written = {}
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("SMALLMASS_THREADS", threads)
                out = tmp_path / f"{coupled}-{len(grid)}-{threads}"
                report = run_convergence_sweep(micro_sweep_config(
                    tmp_path, epsilon_grid=grid, T=0.2, snapshot_times=(0.1, 0.2),
                    coupled=coupled, out_dir=str(out),
                ))
                written[threads] = {
                    name: open(report.out_paths[name], "rb").read()
                    for name in ("w2", "weak_gaps", "diagnostics")
                }
            assert written["1"] == written["2"] == written["3"], (coupled, grid)
    monkeypatch.setenv("SMALLMASS_THREADS", "zero")
    with pytest.raises(ValidationError, match="SMALLMASS_THREADS"):
        _worker_count(4)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "uncoupled"])
def test_a_lockstep_group_draws_each_coupled_step_block_once(
    tmp_path, monkeypatch, threads, coupled
):
    monkeypatch.setenv("SMALLMASS_THREADS", str(threads))
    drawn = []
    original = NoiseStream._generator

    def counting(self, run, step, lane):
        if lane == 0:  # every block draws lane 0 once
            drawn.append((self.master_seed, run, step))
        return original(self, run, step, lane)

    monkeypatch.setattr(NoiseStream, "_generator", counting)
    grid = (0.2, 0.1, 0.05)
    cfg = micro_sweep_config(tmp_path, epsilon_grid=grid, coupled=coupled)
    run_convergence_sweep(cfg)
    steps = 300  # T / dt for the limit run and every epsilon
    counts = {}
    for key in drawn:
        counts[key] = counts.get(key, 0) + 1
    seed = cfg.seed
    for k in range(1, steps + 1):
        # coupled, the limit run and every epsilon form one group on one
        # stream, whatever the thread count: each block is drawn once
        assert counts[(seed, 0, k)] == 1
        if not coupled:
            for i in range(len(grid)):
                assert counts[(seed + i + 1, 0, k)] == 1
    step_draws = sum(n for (_, run, step), n in counts.items() if run == 0 and step > 0)
    assert step_draws == steps * (1 if coupled else 1 + len(grid))


def test_a_coupled_sweep_with_pair_sums_steps_each_run_as_its_own_job(
    tmp_path, monkeypatch
):
    # pair sums, not noise draws, dominate a gaussian-interaction-2d step,
    # so in a coupled sweep each run is a job of its own on its own stream
    # of the seed: the limit run and every epsilon draw each block once, at
    # any thread count, and the output bytes stay the same
    assert not harness._noise_bound(build_spec(micro_sweep_config(
        tmp_path, preset="gaussian-interaction-2d")))
    assert all(
        harness._noise_bound(build_spec(micro_sweep_config(tmp_path, preset=p)))
        for p in ("quadratic-ou", "double-well-1d", "state-dep-friction-1d")
    )
    drawn = []
    original = NoiseStream._generator

    def counting(self, run, step, lane):
        if lane == 0:  # every block draws lane 0 once
            drawn.append((self.master_seed, run, step))
        return original(self, run, step, lane)

    monkeypatch.setattr(NoiseStream, "_generator", counting)
    written = {}
    for threads in (1, 2):
        monkeypatch.setenv("SMALLMASS_THREADS", str(threads))
        drawn.clear()
        cfg = micro_sweep_config(
            tmp_path, preset="gaussian-interaction-2d", n_particles=20,
            epsilon_grid=(0.2, 0.1, 0.05), T=0.01, t_star=0.005,
            snapshot_times=(0.005, 0.01), out_dir=str(tmp_path / f"threads{threads}"),
        )
        report = run_convergence_sweep(cfg)
        for k in range(1, 11):  # T / dt for the limit run and every epsilon
            assert drawn.count((cfg.seed, 0, k)) == 1 + len(cfg.epsilon_grid)
        written[threads] = {
            name: open(report.out_paths[name], "rb").read()
            for name in ("w2", "weak_gaps", "diagnostics")
        }
    assert written[1] == written[2]


def test_worker_count_follows_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.delenv("SMALLMASS_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _worker_count(4) == 2
    assert _worker_count(1) == 1
    # SMALLMASS_THREADS still wins over the affinity mask
    monkeypatch.setenv("SMALLMASS_THREADS", "3")
    assert _worker_count(4) == 3
    # where the platform has no affinity mask, the CPU count applies
    monkeypatch.delenv("SMALLMASS_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _worker_count(3) == 3
    assert _worker_count(6) == 4


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failures_inside_a_lockstep_group(tmp_path, monkeypatch, threads):
    # eps = 0.1 breaks the EM guard at step 1 (it needs dt <= 0.025); eps =
    # 0.3 fails mid-run at step 3; eps = 0.2 passes. Coupled, all three
    # share one group with the limit run; uncoupled, each is a job of its own.
    monkeypatch.setenv("SMALLMASS_THREADS", threads)
    em = underdamped._STEPPERS["euler_maruyama"]
    reached = {}

    def failing_mid_run(state, spec, cfg, stream, dt=None):
        if state.epsilon == 0.3 and state.step == 3:
            raise StiffnessError("injected failure at step 3", admissible_dt=0.01)
        out = em(state, spec, cfg, stream, dt=dt)
        reached[state.epsilon] = out.t
        return out

    monkeypatch.setitem(underdamped._STEPPERS, "euler_maruyama", failing_mid_run)
    grid = (0.3, 0.2, 0.1)
    first = f"failed_eps_{format(0.3, '.17g')}.json"
    for coupled in (True, False):
        reached.clear()
        out = tmp_path / f"out-{coupled}"
        cfg = micro_sweep_config(
            tmp_path, epsilon_grid=grid, dt_under=0.04, coupled=coupled, out_dir=str(out)
        )
        with pytest.raises(StiffnessError, match=first) as exc:
            run_convergence_sweep(cfg)
        assert exc.value.admissible_dt == exc.value.__cause__.admissible_dt == 0.01
        records = sorted(p for p in os.listdir(out) if p.startswith("failed_eps_"))
        assert records == sorted(
            f"failed_eps_{format(e, '.17g')}.json" for e in (0.3, 0.1)
        )
        errors = {json.load(open(out / p))["epsilon"]: json.load(open(out / p))["error"]
                  for p in records}
        assert "injected failure at step 3" in errors[0.3]
        assert "violates the stability guard" in errors[0.1]
        # the passing run went to T; the failing ones stopped where they failed
        assert reached[0.2] == pytest.approx(cfg.T)
        assert reached[0.3] == pytest.approx(0.1)  # steps of 0.04, 0.04, then 0.02
        assert 0.1 not in reached


def test_a_failed_start_draw_fails_only_its_epsilon(tmp_path, monkeypatch):
    # the start of eps = 0.1 fails before its time loop; it writes its
    # record and is raised, while the limit run and eps = 0.05 go to T
    start = harness._underdamped_start

    def failing_start(spec, config, epsilon, stream):
        if epsilon == 0.1:
            raise StabilityError("injected start failure")
        return start(spec, config, epsilon, stream)

    monkeypatch.setattr(harness, "_underdamped_start", failing_start)
    em = underdamped._STEPPERS["euler_maruyama"]
    reached = {}

    def recording(state, spec, cfg, stream, dt=None):
        out = em(state, spec, cfg, stream, dt=dt)
        reached[state.epsilon] = out.t
        return out

    monkeypatch.setitem(underdamped._STEPPERS, "euler_maruyama", recording)
    out = tmp_path / "out"
    cfg = micro_sweep_config(tmp_path, out_dir=str(out))
    with pytest.raises(StabilityError, match="injected start failure"):
        run_convergence_sweep(cfg)
    records = [p for p in os.listdir(out) if p.startswith("failed_eps_")]
    assert records == [f"failed_eps_{format(0.1, '.17g')}.json"]
    assert reached == {0.05: pytest.approx(cfg.T)}


def test_sweep_manifest_traceability(tmp_path):
    cfg = micro_sweep_config(tmp_path)
    report = run_convergence_sweep(cfg)
    manifest = json.load(open(report.out_paths["manifest"]))
    assert manifest["config"]["seed"] == 11
    assert manifest["config"]["preset"] == "quadratic-ou"
    assert manifest["coupled"] is True
    assert set(manifest["dt_under"]) == {format(e, ".17g") for e in (0.1, 0.05)}
    assert all(v == 1e-3 for v in manifest["dt_under"].values())
    assert "numpy" in manifest["versions"]
    assert manifest["runtimes_s"]["limit"] > 0


def test_limit_runtime_is_the_limit_runs_own_time(tmp_path, monkeypatch):
    # on one thread, one lockstep group steps every run and the reports run
    # after the loops, so the runs' own times add up to less than the sweep
    monkeypatch.setenv("SMALLMASS_THREADS", "1")
    started = time.perf_counter()
    report = run_convergence_sweep(micro_sweep_config(tmp_path, coupled=True))
    wall = time.perf_counter() - started
    runtimes = report.manifest["runtimes_s"]
    assert set(runtimes) == {"limit", format(0.1, ".17g"), format(0.05, ".17g")}
    assert 0 < runtimes["limit"] < wall
    assert sum(runtimes.values()) < wall


def test_sweep_warns_when_coupling_is_by_step_index_only(tmp_path, capsys):
    # eps = 0.005 steps at eps / 10 = 5e-4 against dt_limit = 1e-3
    cfg = micro_sweep_config(
        tmp_path, epsilon_grid=(0.1, 0.005), T=0.2, t_star=0.2, snapshot_times=(0.2,)
    )
    report = run_convergence_sweep(cfg)
    err = capsys.readouterr().err
    assert "at epsilon=0.005 step with" in err and "step index only" in err
    manifest = json.load(open(report.out_paths["manifest"]))
    assert manifest["coupling_exact"] == {
        format(0.1, ".17g"): True, format(0.005, ".17g"): False
    }
    # equal steps, or uncoupled runs, print nothing
    run_convergence_sweep(dataclasses.replace(cfg, epsilon_grid=(0.1,)))
    run_convergence_sweep(dataclasses.replace(cfg, coupled=False))
    assert capsys.readouterr().err == ""
    manifest = json.load(open(report.out_paths["manifest"]))
    assert not any(manifest["coupling_exact"].values())


def test_sweep_failure_in_limit_run_aborts(tmp_path):
    # a limit step far beyond the stiffness guard aborts before any
    # epsilon job starts, so the guard's own error propagates
    cfg = micro_sweep_config(tmp_path, dt_limit=5.0, out_dir=str(tmp_path / "f"))
    with pytest.raises(ValidationError, match="Lipschitz"):
        run_convergence_sweep(cfg)


def test_a_limit_run_failure_in_a_coupled_group_raises_its_own_error(
    tmp_path, monkeypatch
):
    # the limit run steps in one group with both epsilons and fails at
    # step 3; its error is raised as it is, the epsilon runs stop there,
    # and no epsilon writes a record; the Lipschitz probe's call (at its
    # stencil targets) is not a step
    fields = overdamped.limit_coefficients
    injected = BlowUpError("injected limit failure at step 3", t=0.003)
    calls = []

    def failing_at_step_3(positions, spec, at=None):
        if at is None:
            calls.append(1)
            if len(calls) == 3:
                raise injected
        return fields(positions, spec, at=at)

    monkeypatch.setattr(overdamped, "limit_coefficients", failing_at_step_3)
    em = underdamped._STEPPERS["euler_maruyama"]
    steps = {}

    def counting(state, spec, cfg, stream, dt=None):
        steps[state.epsilon] = steps.get(state.epsilon, 0) + 1
        return em(state, spec, cfg, stream, dt=dt)

    monkeypatch.setitem(underdamped._STEPPERS, "euler_maruyama", counting)
    cfg = micro_sweep_config(tmp_path, epsilon_grid=(0.1, 0.05))
    assert cfg.coupled
    with pytest.raises(BlowUpError) as exc:
        run_convergence_sweep(cfg)
    assert exc.value is injected
    assert len(calls) == 3
    # of T / dt = 300 steps, each epsilon takes at most the limit run's 3
    assert set(steps) == {0.1, 0.05} and max(steps.values()) <= 3
    assert not list(tmp_path.glob("**/failed_eps_*.json"))


def test_sweep_job_failure_manifest_path(tmp_path):
    # EM guard trips for the largest epsilon only: eps/10 > guard bound
    cfg = micro_sweep_config(
        tmp_path,
        epsilon_grid=(0.1,),
        dt_under=0.04,  # guard needs dt <= 0.5*eps/lambda = 0.025
        out_dir=str(tmp_path / "g"),
    )
    with pytest.raises(ValidationError, match="manifest at") as exc:
        run_convergence_sweep(cfg)
    path = str(exc.value).split("manifest at ")[1]
    record = json.load(open(path))
    assert record["epsilon"] == 0.1
    assert "error" in record


def test_failure_records_of_close_epsilons_do_not_collide(tmp_path, monkeypatch):
    # both jobs trip the EM guard; 0.1 and 0.1000001 agree in six digits,
    # so a %g file name would make the second record overwrite the first
    monkeypatch.setenv("SMALLMASS_THREADS", "2")
    out = tmp_path / "h"
    cfg = micro_sweep_config(
        tmp_path, epsilon_grid=(0.1000001, 0.1), dt_under=0.04, out_dir=str(out)
    )
    with pytest.raises(ValidationError, match="manifest at"):
        run_convergence_sweep(cfg)
    records = sorted(p for p in os.listdir(out) if p.startswith("failed_eps_"))
    assert records == sorted(
        f"failed_eps_{format(e, '.17g')}.json" for e in (0.1, 0.1000001)
    )
    eps = sorted(json.load(open(out / p))["epsilon"] for p in records)
    assert eps == [0.1, 0.1000001]


def test_every_failing_epsilon_writes_its_record_with_one_thread(tmp_path, monkeypatch):
    # a failing job neither stops nor cancels the jobs after it, so every
    # failing epsilon leaves its record; the first in grid order is raised
    monkeypatch.setenv("SMALLMASS_THREADS", "1")
    out = tmp_path / "h"
    grid = (0.1000002, 0.1000001, 0.1)
    cfg = micro_sweep_config(tmp_path, epsilon_grid=grid, dt_under=0.04, out_dir=str(out))
    first = f"failed_eps_{format(grid[0], '.17g')}.json"
    with pytest.raises(ValidationError, match=first):
        run_convergence_sweep(cfg)
    records = sorted(p for p in os.listdir(out) if p.startswith("failed_eps_"))
    assert records == sorted(f"failed_eps_{format(e, '.17g')}.json" for e in grid)


def test_coupled_and_uncoupled_w2_compatible(tmp_path):
    base = dict(
        preset="quadratic-ou",
        n_particles=2000,
        epsilon_grid=(0.2,),
        T=0.5,
        t_star=0.25,
        snapshot_times=(0.25, 0.5),
        out_dir=str(tmp_path / "c"),
    )

    def w2_at_T(cfg):
        rows = run_convergence_sweep(cfg).w2_rows
        return next(v for _, t, v, _ in rows if t == 0.5)

    coupled = w2_at_T(ExperimentConfig.from_mapping({**base, "seed": 0}))
    uncoupled = [
        w2_at_T(
            ExperimentConfig.from_mapping(
                {**base, "seed": s, "coupled": False, "out_dir": str(tmp_path / f"u{s}")}
            )
        )
        for s in (10, 20, 30, 40, 50)
    ]
    mean, sd = np.mean(uncoupled), np.std(uncoupled, ddof=1)
    assert abs(coupled - mean) <= 3.0 * sd * np.sqrt(1.0 + 1.0 / len(uncoupled))


# ---- slice diagnostic ----

def slice_config(tmp_path, **overrides):
    base = dict(
        preset="quadratic-ou",
        n_particles=200,
        epsilon_grid=(0.05,),
        T=0.6,
        t_star=0.2,
        delta=0.1,
        seed=4,
        out_dir=str(tmp_path / "sd"),
    )
    base.update(overrides)
    return ExperimentConfig.from_mapping(base)


def gap_ratio_from_times(diag, t_star):
    """Mean per-slice max |Y - Yhat| of the 2delta rows over the delta rows,
    with each row's slice recovered from its time alone.

    t in (t_k, t_k + width] belongs to slice k. Start rows carry gap zero,
    so the misrounding of a start time into the previous slice cannot move
    any maximum.
    """

    def mean_slice_max(rows, width):
        buckets = {}
        for row in rows:
            j = int(np.ceil((row.t - t_star) / width - 1e-9)) - 1
            j = max(j, 0)
            buckets[j] = max(buckets.get(j, 0.0), abs(row.gap_Y_Yhat))
        return float(np.mean(list(buckets.values())))

    small = mean_slice_max(diag.small, diag.delta)
    return mean_slice_max(diag.big, 2.0 * diag.delta) / small


def test_slice_diagnostic_long_horizon(tmp_path):
    # accumulated step times miss a key rounded to 12 decimals once the
    # landing tolerance 1e-12 * T exceeds 1e-12; states are found by index
    cfg = slice_config(
        tmp_path, n_particles=2, epsilon_grid=(0.5,), dt_under=0.1,
        T=200.0, t_star=100.0, delta=7.0,
    )
    diag = run_slice_pair(cfg)
    # 14 slices x 3 evaluation times x 3 bump functions
    assert len(diag.small) == 126
    assert all(np.isfinite(r.Yhat) for r in diag.small + diag.big)
    assert diag.ratio == gap_ratio_from_times(diag, cfg.t_star)


def test_slice_starts_partition():
    assert np.allclose(slice_starts(0.2, 0.6, 0.1), [0.2, 0.3, 0.4, 0.5])
    with pytest.raises(ValidationError, match="slice"):
        slice_starts(0.2, 0.25, 0.1)


def test_slice_diagnostic_rows(tmp_path):
    cfg = slice_config(tmp_path)
    rows = run_slice_pair(cfg).small
    # 4 slices x 3 evaluation times x 3 bump functions
    assert len(rows) == 36
    starts = set(np.round(slice_starts(0.2, 0.6, 0.1), 12))
    start_rows = [r for r in rows if round(r.t, 12) in starts]
    # one zero row per (slice, psi) at the slice origin; later slices also
    # evaluate earlier anchors at these times, so only 12 rows are exact zeros
    zero_rows = [r for r in start_rows if r.gap_Y_Yhat == 0.0]
    assert len(zero_rows) == 12
    for r in rows:
        assert np.isfinite(r.Y) and np.isfinite(r.Yhat) and np.isfinite(r.Ystar)


def test_slice_diagnostic_deterministic(tmp_path):
    a = run_slice_pair(slice_config(tmp_path))
    b = run_slice_pair(slice_config(tmp_path))
    assert (a.small, a.big, a.ratio) == (b.small, b.big, b.ratio)


@pytest.mark.parametrize(
    "overrides",
    [
        # delta / 2 a multiple of the step: no substep is shortened
        dict(n_particles=50, T=0.6, delta=0.1),
        # delta / 2 = 2.5 steps, and an odd number of delta slices
        dict(n_particles=30, T=0.225, delta=0.005, dt_under=0.002),
    ],
    ids=["aligned", "unaligned"],
)
def test_slice_pair_reads_both_widths_from_one_run(tmp_path, monkeypatch, overrides):
    cfg = slice_config(tmp_path, **overrides)
    calls = []
    counted = observables.ystar_summands

    def counting(c, psi):
        # keyed by step, not id: the pass drops states, and ids get reused
        calls.append((c.state.step, psi.name))
        return counted(c, psi)

    monkeypatch.setattr(observables, "ystar_summands", counting)
    formed = count_coefficient_forms(monkeypatch)
    pair = run_slice_pair(cfg)
    monkeypatch.undo()
    # Y* summands once per distinct (state, psi), for the rows of both widths
    assert len(calls) == len(set(calls)) == 3 * pair.distinct_states
    # one coefficient object per state read; the one other call draws the
    # equilibrated start velocities from the initial positions
    steps = [s.step for s in formed if isinstance(s, UnderdampedEnsemble)]
    assert len(steps) == len(set(steps)) == pair.distinct_states == len(formed) - 1
    n = len(slice_starts(cfg.t_star, cfg.T, cfg.delta))
    n_big = len(slice_starts(cfg.t_star, cfg.T, 2 * cfg.delta))
    assert n_big == n // 2
    assert len(pair.small) == 3 * 3 * n
    assert len(pair.big) == 3 * 3 * n_big
    # slice k of 2delta starts at delta slice 2k and ends where 2k+1 ends
    small_times = sorted({r.t for r in pair.small})
    big_times = sorted({r.t for r in pair.big})
    assert big_times == small_times[: 4 * n_big + 1 : 2]
    # one trajectory: a state's Y, Y* and stderr are the same at both widths
    at = {(r.t, r.psi_id): r for r in pair.small}
    for r in pair.big:
        s = at[(r.t, r.psi_id)]
        assert (r.Y, r.Ystar, r.mc_stderr) == (s.Y, s.Ystar, s.mc_stderr)
    assert sum(r.gap_Y_Yhat == 0.0 for r in pair.big) == 3 * n_big
    assert pair.distinct_states == 2 * n + 1
    assert set(pair.runtimes_s) == {"trajectory", "delta_rows", "2delta_rows"}
    # the ratio read from the run's own slices is the one read from row times
    assert pair.ratio == gap_ratio_from_times(pair, cfg.t_star)


def test_slice_pair_needs_one_full_2delta_slice(tmp_path):
    cfg = slice_config(tmp_path, T=0.35, delta=0.1)  # one delta slice
    with pytest.raises(ValidationError, match="does not fit one slice"):
        run_slice_pair(cfg)


def test_slice_gap_ratio_behaviour(tmp_path):
    # in the sub-relaxation regime (A delta / eps < 1) the gap grows like
    # sqrt(tau), so doubling delta multiplies the per-slice max by ~sqrt(2)
    cfg = slice_config(
        tmp_path, n_particles=400, T=1.0, delta=None,
        init_components=((1.0, 1.0, 0.3),),
    )
    ratio = run_slice_pair(replace(cfg, delta=0.002)).ratio
    assert 1.1 <= ratio <= 3.0
    with pytest.raises(ValidationError, match="below one step"):
        run_slice_pair(replace(cfg, delta=1e-9))


def slice_pair_reference(cfg):
    """run_slice_pair's rows, ratio and state count, read off the full
    snapshot list of one simulate_underdamped run."""
    spec = build_spec(cfg)
    epsilon = cfg.epsilon_grid[0]
    stream = NoiseStream(cfg.seed)
    x0 = initial_positions(stream, cfg.n_particles, spec.dim, cfg.init_components)
    v0 = initial_velocities(stream, x0, spec, epsilon, cfg.init_velocities)
    init = UnderdampedEnsemble(epsilon=epsilon, t=0.0, positions=x0, velocities=v0)
    step = UDStepperConfig(scheme=cfg.scheme, dt=underdamped_dt(cfg, epsilon))
    starts = slice_starts(cfg.t_star, cfg.T, cfg.delta)
    mids, ends = starts + 0.5 * cfg.delta, starts + cfg.delta
    times = sorted({float(t) for t in np.concatenate([starts, mids, ends])})
    at = dict(zip(times, simulate_underdamped(spec, init, cfg.T, step, stream, times)))
    psis = bump_test_functions(spec.dim, cfg.psi_centers, cfg.psi_radius)
    small, big, small_max, big_max = [], [], [], []

    def add(states, rows, maxima):
        cs = [mean_field_coefficients(s, spec) for s in states]
        new = [r for c in cs for r in weak_gap_rows(c, psis, anchor=cs[0])]
        rows.extend(new)
        maxima.append(max(abs(r.gap_Y_Yhat) for r in new))

    start = at[float(starts[0])]
    for k in range(len(starts)):
        end = at[float(ends[k])]
        add((start, at[float(mids[k])], end), small, small_max)
        if k % 2 == 0:
            pair_start = start
        else:
            add((pair_start, start, end), big, big_max)
        start = end  # slice k + 1 starts from slice k's end, not at starts[k + 1]
    return small, big, float(np.mean(big_max)) / float(np.mean(small_max)), len(times)


@pytest.mark.parametrize(
    "overrides, missed",
    [
        (dict(n_particles=40, T=0.6, delta=0.1), 0),
        (dict(n_particles=30, T=0.225, delta=0.005, dt_under=0.002), 1),
        (dict(n_particles=20, T=0.5, t_star=0.3, delta=0.01, dt_under=0.002), 3),
    ],
    ids=["aligned", "unaligned", "ulp-ends"],
)
def test_streamed_slice_pass_matches_the_full_snapshot_list(tmp_path, overrides, missed):
    cfg = slice_config(tmp_path, **overrides)
    starts = slice_starts(cfg.t_star, cfg.T, cfg.delta)
    # slice ends that miss the next start by an ulp
    assert sum(a + cfg.delta != b for a, b in zip(starts, starts[1:])) == missed
    small, big, ratio, n_times = slice_pair_reference(cfg)
    pair = run_slice_pair(cfg)
    assert pair.small == tuple(small)
    assert pair.big == tuple(big)
    assert pair.ratio == ratio
    # every start, midpoint and end, less the starts that are an earlier end
    assert pair.distinct_states == 2 * len(starts) + 1 == n_times - missed


def test_slice_pass_holds_a_few_states_whatever_the_slice_count(tmp_path, monkeypatch):
    # 200 slices: the pass used to hold all 401 slice states of the run
    cfg = slice_config(
        tmp_path, n_particles=10, T=0.6, t_star=0.2, delta=0.002, dt_under=0.001
    )
    assert len(slice_starts(cfg.t_star, cfg.T, cfg.delta)) == 200
    alive, peak = [0], [0]
    advanced = UnderdampedEnsemble.advanced

    def counted(self, *args, **kwargs):
        new = advanced(self, *args, **kwargs)
        alive[0] += 1
        peak[0] = max(peak[0], alive[0])
        weakref.finalize(new, lambda: alive.__setitem__(0, alive[0] - 1))
        return new

    monkeypatch.setattr(UnderdampedEnsemble, "advanced", counted)
    pair = run_slice_pair(cfg)
    monkeypatch.undo()
    assert pair.distinct_states == 401
    assert peak[0] <= 8


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_2d_limit_run_at_n_1000_peaks_below_100_mb(tmp_path):
    # the pair sums run over all targets in chunks; sized by their output
    # alone, a chunk's kernel temporaries took this run to about 110 MB
    cfg = write_config(
        tmp_path, preset="gaussian-interaction-2d", n_particles=1000, T=0.005,
        t_star=0.0025, dt_limit=0.001,
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    # a child's ru_maxrss counts its spawner's RSS up to its exec, so the
    # run is spawned from a fresh interpreter, not from this test process
    measure = """import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "smallmass.harness"] + sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""
    done = subprocess.run(
        [sys.executable, "-c", measure, "limit", "--config", cfg],
        env=env, capture_output=True, text=True, timeout=300,
    )
    status, kib = map(int, done.stdout.split()[-2:])
    assert status == 0, done.stderr
    assert os.path.exists(tmp_path / "cli" / "limit_snapshots.csv")
    mb = kib / 1024
    assert mb < 100.0, f"peak RSS {mb:.1f} MB"


# ---- CLI ----

def write_config(tmp_path, name="cfg.yaml", **overrides):
    base = dict(
        preset="quadratic-ou",
        n_particles=50,
        epsilon_grid=[0.1],
        T=0.2,
        t_star=0.1,
        seed=2,
        out_dir=str(tmp_path / "cli"),
    )
    base.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(base))
    return str(path)


def test_cli_simulate_and_limit(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["limit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "underdamped_snapshots.csv" in out and "limit_snapshots.csv" in out
    assert os.path.exists(tmp_path / "cli" / "underdamped_snapshots.csv")
    assert os.path.exists(tmp_path / "cli" / "limit_snapshots.csv")


def test_cli_converge_and_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, snapshot_times=[0.1, 0.2])
    outdir = str(tmp_path / "alt")
    assert main(["converge", "--config", cfg, "--seed", "5", "--out", outdir]) == 0
    manifest = json.load(open(os.path.join(outdir, "manifest.json")))
    assert manifest["config"]["seed"] == 5
    assert "W2(T)" in capsys.readouterr().out


def test_cli_converge_prints_w2_at_T_for_epsilon_runs_on_different_dt(tmp_path, capsys):
    # each epsilon steps with its own default dt, so the runs reach T with
    # different rounding: each prints its own last W2 row, and every row
    # carries the requested time, not a run's clock
    cfg = write_config(
        tmp_path, preset="double-well-1d", n_particles=500,
        epsilon_grid=[0.02, 0.005], T=1.0, scheme="euler_maruyama", seed=3,
    )
    assert main(["converge", "--config", cfg]) == 0
    printed = [l for l in capsys.readouterr().out.splitlines() if "W2(T)" in l]
    with open(tmp_path / "cli" / "w2.csv") as f:
        last = {row["epsilon"]: row for row in csv.DictReader(f)}
    assert len(last) == 2
    assert {row["t"] for row in last.values()} == {"1"}
    with open(tmp_path / "cli" / "manifest.json") as f:
        requested = {f"{t:.17g}" for t in json.load(f)["snapshot_times"]}
    for name in ("w2.csv", "weak_gaps.csv"):
        with open(tmp_path / "cli" / name) as f:
            assert {row["t"] for row in csv.DictReader(f)} == requested, name
    assert printed == [
        f"[converge] epsilon={float(e):g}: W2(T)={float(row['w2']):.6g}"
        for e, row in last.items()
    ]


def test_cli_converge_with_sliced_w2_writes_the_same_bytes_at_any_thread_count(
    tmp_path, capsys, monkeypatch
):
    # sliced W2 draws its projections inside the pooled report jobs, from
    # the base stream that every job shares
    written = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("SMALLMASS_THREADS", threads)
        cfg = write_config(
            tmp_path, preset="gaussian-interaction-2d", n_particles=20,
            epsilon_grid=[0.2, 0.1], T=0.01, t_star=0.005, w2_method="sliced",
            n_projections=16, out_dir=str(tmp_path / threads),
        )
        assert main(["converge", "--config", cfg]) == 0
        written[threads] = open(tmp_path / threads / "w2.csv", "rb").read()
    rows = written["1"].decode().splitlines()[1:]
    assert len(rows) == 2 * 9  # two epsilons, nine default snapshots
    assert {r.rsplit(",", 1)[1] for r in rows} == {"w2_sliced"}
    assert written["1"] == written["2"]


def test_cli_audit(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["audit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert os.path.exists(tmp_path / "cli" / "audit.json")


NUMBER_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine")


def test_readme_command_line_matches_the_subcommands():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("smallmass ")]
    assert sorted(listed) == sorted(harness._COMMANDS)
    assert f"has {NUMBER_WORDS[len(harness._COMMANDS)]} subcommands" in section


def test_cli_slice_diag(tmp_path, capsys):
    cfg = write_config(
        tmp_path, n_particles=80, T=0.6, t_star=0.2, delta=0.1,
        epsilon_grid=[0.05],
    )
    assert main(["slice-diag", "--config", cfg]) == 0
    assert os.path.exists(tmp_path / "cli" / "slice_gaps_delta.csv")
    assert os.path.exists(tmp_path / "cli" / "slice_gaps_2delta.csv")
    assert "gap ratio" in capsys.readouterr().out
    manifest = json.load(open(tmp_path / "cli" / "manifest.json"))
    assert manifest["config"]["seed"] == 2
    assert manifest["delta"] == 0.1
    assert manifest["dt_under"] == {format(0.05, ".17g"): 1e-3}
    assert manifest["distinct_states"] == 2 * 4 + 1  # starts, midpoints, last end
    assert set(manifest["runtimes_s"]) == {"trajectory", "delta_rows", "2delta_rows"}
    assert manifest["runtimes_s"]["trajectory"] > 0
    assert "numpy" in manifest["versions"] and manifest["timestamp"]
    assert manifest["outputs"] == [
        "manifest.json", "slice_gaps_2delta.csv", "slice_gaps_delta.csv", "slice_summary.json",
    ]


def test_cli_slice_diag_defaults_delta_to_ten_underdamped_steps(tmp_path, capsys):
    cfg = write_config(tmp_path, n_particles=40, T=0.3, t_star=0.2, epsilon_grid=[0.05])
    assert main(["slice-diag", "--config", cfg]) == 0
    manifest = json.load(open(tmp_path / "cli" / "manifest.json"))
    assert manifest["config"]["delta"] is None
    dt = manifest["dt_under"][format(0.05, ".17g")]
    assert dt == 1e-3
    # max(eps^3, 10 dt) capped at 0.1: the step-limited term wins
    assert manifest["delta"] == default_delta(0.05, dt) == 10 * dt
    summary = json.load(open(tmp_path / "cli" / "slice_summary.json"))
    assert summary["delta"] == manifest["delta"]
    assert f"delta={10 * dt:g}" in capsys.readouterr().out


def test_cli_fp(tmp_path, capsys):
    cfg = write_config(tmp_path, fp_cells=64, fp_halfwidth=4.0, T=0.05, t_star=0.05)
    assert main(["fp", "--config", cfg]) == 0
    assert os.path.exists(tmp_path / "cli" / "density.csv")
    cfg2 = write_config(tmp_path, name="cfg2d.yaml", preset="gaussian-interaction-2d")
    assert main(["fp", "--config", cfg2]) == 2
    assert "fp solver is d=1 only, got dim=2" in capsys.readouterr().err


def test_cli_fp_on_a_free_streaming_model_steps_by_the_fallback_dt(
    tmp_path, capsys, monkeypatch
):
    # sigma = 0 and no forces: no CFL bound, and the density never moves
    path = tmp_path / "free.yaml"
    path.write_text(yaml.safe_dump(dict(
        model={"kind": "state-dep-friction-1d", "sigma": 0.0},
        T=0.1, t_star=0.05, fp_cells=50, out_dir=str(tmp_path / "cli"),
    )))
    solve = harness.fp_solve
    seen = {}

    def recording_solve(spec, grid0, T, dt, snapshot_times=None):
        seen["grid0"], seen["dt"] = grid0, dt
        seen["snaps"] = solve(spec, grid0, T, dt, snapshot_times=snapshot_times)
        return seen["snaps"]

    monkeypatch.setattr(harness, "fp_solve", recording_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fp", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _fp_line(out)["dt"] == "0.001"
    assert seen["dt"] == 1e-3
    final = seen["snaps"][-1]
    assert final.t == pytest.approx(0.1, abs=1e-12)
    assert np.array_equal(final.density, seen["grid0"].density)


def _fp_line(out):
    (line,) = [ln for ln in out.splitlines() if ln.startswith("[fp]")]
    return dict(f.split("=", 1) for f in line.split() if "=" in f)


def test_cli_fp_reports_clip_count_and_mass_drift(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, fp_cells=64, fp_halfwidth=4.0, T=0.05, t_star=0.05)
    assert main(["fp", "--config", cfg]) == 0
    fields = _fp_line(capsys.readouterr().out)
    data = np.loadtxt(tmp_path / "cli" / "density.csv", delimiter=",", skiprows=1)
    rho = data[data[:, 0] == data[-1, 0], 2]  # the final snapshot
    drift = (2.0 * 4.0 / 64) * rho.sum() - 1.0
    assert fields["clip_count"] == "0"
    assert fields["mass_drift"] == f"{drift:.3e}"
    assert abs(float(fields["mass_drift"])) <= 1e-12

    # the count is the final grid's, whatever the solver clipped on the way
    solve = harness.fp_solve

    def clipping_solve(*args, **kwargs):
        snaps = solve(*args, **kwargs)
        return snaps[:-1] + [dataclasses.replace(snaps[-1], clip_count=3)]

    monkeypatch.setattr(harness, "fp_solve", clipping_solve)
    assert main(["fp", "--config", cfg]) == 0
    assert _fp_line(capsys.readouterr().out)["clip_count"] == "3"


@pytest.mark.parametrize(
    "name", ["n_particles", "n_projections", "fp_cells", "audit_samples", "seed"]
)
@pytest.mark.parametrize(
    "value", [10.5, 10.0, True, "10", np.int64(10)],
    ids=["fraction", "float", "bool", "str", "numpy"],
)
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        ExperimentConfig.from_mapping({"preset": "quadratic-ou", name: value})
    ExperimentConfig.from_mapping({"preset": "quadratic-ou", name: 10})


@pytest.mark.parametrize(
    "line, field, numeric_string",
    [
        ("dt_limit: 1e-3", "dt_limit", True),
        ('fp_dt: "0.1"', "fp_dt", True),
        ("T: 1e0", "T", True),
        ("T: true", "T", False),
        ("epsilon_grid: 0.1", "epsilon_grid", False),
        ("psi_centers: [a]", "psi_centers[0]", False),
        ("init_components: [[1.0, 0.0, 5e-1]]", "init_components[0][2]", True),
        ('coupled: "false"', "coupled", False),
        ("model: {kind: quadratic-ou, k: abc}", "model.k", False),
        ("T: .inf", "T", False),
        ("epsilon_grid: [0.1, -.inf]", "epsilon_grid[1]", False),
        ("init_components: [[1.0, .nan, 0.5]]", "init_components[0][1]", False),
        ("model: {kind: quadratic-ou, sigma: .nan}", "model.sigma", False),
        ("preset: [quadratic-ou]", "preset", False),
        ("model: quadratic-ou", "model", False),
        ("model: {kind: [a]}", "model.kind", False),
    ],
)
def test_cli_rejects_config_values_of_the_wrong_type(
    tmp_path, capsys, line, field, numeric_string
):
    # these used to crash with a TypeError/ValueError/AttributeError traceback
    # or run with the value coerced (coupled: "false" ran coupled, T: true ran
    # T = 1); nan and inf ran too, or failed later with an unrelated message
    # (a nan sigma: "Q has non-finite entries")
    out = tmp_path / "out"
    lines = [line, f"out_dir: {out}"]
    if not line.startswith(("model:", "preset:")):
        lines.append("preset: quadratic-ou")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["audit", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be" in err
    assert ("1.0e-3" in err) == numeric_string
    assert not out.exists()


CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
# what YAML can hand any field: model kinds and parameter names are among
# the keys and strings so that mappings reach the model factories
YAML_KEYS = st.one_of(st.sampled_from(["kind", "k", "gamma", "sigma"]), st.text(max_size=6))
YAML_LEAVES = st.one_of(
    st.sampled_from(sorted(PRESETS)), st.text(max_size=8), st.booleans(),
    st.just(math.nan), st.integers(), st.floats(),
)
YAML_VALUES = st.recursive(
    YAML_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(YAML_KEYS, inner, max_size=3),
    max_leaves=6,
)
WRONG_TYPES = st.one_of(
    st.lists(YAML_VALUES, max_size=3),
    st.dictionaries(YAML_KEYS, YAML_VALUES, max_size=3),
    st.text(max_size=8) | st.sampled_from(sorted(PRESETS)),
    st.booleans(),
    st.just(math.nan),
)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(CONFIG_FIELDS), value=WRONG_TYPES)
@example(name="preset", value=["quadratic-ou"])
@example(name="model", value="quadratic-ou")
@example(name="model", value={"kind": ["quadratic-ou"]})
@example(name="out_dir", value=["out"])
def test_config_of_any_yaml_type_is_valid_or_a_validation_error(name, value):
    # a list, mapping, string, bool or nan in any field either builds a model
    # whose text fields are strings or raises ValidationError, the CLI's exit
    # 2; a preset list or model string used to escape as a TypeError or an
    # AttributeError. Nothing here makes a directory or runs a command
    mapping = {} if name == "model" else {"preset": "quadratic-ou"}
    mapping[name] = value
    try:
        config = ExperimentConfig.from_mapping(mapping)
        build_spec(config)
    except ValidationError:
        return
    for f in dataclasses.fields(config):
        if f.type == "str":
            assert isinstance(getattr(config, f.name), str), f.name


def test_cli_rejects_an_out_dir_that_is_not_a_string(tmp_path, capsys, monkeypatch):
    # out_dir: 5 used to crash with a TypeError traceback from os.makedirs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text("preset: quadratic-ou\nout_dir: 5\n")
    assert main(["audit", "--config", "cfg.yaml"]) == 2
    assert "error: out_dir must be a string, got 5" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.yaml"]


@pytest.mark.parametrize("command", ["converge", "limit", "slice-diag"])
def test_cli_rejects_an_infinite_horizon_before_any_run(tmp_path, capsys, command):
    # T: .inf used to run: converge and limit wrote their rows at t = 0 (the
    # time loop takes no step once its tolerance is infinite), and slice-diag
    # escaped with an OverflowError
    out = tmp_path / "cli"
    cfg = write_config(
        tmp_path, preset="double-well-1d", epsilon_grid=[0.2], T=float("inf"), t_star=0.1
    )
    assert main([command, "--config", cfg]) == 2
    assert "error: T must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_seeds_whose_streams_pass_64_bits():
    # seed 2**64 + 5 used to draw seed 5's blocks, and an uncoupled sweep's
    # seed + i + 1 could wrap to 0
    grid = [0.2, 0.1, 0.05]
    top = 2**64 - 1 - len(grid)
    base = {"preset": "quadratic-ou", "epsilon_grid": grid, "coupled": False}
    assert ExperimentConfig.from_mapping({**base, "seed": top}).seed == top
    for seed in (top + 1, 2**64 + 5, -1):
        with pytest.raises(ValidationError, match=rf"seed must lie in \[0, {top}\]"):
            ExperimentConfig.from_mapping({**base, "seed": seed})


def test_cli_rejects_a_seed_override_past_the_range(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["converge", "--config", cfg, "--seed", str(2**64 + 5)]) == 2
    assert f"seed must lie in [0, {2**64 - 2}]" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def forbid_runs(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("simulate_underdamped", "simulate_limit", "fp_solve", "audit_assumptions"):
        monkeypatch.setattr(harness, name, no_run)


@pytest.mark.parametrize("command", sorted(harness._COMMANDS))
def test_cli_rejects_an_unusable_out_dir_before_any_run(tmp_path, capsys, monkeypatch, command):
    # the sweep used to run to its end and then crash with NotADirectoryError
    # or FileExistsError while writing its outputs
    forbid_runs(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path, T=0.6, t_star=0.2, delta=0.1)
    for out in (blocker, blocker / "sub"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: cannot use out_dir {str(out)!r}" in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_sweep_rejects_an_unusable_out_dir_before_any_run(tmp_path, monkeypatch):
    forbid_runs(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = micro_sweep_config(tmp_path, out_dir=str(blocker / "sub"))
    with pytest.raises(ValidationError, match="cannot use out_dir"):
        run_convergence_sweep(cfg)


@pytest.mark.parametrize("command", ["converge", "simulate", "limit", "slice-diag", "fp"])
def test_cli_rejects_snapshot_times_that_end_before_T(tmp_path, capsys, command):
    # converge used to stop every run at t = 0.05 and print W2(T) there, and
    # limit wrote only t = 0.05, while the manifest said T = 1.0
    cfg = write_config(tmp_path, T=1.0, t_star=0.01, snapshot_times=[0.02, 0.05])
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "error: snapshot_times must end at T=1.0, but the last is 0.05" in err
    assert not (tmp_path / "cli").exists()


def test_config_accepts_a_last_snapshot_time_within_the_landing_tolerance(tmp_path, capsys):
    base = {"preset": "quadratic-ou", "T": 2.0, "t_star": 0.5}
    for last in (2.0 - 3e-12, 2.0 + 3e-12):
        with pytest.raises(ValidationError, match="must end at T=2.0"):
            ExperimentConfig.from_mapping({**base, "snapshot_times": [1.0, last]})
    # 1e-12 * T past T: the config and the time loop both accept it
    for last in (2.0 - 1.5e-12, 2.0 + 1.5e-12):
        cfg = write_config(
            tmp_path, **base, n_particles=2, dt_limit=0.05, snapshot_times=[1.0, last]
        )
        assert main(["limit", "--config", cfg]) == 0


def test_config_accepts_ints_and_numpy_floats_for_float_fields():
    cfg = ExperimentConfig.from_mapping(
        {"preset": "quadratic-ou", "T": 2, "dt_limit": np.float64(1e-3),
         "epsilon_grid": [1, np.float64(0.5)], "coupled": False}
    )
    assert cfg.T == 2 and cfg.epsilon_grid == (1.0, 0.5) and cfg.coupled is False
    with pytest.raises(ValidationError, match="T must be finite"):
        ExperimentConfig.from_mapping({"preset": "quadratic-ou", "T": 10**400})
    with pytest.raises(ValidationError, match="model.k must be a number"):
        ExperimentConfig.from_mapping({"model": {"kind": "quadratic-ou", "k": "1.0"}})


def test_build_spec_maps_value_errors(monkeypatch):
    def factory(**params):
        raise ValueError("k out of range")

    monkeypatch.setitem(harness.PRESETS, "broken", factory)
    config = ExperimentConfig.from_mapping({"model": {"kind": "broken", "k": 1.0}})
    with pytest.raises(ValidationError, match="bad parameters for model 'broken'"):
        build_spec(config)


def test_cli_rejects_fractional_projection_count(tmp_path, capsys):
    # used to die inside the sweep job (exit 3) and leave a failed_eps record
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, preset="gaussian-interaction-2d", n_particles=10,
        w2_method="sliced", n_projections=2.5, out_dir=str(out),
    )
    assert main(["converge", "--config", cfg]) == 2
    assert "n_projections must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(w2_method="1d"), "w2_method '1d' is not one of ('auto', 'exact', 'sliced')"),
        (dict(w2_method="exact", n_particles=W2_EXACT_MAX_N + 1), "use sliced or auto"),
    ],
    ids=["1d-w2-in-2d", "exact-w2-past-its-cap"],
)
def test_cli_rejects_a_w2_method_it_cannot_apply_before_any_run(
    tmp_path, capsys, monkeypatch, overrides, message
):
    # 1d is not a w2_method value (auto takes the sorted coupling in 1D, and
    # in 2D it sorted the x and y columns apart), and exact W2 would fail
    # each epsilon only after every run had gone to T
    stepped = []
    fields = overdamped.limit_coefficients
    exp = underdamped._STEPPERS["exponential"]

    def limit_fields(positions, spec, at=None):
        if at is None:
            stepped.append("limit")
        return fields(positions, spec, at=at)

    def exp_step(state, spec, cfg, stream, dt=None):
        stepped.append(state.epsilon)
        return exp(state, spec, cfg, stream, dt=dt)

    monkeypatch.setattr(overdamped, "limit_coefficients", limit_fields)
    monkeypatch.setitem(underdamped._STEPPERS, "exponential", exp_step)
    base = dict(
        preset="gaussian-interaction-2d", n_particles=20, scheme="exponential",
        T=0.01, t_star=0.005, snapshot_times=[0.005, 0.01],
    )
    out = tmp_path / "cli"
    assert main(["converge", "--config", write_config(tmp_path, **base)]) == 0
    assert stepped
    stepped.clear()
    cfg = write_config(tmp_path, name="bad.yaml", **{**base, **overrides})
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "bad")]) == 2
    assert message in capsys.readouterr().err
    assert stepped == []
    # main may make the output directory before the command; nothing lands in it
    assert os.path.exists(out) and not list((tmp_path / "bad").glob("*"))


@pytest.mark.parametrize(
    "overrides, env, command, message",
    [
        ({"preset": "", "model": {"k": 1.0}}, {}, "audit",
         "inline model definition needs a 'kind' key"),
        ({"T": 0.0}, {}, "audit", "T must be positive, got 0.0"),
        ({"dt_under": 0.0}, {}, "audit", "dt_under must be positive when set"),
        ({"psi_centers": []}, {}, "audit", "need at least one psi center and psi_radius > 0"),
        ({"psi_radius": 0.0}, {}, "audit", "need at least one psi center and psi_radius > 0"),
        ({"init_components": [[0.0, 0.0, 0.5]]}, {}, "audit",
         "mixture weights must be > 0 and stds >= 0"),
        ({"init_components": [[1.0, 0.0, -0.5]]}, {}, "audit",
         "mixture weights must be > 0 and stds >= 0"),
        ({"audit_samples": 1}, {}, "audit", "audit_samples must be at least 2"),
        ({}, {"SMALLMASS_THREADS": "0"}, "converge", "SMALLMASS_THREADS must be >= 1"),
        ({"init_components": [[0.5, 0.0, 0.5], [0.5, 1.0, 0.0]]}, {}, "fp",
         "fp initial mixture needs positive stds"),
    ],
    ids=[
        "model-without-kind", "T-zero", "dt_under-zero", "no-psi-centers", "psi_radius-zero",
        "mixture-weight-zero", "mixture-std-negative", "audit_samples-one", "threads-zero",
        "fp-zero-std",
    ],
)
def test_cli_rejects_each_invalid_value_with_its_message(
    tmp_path, capsys, monkeypatch, overrides, env, command, message
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main([command, "--config", write_config(tmp_path, **overrides)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    out = tmp_path / "cli"
    assert not (out.exists() and any(out.iterdir()))


def test_cli_validation_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    assert main(["simulate", "--config", missing]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"preset": "quadratic-ou", "epsilon_grid": []}))
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_blowup_exit_code(tmp_path, capsys):
    # cubic drift with a huge initial spread overflows the limit run
    cfg = write_config(
        tmp_path,
        name="boom.yaml",
        preset="double-well-1d",
        init_components=[[1.0, 0.0, 30.0]],
        T=0.5,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["limit", "--config", cfg])
    assert rc == 3
    assert "blow-up" in capsys.readouterr().err


def test_cli_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a package error that is neither bad input nor a blow-up
    def failing_limit(*args, **kwargs):
        raise SmallMassError("solver gave up")

    monkeypatch.setattr(harness, "simulate_limit", failing_limit)
    assert main(["limit", "--config", write_config(tmp_path)]) == 3
    assert "numeric failure: solver gave up" in capsys.readouterr().err

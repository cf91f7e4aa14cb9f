"""Experiment orchestration: config files, sweeps, reports, and the CLI.

A sweep compares underdamped runs across a decreasing epsilon grid against
one limit-dynamics run. In coupled mode every run draws from the same
noise-stream indices (common-noise coupling, a variance-reduction device
for the Wasserstein estimates, not a pathwise claim); uncoupled mode gives
each epsilon a fresh stream and must agree statistically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy
import yaml

from . import __version__
from .ensemble import (
    D_MAX,
    RUN_INIT_POSITIONS,
    RUN_INIT_VELOCITIES,
    NoiseStream,
    OverdampedEnsemble,
    UnderdampedEnsemble,
    _check_friction_floor,
    empirical_moment2,
    mean_field_coefficients,
)
from .errors import BlowUpError, SmallMassError, ValidationError
from .fpsolve1d import Grid1D, cell_centers, fp_solve, fp_step
from .model import (
    PRESETS,
    ConstantMatrixField,
    LinearVectorField,
    ModelSpec,
    ZeroVectorField,
    audit_assumptions,
    get_preset,
)
from .observables import (
    W2_EXACT_MAX_N,
    EnergyReport,
    WeakGapReport,
    _frozen_coefficients,
    bump_test_functions,
    energy_diagnostic,
    holder_diagnostic,
    w2_1d,
    w2_exact,
    w2_sliced,
    weak_gap_rows,
)
from .overdamped import simulate_limit
from .smallmat import _mT, solve_lyapunov
from .underdamped import SCHEMES, UDStepperConfig, _lockstep, simulate_underdamped

_W2_METHODS = ("auto", "exact", "sliced", "1d")
_VELOCITY_STARTS = ("cold", "equilibrated")
_FLOAT_FIELDS = (
    "T", "t_star", "delta", "dt_under", "dt_limit", "psi_radius", "fp_halfwidth", "fp_dt",
)
_SEQUENCE_FIELDS = ("epsilon_grid", "snapshot_times", "psi_centers", "audit_box")


def _number(name, val) -> float:
    """val as a float if it is an int or a float (not a bool); else a ValidationError."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    hint = ""
    if isinstance(val, str):
        try:
            float(val)
            hint = "; YAML reads 1e-3 without a dot as a string, write 1.0e-3"
        except ValueError:
            pass
    raise ValidationError(f"{name} must be a number, got {val!r}{hint}")


def _numbers(name, val) -> tuple:
    """A list or tuple of numbers, as a tuple of floats."""
    if not isinstance(val, (list, tuple)):
        raise ValidationError(f"{name} must be a list of numbers, got {val!r}")
    return tuple(_number(f"{name}[{i}]", v) for i, v in enumerate(val))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep/diagnostic configuration, loadable from YAML.

    Exactly one of preset (a name) or model (a mapping {"kind": factory
    name, **keyword overrides}) selects the coefficients. init_components
    is a Gaussian mixture ((weight, mean, std), ...) for the initial
    positions; velocities start cold (zero) or equilibrated (drawn from
    the scaled stationary covariance J/epsilon).
    """

    preset: str = ""
    model: dict | None = None
    n_particles: int = 1000
    epsilon_grid: tuple = (0.1, 0.05)
    T: float = 1.0
    t_star: float = 0.1
    delta: float | None = None
    scheme: str = "euler_maruyama"
    dt_under: float | None = None
    dt_limit: float = 1e-3
    snapshot_times: tuple | None = None
    seed: int = 0
    psi_centers: tuple = (-1.0, 0.0, 1.0)
    psi_radius: float = 1.0
    init_components: tuple = ((1.0, 0.0, 0.5),)
    init_velocities: str = "equilibrated"
    coupled: bool = True
    w2_method: str = "auto"
    n_projections: int = 64
    out_dir: str = "out"
    audit_box: tuple = (-5.0, 5.0)
    audit_samples: int = 256
    fp_halfwidth: float = 4.0
    fp_cells: int = 200
    fp_dt: float | None = None

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            if getattr(self, name) is not None:
                _number(name, getattr(self, name))
        for name in _SEQUENCE_FIELDS:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _numbers(name, getattr(self, name)))
        comps = self.init_components
        if not isinstance(comps, (list, tuple)):
            raise ValidationError(f"init_components must be a list, got {comps!r}")
        comps = tuple(_numbers(f"init_components[{i}]", c) for i, c in enumerate(comps))
        object.__setattr__(self, "init_components", comps)
        if not isinstance(self.coupled, bool):
            raise ValidationError(f"coupled must be true or false, got {self.coupled!r}")
        for key, val in (self.model or {}).items():
            if key != "kind":
                _number(f"model.{key}", val)

        for name in ("n_particles", "n_projections", "fp_cells", "audit_samples", "seed"):
            val = getattr(self, name)
            if type(val) is not int:  # bool, float, str, numpy scalars
                raise ValidationError(f"{name} must be an integer, got {val!r}")
        if bool(self.preset) == (self.model is not None):
            raise ValidationError("config needs exactly one of preset / model")
        if self.model is not None and "kind" not in self.model:
            raise ValidationError("inline model definition needs a 'kind' key")
        if self.n_particles < 2:
            raise ValidationError("n_particles must be at least 2")
        eg = self.epsilon_grid
        if not eg or any(e <= 0 for e in eg) or any(
            eg[i + 1] >= eg[i] for i in range(len(eg) - 1)
        ):
            raise ValidationError(
                "epsilon_grid must be nonempty, positive, strictly decreasing"
            )
        if not self.T > 0:
            raise ValidationError(f"T must be positive, got {self.T}")
        if not 0 < self.t_star <= self.T:
            raise ValidationError(f"t_star must lie in (0, T], got {self.t_star}")
        if self.delta is not None and not 0 < self.delta <= self.T - self.t_star:
            raise ValidationError("delta must lie in (0, T - t_star]")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}")
        if self.dt_under is not None and not self.dt_under > 0:
            raise ValidationError("dt_under must be positive when set")
        if not self.dt_limit > 0:
            raise ValidationError("dt_limit must be positive")
        st = self.snapshot_times
        if st is not None:
            if not st or list(st) != sorted(st):
                raise ValidationError("snapshot_times must be nonempty and sorted")
            if st[0] < self.t_star - 1e-12 or st[-1] > self.T + 1e-12:
                raise ValidationError("snapshot_times must lie in [t_star, T]")
        if not self.psi_centers or not self.psi_radius > 0:
            raise ValidationError("need at least one psi center and psi_radius > 0")
        comps = self.init_components
        if not comps or any(len(c) != 3 for c in comps):
            raise ValidationError("init_components must be (weight, mean, std) triples")
        if any(c[0] <= 0 or c[2] < 0 for c in comps):
            raise ValidationError("mixture weights must be > 0 and stds >= 0")
        if self.init_velocities not in _VELOCITY_STARTS:
            raise ValidationError(f"init_velocities must be one of {_VELOCITY_STARTS}")
        if self.w2_method not in _W2_METHODS:
            raise ValidationError(f"w2_method must be one of {_W2_METHODS}")
        if self.n_projections < 1:
            raise ValidationError("n_projections must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if len(self.audit_box) != 2 or not self.audit_box[1] > self.audit_box[0]:
            raise ValidationError("audit_box must be (low, high) with high > low")
        if self.audit_samples < 2:
            raise ValidationError("audit_samples must be at least 2")
        if self.fp_cells < 4 or not self.fp_halfwidth > 0:
            raise ValidationError("fp grid needs fp_cells >= 4 and fp_halfwidth > 0")
        if self.fp_dt is not None and not self.fp_dt > 0:
            raise ValidationError("fp_dt must be positive when set")

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        if not isinstance(mapping, dict):
            raise ValidationError(f"config must be a mapping, got {type(mapping).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**mapping)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                data = yaml.safe_load(f)
        except OSError as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ValidationError(f"config {path} is not valid YAML: {exc}") from exc
        return cls.from_mapping(data)


def build_spec(config: ExperimentConfig) -> ModelSpec:
    if config.model is not None:
        params = dict(config.model)
        kind = params.pop("kind")
        factory = PRESETS.get(kind)
        if factory is None:
            raise ValidationError(
                f"unknown model kind {kind!r}; choose from {sorted(PRESETS)}"
            )
        try:
            return factory(**params)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad parameters for model {kind!r}: {exc}") from exc
    return get_preset(config.preset)


def underdamped_dt(config: ExperimentConfig, epsilon: float) -> float:
    """EM shrinks with epsilon to stay inside its guard; the exponential
    scheme demonstrates epsilon-independent stepping."""
    if config.dt_under is not None:
        return config.dt_under
    if config.scheme == "exponential":
        return config.T / 100.0
    return min(epsilon / 10.0, 1e-3)


def default_delta(epsilon: float, dt: float) -> float:
    # the epsilon^3 scale is far below one step for practical grids, so the
    # usable default is step-limited, capped to keep >= 10 slices per unit time
    return min(max(epsilon**3, 10.0 * dt), 0.1)


def _slice_delta(config: ExperimentConfig) -> float:
    """The slice length: config.delta, else the step-limited default."""
    if config.delta is not None:
        return config.delta
    epsilon = config.epsilon_grid[0]
    return default_delta(epsilon, underdamped_dt(config, epsilon))


def default_snapshots(t_star: float, T: float) -> tuple:
    """Nine evenly spaced times from t_star to T; just T when they coincide."""
    if T == t_star:
        return (T,)
    return tuple(float(t) for t in np.linspace(t_star, T, 9))


# ------------------------------------------------------ initial conditions


def initial_positions(stream: NoiseStream, n, dim, components) -> np.ndarray:
    """Gaussian-mixture draw from the reserved position-init block.

    The offsets use the first dim noise lanes and the component choice the
    last lane, so a mixture needs dim < D_MAX to keep the two apart.
    """
    if len(components) > 1 and dim >= D_MAX:
        raise ValidationError(
            f"a mixture initial law needs dim < {D_MAX}, got dim={dim}"
        )
    z = stream.block(RUN_INIT_POSITIONS, 0, n)
    w = np.array([c[0] for c in components], dtype=float)
    mu = np.array([c[1] for c in components], dtype=float)
    sd = np.array([c[2] for c in components], dtype=float)
    if len(components) == 1:
        return mu[0] + sd[0] * z[:, :dim]
    from scipy.special import ndtr

    u = ndtr(z[:, D_MAX - 1])
    idx = np.searchsorted(np.cumsum(w / w.sum()), u, side="right")
    idx = np.clip(idx, 0, len(components) - 1)
    return mu[idx, None] + sd[idx, None] * z[:, :dim]


def initial_velocities(
    stream: NoiseStream, positions, spec: ModelSpec, epsilon, kind
) -> np.ndarray:
    """Cold start (zeros) or a draw from N(0, J(x_i, rho_0)/epsilon)."""
    positions = np.asarray(positions, dtype=float)
    n, d = positions.shape
    if kind == "cold":
        return np.zeros((n, d))
    if kind != "equilibrated":
        raise ValidationError(f"init_velocities must be one of {_VELOCITY_STARTS}")
    z = stream.block(RUN_INIT_VELOCITIES, 0, n)[:, :d]
    A, _ = mean_field_coefficients(positions, spec)
    _check_friction_floor(A, positions)
    sig = spec.sigma_at(positions)
    if d == 1:
        J = sig[:, 0, 0] ** 2 / (2.0 * A[:, 0, 0])
        return np.sqrt(J / epsilon)[:, None] * z
    J = solve_lyapunov(A, sig @ _mT(sig)).J
    return (np.linalg.cholesky(J / epsilon) @ z[:, :, None])[:, :, 0]


def _underdamped_start(spec, config, epsilon, stream):
    """The configured start of an underdamped run, positions then velocities
    drawn from `stream`, and its stepper config."""
    x0 = initial_positions(stream, config.n_particles, spec.dim, config.init_components)
    v0 = initial_velocities(stream, x0, spec, epsilon, config.init_velocities)
    init = UnderdampedEnsemble(epsilon=epsilon, t=0.0, positions=x0, velocities=v0)
    return init, UDStepperConfig(scheme=config.scheme, dt=underdamped_dt(config, epsilon))


def _underdamped_run(spec, config, epsilon, stream, snapshot_times):
    """One underdamped run from the configured start to config.T."""
    init, cfg = _underdamped_start(spec, config, epsilon, stream)
    return simulate_underdamped(spec, init, config.T, cfg, stream, snapshot_times)


def _lockstep_runs(opens, groups, pool) -> dict:
    """Runs to their ends in lockstep groups, one pool job per group.

    opens maps a key to open(drive), which makes the run's start draws and
    calls one simulate_* entry point with that drive. Each run is still its
    own entry-point call, so whatever wraps those calls (a profiler, the
    benchmark's particle-step count) sees every run return its snapshots.
    The calls open on this thread, run k inside the drive of run k - 1; the
    innermost drive hands the time loops to the pool, where each group (a
    list of keys) steps its loops once per round in order, and waits. An
    error raised before a run's time loop starts propagates at once. The
    first run leads: an error that ends its time loop ends every other run,
    in every group, with that error at the run's next step.
    Returns {key: (snapshots or the exception that ended the run, seconds
    spent opening it and in its own steps)}.
    """
    keys = list(opens)
    loops, opening, done = {}, {}, {}
    abort = []  # the lead run's error, shared by every group

    def leading(loop):
        try:
            return (yield from loop)
        except Exception as exc:
            abort.append(exc)
            raise

    def open_run(k):
        if k == len(keys):
            stepped = pool.map(
                _lockstep,
                [[loops[key] for key in g] for g in groups],
                [abort] * len(groups),
            )
            for g, outcomes in zip(groups, stepped):
                for key, (outcome, seconds) in zip(g, outcomes):
                    done[key] = (outcome, opening[key] + seconds)
            return
        key = keys[k]
        started = time.perf_counter()

        def drive(loop):
            opening[key] = time.perf_counter() - started
            loops[key] = leading(loop) if k == 0 else loop
            open_run(k + 1)
            outcome = done[key][0]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        try:
            opens[key](drive)
        except Exception as exc:
            if done.get(key, (None,))[0] is not exc:
                raise

    open_run(0)
    return done


def _ended(exc):
    """A time loop that ends with exc at its first step."""
    raise exc
    yield


def _epsilon_open(spec, config, epsilon, stream, snapshot_times):
    """open(drive) of one sweep run at epsilon, for _lockstep_runs; a failed
    start draw ends its time loop, so that it fails like its first step."""

    def open_run(drive):
        try:
            init, cfg = _underdamped_start(spec, config, epsilon, stream)
        except Exception as exc:
            return drive(_ended(exc))
        return simulate_underdamped(
            spec, init, config.T, cfg, stream, snapshot_times, drive=drive
        )

    return open_run


def _limit_run(spec, config, stream, snapshot_times, drive=None):
    """The limit run from the configured start positions drawn from `stream`."""
    x0 = initial_positions(stream, config.n_particles, spec.dim, config.init_components)
    init = OverdampedEnsemble(t=0.0, positions=x0)
    return simulate_limit(
        spec, init, config.T, config.dt_limit, stream, snapshot_times, drive=drive
    )


# ----------------------------------------------------------- output files


def _write_csv(path, columns, rows) -> None:
    """A header line, then one line per row: strings go out as they are and
    every other cell with 17 significant digits, so floats read back exactly."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else f"{c:.17g}" for c in row]
            f.write(",".join(cells) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)


def write_snapshots_csv(path, snapshots) -> None:
    """Ensemble snapshots: columns t, particle, x0.. [, v0..], one row per particle."""
    if not snapshots:
        raise ValidationError("no snapshots to write")
    d = snapshots[0].dim
    with_v = isinstance(snapshots[0], UnderdampedEnsemble)
    cols = ["t", "particle"] + [f"x{j}" for j in range(d)]
    if with_v:
        cols += [f"v{j}" for j in range(d)]

    def rows():
        for s in snapshots:
            cells = np.hstack((s.positions, s.velocities)) if with_v else s.positions
            for i, row in enumerate(cells.tolist()):
                yield (s.t, i, *row)

    _write_csv(path, cols, rows())


def write_density_csv(path, snapshots) -> None:
    """Fokker-Planck snapshots: columns t, x_center, rho, one row per cell."""
    if not snapshots:
        raise ValidationError("no snapshots to write")
    blocks = [np.column_stack((np.full(g.M, g.t), g.centers, g.density)) for g in snapshots]
    _write_csv(path, ("t", "x_center", "rho"), np.vstack(blocks).tolist())


_GAP_COLUMNS = (
    "epsilon", "t", "psi_id", "Y", "Yhat", "Ystar", "gap_Y_Ystar", "gap_Y_Yhat", "mc_stderr"
)


def write_weak_gaps_csv(path, report: WeakGapReport) -> None:
    """One row per WeakGapRow, both gaps included."""
    rows = ([getattr(r, c) for c in _GAP_COLUMNS] for r in report.rows)
    _write_csv(path, _GAP_COLUMNS, rows)


# ----------------------------------------------------------------- sweeps


def _w2_method(config: ExperimentConfig, n: int, d: int) -> str:
    """The W2 estimator for n samples in d dimensions; auto picks 1d, exact or sliced."""
    if config.w2_method != "auto":
        return config.w2_method
    if d == 1:
        return "1d"
    return "exact" if n <= W2_EXACT_MAX_N else "sliced"


def _w2_dispatch(a, b, config: ExperimentConfig, stream: NoiseStream):
    method = _w2_method(config, *a.shape)
    if method == "1d":
        return w2_1d(a, b), "w2_1d"
    if method == "exact":
        return w2_exact(a, b), "w2_exact"
    return w2_sliced(a, b, config.n_projections, stream), "w2_sliced"


@dataclass(frozen=True)
class ConvergenceReport:
    """Sweep results; every number is reproducible from manifest + seed."""

    config: ExperimentConfig
    w2_rows: tuple  # (epsilon, t, value, method)
    weak: WeakGapReport
    holder: dict
    energy: EnergyReport
    max_moment2: dict
    manifest: dict
    out_paths: dict


def _eps_key(epsilon: float) -> str:
    return format(epsilon, ".17g")


def _epsilon_report(spec, config, epsilon, ud_snaps, limit_snaps, base_stream):
    """W2 and weak-gap rows, Holder and moment diagnostics of one epsilon run."""
    psis = bump_test_functions(spec.dim, config.psi_centers, config.psi_radius)
    w2_rows = []
    weak_rows = []
    for ud, od in zip(ud_snaps, limit_snaps):
        value, method = _w2_dispatch(ud.positions, od.positions, config, base_stream)
        w2_rows.append((epsilon, ud.t, value, method))
        weak_rows.extend(weak_gap_rows(ud, spec, psis))
    try:
        holder = holder_diagnostic(ud_snaps, epsilon=epsilon)
    except ValidationError:
        holder = None  # snapshot grid too coarse for lags >= 10 epsilon
    moment2 = max(empirical_moment2(s) for s in ud_snaps)
    return {
        "epsilon": epsilon,
        "snaps": ud_snaps,
        "w2": w2_rows,
        "weak": weak_rows,
        "holder": holder,
        "moment2": moment2,
    }


def _worker_count(n_jobs: int) -> int:
    cap = os.environ.get("SMALLMASS_THREADS", "")
    if cap:
        try:
            cap = int(cap)
        except ValueError:
            raise ValidationError(f"SMALLMASS_THREADS must be an integer, got {cap!r}")
        if cap < 1:
            raise ValidationError("SMALLMASS_THREADS must be >= 1")
        return min(cap, n_jobs)
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(4, cpus, n_jobs)


def _noise_bound(spec) -> bool:
    """Whether noise draws are a large share of a sweep step: in 1D with no
    pair sums, where a step is a few vector operations over the particles.
    Elsewhere pair sums or per-particle small-matrix kernels dominate, and
    a coupled sweep's runs go faster in parallel groups than in one."""
    return (
        spec.dim == 1
        and isinstance(spec.phi, ConstantMatrixField)
        and isinstance(spec.grad_K, (ZeroVectorField, LinearVectorField))
    )


def _job_failure(config, epsilon, exc) -> SmallMassError:
    """Write failed_eps_<epsilon>.json; the error to raise for that epsilon."""
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, f"failed_eps_{_eps_key(epsilon)}.json")
    record = {
        "epsilon": epsilon,
        "error": f"{type(exc).__name__}: {exc}",
        "config": dataclasses.asdict(config),
    }
    _write_json(path, record)
    msg = f"sweep job epsilon={epsilon:g} failed: {exc}; manifest at {path}"
    if isinstance(exc, SmallMassError):
        err = type(exc)(msg)
        # the carried value (admissible_dt, cond, t) names what would pass
        err.__dict__.update(vars(exc))
    else:
        err = SmallMassError(msg)
    err.__cause__ = exc
    return err


def _write_manifest(config, path, outputs, **fields) -> dict:
    """manifest.json: config, versions, timestamp, the output file names
    (outputs are their paths) and the command's own fields."""
    manifest = {
        "config": dataclasses.asdict(config),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "package": __version__,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "outputs": sorted(os.path.basename(p) for p in outputs),
        **fields,
    }
    _write_json(path, manifest)
    return manifest


def run_convergence_sweep(config: ExperimentConfig) -> ConvergenceReport:
    """Simulate every epsilon against one limit run and write the report.

    Deterministic given config + seed: the CSV/JSON outputs (apart from
    the manifest's timestamps and runtimes) are byte-stable.
    """
    spec = build_spec(config)
    snaps = config.snapshot_times or default_snapshots(config.t_star, config.T)
    grid = config.epsilon_grid
    # coupled runs read noise block k at step k, which is the same time
    # only when both runs take the same step
    coupling_exact = {
        e: config.coupled and underdamped_dt(config, e) == config.dt_limit for e in grid
    }
    inexact = [e for e in grid if config.coupled and not coupling_exact[e]]
    if inexact:
        print(
            f"warning: coupled runs at epsilon={', '.join(f'{e:g}' for e in inexact)} "
            f"step with dt_under != dt_limit={config.dt_limit:g}; their noise is "
            "coupled by step index only, not by time",
            file=sys.stderr,
        )
    # the scipy submodules the sweep calls load now, not at a run's first
    # exponential step or exact W2, where the import would stall the other
    # groups on the import lock and land in that run's runtime; a 1D sweep
    # needs none
    if spec.dim > 1 and config.scheme == "exponential":
        import scipy.linalg
    if _w2_method(config, config.n_particles, spec.dim) == "exact":
        import scipy.optimize
    base_stream = NoiseStream(config.seed)
    # the runs step in lockstep groups: epsilon i joins group i mod
    # n_groups, and the limit run leads the last group, which holds the
    # fewest epsilons. Coupled, every run reads the same block at step k and
    # the runs of a group share one stream, so each group draws each block
    # once; the last group shares the limit run's. A coupled sweep whose
    # steps are mostly noise draws is a single group, so each block is
    # drawn once in all. Uncoupled, epsilon i has its own master seed.
    n_workers = _worker_count(len(grid))
    n_groups = 1 if config.coupled and _noise_bound(spec) else n_workers
    streams = [NoiseStream(config.seed) for _ in range(n_groups - 1)] + [base_stream]
    opens = {"limit": lambda drive: _limit_run(spec, config, base_stream, snaps, drive)}
    for i, e in enumerate(grid):
        if config.coupled:
            stream = streams[i % n_groups]
        else:
            stream = NoiseStream(config.seed + i + 1)
        opens[i] = _epsilon_open(spec, config, e, stream, snaps)
    groups = [list(range(g, len(grid), n_groups)) for g in range(n_groups)]
    groups[-1].insert(0, "limit")

    def report(i):
        """Epsilon i's report, or the error to raise for it; its runtime is
        the time spent on that epsilon alone: its start draws, its own steps
        and its diagnostics."""
        outcome, seconds = done[i]
        started = time.perf_counter()
        try:
            if isinstance(outcome, Exception):
                raise outcome
            r = _epsilon_report(spec, config, grid[i], outcome, limit_snaps, base_stream)
        except Exception as exc:
            return _job_failure(config, grid[i], exc)
        r["runtime"] = seconds + time.perf_counter() - started
        return r

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        done = _lockstep_runs(opens, groups, pool)
        limit_snaps, limit_runtime = done["limit"]
        if isinstance(limit_snaps, Exception):
            raise limit_snaps
        results = list(pool.map(report, range(len(grid))))
    # every run goes to its end, so each failing epsilon wrote its record;
    # the first failure in grid order is the one raised
    for r in results:
        if isinstance(r, Exception):
            raise r

    w2_rows = tuple(row for r in results for row in r["w2"])
    weak = WeakGapReport(rows=tuple(row for r in results for row in r["weak"]))
    holder = {r["epsilon"]: r["holder"] for r in results}
    energy = energy_diagnostic({r["epsilon"]: r["snaps"] for r in results})
    max_moment2 = {r["epsilon"]: r["moment2"] for r in results}

    os.makedirs(config.out_dir, exist_ok=True)
    paths = {
        "w2": os.path.join(config.out_dir, "w2.csv"),
        "weak_gaps": os.path.join(config.out_dir, "weak_gaps.csv"),
        "diagnostics": os.path.join(config.out_dir, "diagnostics.json"),
        "manifest": os.path.join(config.out_dir, "manifest.json"),
    }
    _write_csv(paths["w2"], ("epsilon", "t", "w2", "method"), w2_rows)
    write_weak_gaps_csv(paths["weak_gaps"], weak)
    diagnostics = {
        "holder": {_eps_key(e): h and dataclasses.asdict(h) for e, h in holder.items()},
        "energy": {"ratio": energy.ratio, "rows": energy.rows},
        "max_moment2": {_eps_key(e): m for e, m in max_moment2.items()},
    }
    _write_json(paths["diagnostics"], diagnostics)

    manifest = _write_manifest(
        config,
        paths["manifest"],
        paths.values(),
        snapshot_times=list(snaps),
        dt_under={_eps_key(e): underdamped_dt(config, e) for e in grid},
        dt_limit=config.dt_limit,
        coupled=config.coupled,
        coupling_exact={_eps_key(e): ok for e, ok in coupling_exact.items()},
        runtimes_s={
            "limit": limit_runtime,
            **{_eps_key(r["epsilon"]): r["runtime"] for r in results},
        },
    )

    return ConvergenceReport(
        config=config,
        w2_rows=w2_rows,
        weak=weak,
        holder=holder,
        energy=energy,
        max_moment2=max_moment2,
        manifest=manifest,
        out_paths=paths,
    )


# ------------------------------------------------------- slice diagnostic


def slice_starts(t_star: float, T: float, delta: float) -> np.ndarray:
    """Start times of the full delta-slices partitioning [t_star, T]."""
    n = int(np.floor((T - t_star) / delta * (1.0 + 1e-12)))
    if n < 1:
        raise ValidationError(f"delta={delta:g} does not fit one slice in [t_star, T]")
    return t_star + delta * np.arange(n)


@dataclass(frozen=True)
class SliceDiagnostic:
    """Gap reports of one underdamped run cut into delta and 2delta slices;
    see run_slice_pair."""

    delta: float
    small: WeakGapReport
    big: WeakGapReport
    ratio: float  # mean per-slice max |Y - Yhat| of the 2delta slices over delta's
    distinct_states: int  # states whose coefficients were computed, once each
    runtimes_s: dict  # trajectory, delta_rows, 2delta_rows


def run_slice_pair(config: ExperimentConfig) -> SliceDiagnostic:
    """Gap rows Y vs Yhat on one underdamped run cut into delta and 2delta slices.

    Each slice contributes rows at its start (gap exactly zero by
    construction), midpoint, and end, for every bump test function. delta
    is config.delta, else the step-limited default. The 2delta slice k is
    delta slices 2k and 2k+1: its start, midpoint and end are the start of
    slice 2k, the start of slice 2k+1 and the end of slice 2k+1. Each
    snapshot's coefficients and per-psi Y and Y* terms are computed once
    and serve its rows of both widths.
    """
    spec = build_spec(config)
    epsilon = config.epsilon_grid[0]
    dt = underdamped_dt(config, epsilon)
    delta = float(_slice_delta(config))
    if delta < dt:
        raise ValidationError(f"delta={delta:g} is below one step dt={dt:g}")
    starts = slice_starts(config.t_star, config.T, delta)
    if spec.dim > 1:
        import scipy.linalg  # for weak_Yhat, loaded before the run as in the sweep
    n = len(starts)
    if n < 2:
        raise ValidationError(
            f"delta={2.0 * delta:g} does not fit one slice in [t_star, T]"
        )
    # where[k], where[n + k], where[2n + k]: indices of slice k's start,
    # midpoint and end among the sorted distinct times
    times, where = np.unique(
        np.concatenate([starts, starts + 0.5 * delta, starts + delta]),
        return_inverse=True,
    )
    started = time.perf_counter()
    snaps = _underdamped_run(
        spec, config, epsilon, NoiseStream(config.seed), [float(t) for t in times]
    )
    runtimes = {"trajectory": time.perf_counter() - started}
    runtimes["delta_rows"] = runtimes["2delta_rows"] = 0.0

    psis = bump_test_functions(spec.dim, config.psi_centers, config.psi_radius)

    def frozen_at(i):
        return _frozen_coefficients(snaps[where[i]], spec)

    def add_rows(frozen, out, maxima):
        top = 0.0
        for state in frozen:
            rows = weak_gap_rows(state, spec, psis, anchor=frozen[0])
            for row in rows:
                top = max(top, abs(row.gap_Y_Yhat))
            out.extend(rows)
        maxima.append(top)

    small, big, small_max, big_max = [], [], [], []
    began = time.perf_counter()
    # the end of slice k - 1 starts slice k; an even k's start also anchors
    # the open 2delta slice
    end = frozen_at(0)
    for k in range(n):
        start, mid, end = end, frozen_at(n + k), frozen_at(2 * n + k)
        add_rows((start, mid, end), small, small_max)
        lap = time.perf_counter()
        runtimes["delta_rows"] += lap - began
        if k % 2 == 0:
            pair_start = start
        else:
            add_rows((pair_start, start, end), big, big_max)
        began = time.perf_counter()
        runtimes["2delta_rows"] += began - lap
    small_mean = float(np.mean(small_max))
    if small_mean == 0.0:
        raise ValidationError("delta-run gaps are identically zero; ratio undefined")
    return SliceDiagnostic(
        delta=delta,
        small=WeakGapReport(rows=tuple(small)),
        big=WeakGapReport(rows=tuple(big)),
        ratio=float(np.mean(big_max)) / small_mean,
        distinct_states=2 * n + 1,
        runtimes_s=runtimes,
    )


# -------------------------------------------------------------------- CLI


def _cli_audit(config: ExperimentConfig) -> int:
    spec = build_spec(config)
    lo, hi = config.audit_box
    box = (np.full(spec.dim, lo), np.full(spec.dim, hi))
    report = audit_assumptions(
        spec, box, config.audit_samples, NoiseStream(config.seed)
    )
    flags = [
        ("H1 drift Lipschitz", report.pass_h1),
        ("H2 sigma regularity", report.pass_h2),
        ("H3 gamma positivity", report.pass_h3),
        ("H4 phi positivity", report.pass_h4),
    ]
    for label, ok in flags:
        print(f"[audit] {label}: {'PASS' if ok else 'FAIL'}")
    if report.h4_bypassed:
        print("[audit] H4 bypassed (classical preset, phi == 0)")
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "audit.json")
    _write_json(path, dataclasses.asdict(report))
    print(f"[audit] wrote {path}")
    return 0 if report.all_pass else 2


def _cli_simulate(config: ExperimentConfig) -> int:
    spec = build_spec(config)
    epsilon = config.epsilon_grid[0]
    snaps = _underdamped_run(
        spec, config, epsilon, NoiseStream(config.seed), config.snapshot_times
    )
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "underdamped_snapshots.csv")
    write_snapshots_csv(path, snaps)
    print(f"[simulate] epsilon={epsilon:g} N={config.n_particles} wrote {path}")
    return 0


def _cli_limit(config: ExperimentConfig) -> int:
    spec = build_spec(config)
    snaps = _limit_run(spec, config, NoiseStream(config.seed), config.snapshot_times)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "limit_snapshots.csv")
    write_snapshots_csv(path, snaps)
    print(f"[limit] N={config.n_particles} wrote {path}")
    return 0


def _cli_converge(config: ExperimentConfig) -> int:
    report = run_convergence_sweep(config)
    final_t = max(t for _, t, _, _ in report.w2_rows)
    for eps in config.epsilon_grid:
        val = next(
            v for e, t, v, _ in report.w2_rows if e == eps and t == final_t
        )
        print(f"[converge] epsilon={eps:g}: W2(T)={val:.6g}")
    for name, path in sorted(report.out_paths.items()):
        print(f"[converge] wrote {path}")
    return 0


def _cli_slice_diag(config: ExperimentConfig) -> int:
    epsilon = config.epsilon_grid[0]
    diag = run_slice_pair(config)
    delta = diag.delta
    os.makedirs(config.out_dir, exist_ok=True)
    p_small = os.path.join(config.out_dir, "slice_gaps_delta.csv")
    p_big = os.path.join(config.out_dir, "slice_gaps_2delta.csv")
    write_weak_gaps_csv(p_small, diag.small)
    write_weak_gaps_csv(p_big, diag.big)
    summary = os.path.join(config.out_dir, "slice_summary.json")
    record = {"epsilon": epsilon, "delta": delta, "gap_ratio_2delta_over_delta": diag.ratio}
    _write_json(summary, record)
    manifest = os.path.join(config.out_dir, "manifest.json")
    _write_manifest(
        config,
        manifest,
        (p_small, p_big, summary, manifest),
        dt_under={_eps_key(epsilon): underdamped_dt(config, epsilon)},
        delta=delta,
        distinct_states=diag.distinct_states,
        runtimes_s=diag.runtimes_s,
    )
    print(f"[slice-diag] epsilon={epsilon:g} delta={delta:g} gap ratio {diag.ratio:.4g}")
    for p in (p_small, p_big, summary, manifest):
        print(f"[slice-diag] wrote {p}")
    return 0


def _cli_fp(config: ExperimentConfig) -> int:
    spec = build_spec(config)
    if spec.dim != 1:
        raise ValidationError("fp subcommand needs a 1D model")
    if any(c[2] <= 0 for c in config.init_components):
        raise ValidationError("fp initial mixture needs positive stds")
    x = cell_centers(config.fp_halfwidth, config.fp_cells)
    values = np.zeros_like(x)
    for w, mu, sd in config.init_components:
        values += w * np.exp(-((x - mu) ** 2) / (2.0 * sd * sd)) / sd
    grid0 = Grid1D.from_values(config.fp_halfwidth, config.fp_cells, values)
    dt = config.fp_dt
    if dt is None:
        try:
            fp_step(grid0, spec, np.inf)
        except SmallMassError as exc:
            admissible = getattr(exc, "admissible_dt", None)
            if admissible is None:
                raise
            dt = 0.9 * admissible
        else:  # free-streaming grid with no CFL bound at all
            dt = 1e-3
    snaps = fp_solve(spec, grid0, config.T, dt, snapshot_times=config.snapshot_times)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "density.csv")
    write_density_csv(path, snaps)
    final = snaps[-1]
    drift = final.h * final.density.sum() - 1.0
    print(
        f"[fp] M={config.fp_cells} dt={dt:g} clip_count={final.clip_count} "
        f"mass_drift={drift:.3e} wrote {path}"
    )
    return 0


_COMMANDS = {
    "audit": _cli_audit,
    "simulate": _cli_simulate,
    "limit": _cli_limit,
    "converge": _cli_converge,
    "slice-diag": _cli_slice_diag,
    "fp": _cli_fp,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smallmass",
        description="Small-mass limit laboratory: simulate, compare, diagnose.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config out_dir")
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_yaml(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, out_dir=args.out)
        return _COMMANDS[args.command](config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except SmallMassError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: configs made from a seed, operations, checks.

Each workload is a closed loop of smallmass CLI commands run one after the
other in one process. Its config is generated from the workload name and
the seed; the program sees only that YAML file. After a run, ``check``
reads the output files, decides which operations succeeded, and computes
the workload's accuracy figure at T:

* ``w2_T`` (dw1d, g2d): W2 at T between the smallest-epsilon ensemble and
  the limit ensemble, read from ``w2.csv``;
* ``fp_l1`` (sdf1d-slice): L1 distance at T between the Fokker-Planck
  density and the limit-run particle histogram, both re-binned to
  ``FP_L1_BINS`` coarse bins.

An operation is one dynamics run: an epsilon job, a limit run, a
slice-diag pass or an fp solve. It fails if its command exits non-zero or
if its output fails the checks below.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

FP_L1_BINS = 50
FP_MASS_TOL = 1e-9
N_PSI = 3  # the default bump test functions
N_SNAPSHOTS = 9
TIME_TOL = 1e-9

# files that hold timestamps or runtimes and so differ between identical runs
UNHASHED = ("manifest.json",)

SEED_STRIDE = 1_000_000  # derived seeds of different given seeds never collide


def _snapshots(t_star: float, T: float) -> list[float]:
    return [float(t) for t in np.linspace(t_star, T, N_SNAPSHOTS)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    commands: tuple
    config: dict  # seed is filled in by config_for
    tolerance: float  # the accuracy figure must not exceed this
    # seeds the accuracy figure is averaged over; also the fewest untraced
    # runs of one measurement
    seeds: int = 3

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": int(seed)}

    def seeds_for(self, seed: int) -> list[int]:
        """The seeds one measurement cycles through; the first is ``seed``."""
        return [seed + r * SEED_STRIDE for r in range(self.seeds)]


def command_operations(cmd: str, config: dict) -> list[str]:
    """The dynamics runs one CLI command performs."""
    if cmd == "converge":
        return ["limit"] + [f"eps={e:g}" for e in config["epsilon_grid"]]
    if cmd == "slice-diag":
        return ["slice-delta", "slice-2delta"]
    return [cmd]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dw1d",
            why=(
                "1D double-well convergence sweep: noise draws, grad_V and the EM "
                "guard dominate; no pair sums or small-matrix kernels run"
            ),
            dim=1,
            commands=("converge",),
            config={
                "preset": "double-well-1d",
                "n_particles": 2000,
                "epsilon_grid": [0.2, 0.1, 0.05, 0.025],
                "T": 2.0,
                "t_star": 0.2,
                "snapshot_times": _snapshots(0.2, 2.0),
                "scheme": "euler_maruyama",
                "dt_under": 1e-3,
                "dt_limit": 1e-3,
            },
            tolerance=0.03,  # w2_T; seed 1 gives 0.0082
        ),
        Workload(
            name="g2d",
            why=(
                "2D gaussian-interaction sweep with the exponential scheme: O(N^2) "
                "pair sums and per-particle Lyapunov, expm and inverse; noise is a sliver"
            ),
            dim=2,
            commands=("converge",),
            config={
                "preset": "gaussian-interaction-2d",
                "n_particles": 200,
                "epsilon_grid": [0.1],
                "T": 0.05,
                "t_star": 0.01,
                "snapshot_times": _snapshots(0.01, 0.05),
                "scheme": "exponential",
                "dt_under": 1e-3,
                "dt_limit": 1e-3,
                "w2_method": "exact",
            },
            tolerance=0.25,  # w2_T; seed 1 gives 0.095
        ),
        Workload(
            name="sdf1d-slice",
            why=(
                "1D state-dependent friction: slice-diag with 120 slices of Y*/Yhat "
                "observations, then limit and the only Fokker-Planck solve"
            ),
            dim=1,
            commands=("slice-diag", "limit", "fp"),
            config={
                "preset": "state-dep-friction-1d",
                "n_particles": 2000,
                "epsilon_grid": [0.05],
                "T": 1.0,
                "t_star": 0.2,
                "delta": 0.01,
                "scheme": "euler_maruyama",
                "dt_under": 1e-3,
                "dt_limit": 1e-3,
                "fp_cells": 1600,
                "fp_halfwidth": 6.0,
            },
            tolerance=0.2,  # fp_l1; seed 1 gives 0.073
            # fp_l1 is mostly histogram noise and varies by about 20% from
            # seed to seed; six runs take less time than three of g2d
            seeds=6,
        ),
    )
}


def write_config(path, config: dict) -> None:
    """YAML is a superset of JSON, so the config is written as JSON text."""
    with open(path, "w") as f:
        json.dump(config, f, indent=1)
        f.write("\n")


def digests(out_dir) -> dict:
    """sha256 of every output file except the ones holding timestamps."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name in UNHASHED or not os.path.isfile(path):
            continue
        with open(path, "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def bytes_written(out_dir) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, n))
        for n in os.listdir(out_dir)
        if os.path.isfile(os.path.join(out_dir, n))
    )


# ----------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _rows(path) -> list[dict]:
    _require(os.path.isfile(path), f"{os.path.basename(path)} missing")
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _finite(rows, columns, what):
    for row in rows:
        for c in columns:
            _require(math.isfinite(float(row[c])), f"{what}: non-finite {c}")


def _guard(ops_ok: dict, op: str, problems: list, check):
    """Run one operation's check; record its failure without stopping."""
    if not ops_ok.get(op, False):
        return None
    try:
        return check()
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        ops_ok[op] = False
        problems.append(f"{op}: {exc}")
        return None


def _finite_json(obj, what):
    """Every number in a parsed JSON document is finite (nulls allowed)."""
    if isinstance(obj, dict):
        for v in obj.values():
            _finite_json(v, what)
    elif isinstance(obj, list):
        for v in obj:
            _finite_json(v, what)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        _require(math.isfinite(obj), f"{what}: non-finite number")


def _converge_tables(config, out_dir):
    w2 = _rows(os.path.join(out_dir, "w2.csv"))
    weak = _rows(os.path.join(out_dir, "weak_gaps.csv"))
    with open(os.path.join(out_dir, "diagnostics.json")) as f:
        _finite_json(json.load(f), "diagnostics.json")
    expected = len(config["epsilon_grid"]) * len(config["snapshot_times"])
    _require(len(w2) == expected, f"w2.csv has {len(w2)} rows, want {expected}")
    return w2, weak


def _check_converge(workload, config, out_dir, ops_ok, problems):
    grid = config["epsilon_grid"]
    snaps = config["snapshot_times"]
    tables = _guard(ops_ok, "limit", problems, lambda: _converge_tables(config, out_dir))
    if tables is None:
        for e in grid:
            ops_ok[f"eps={e:g}"] = False
        return None
    w2, weak = tables

    accuracy = None
    for e in grid:
        op = f"eps={e:g}"

        def eps_check(e=e):
            rows = [r for r in w2 if abs(float(r["epsilon"]) - e) <= 1e-12 * e]
            times = [float(r["t"]) for r in rows]
            _require(len(rows) == len(snaps), f"{len(rows)} W2 rows, want {len(snaps)}")
            _require(
                all(abs(t - s) <= TIME_TOL for t, s in zip(times, snaps)),
                "W2 row times do not match the snapshot times",
            )
            _finite(rows, ("w2",), "w2.csv")
            gaps = [r for r in weak if abs(float(r["epsilon"]) - e) <= 1e-12 * e]
            _require(len(gaps) == N_PSI * len(snaps), f"{len(gaps)} weak-gap rows")
            _finite(gaps, ("Y", "Ystar", "gap_Y_Ystar", "mc_stderr"), "weak_gaps.csv")
            return float(rows[-1]["w2"])

        value = _guard(ops_ok, op, problems, eps_check)
        if e == min(grid) and value is not None:
            accuracy = value
            if not value <= workload.tolerance:
                ops_ok[op] = False
                problems.append(f"{op}: w2_T={value:.6g} above tolerance {workload.tolerance}")
    return accuracy


def _check_slice(config, out_dir, ops_ok, problems):
    T, t_star, delta = config["T"], config["t_star"], config["delta"]

    def pass_check(name, width):
        rows = _rows(os.path.join(out_dir, name))
        slices = int(math.floor((T - t_star) / width * (1.0 + 1e-12)))
        # rows at each slice's start, midpoint and end
        _require(len(rows) == 3 * slices * N_PSI, f"{name}: {len(rows)} rows")
        _finite(
            rows,
            ("Y", "Yhat", "Ystar", "gap_Y_Ystar", "gap_Y_Yhat", "mc_stderr"),
            name,
        )

    def ratio_check():
        pass_check("slice_gaps_2delta.csv", 2.0 * delta)
        with open(os.path.join(out_dir, "slice_summary.json")) as f:
            ratio = json.load(f)["gap_ratio_2delta_over_delta"]
        _require(
            isinstance(ratio, (int, float)) and math.isfinite(ratio),
            "slice ratio not finite",
        )

    _guard(ops_ok, "slice-delta", problems, lambda: pass_check("slice_gaps_delta.csv", delta))
    _guard(ops_ok, "slice-2delta", problems, ratio_check)


def _limit_positions(config, out_dir):
    rows = _rows(os.path.join(out_dir, "limit_snapshots.csv"))
    _require(len(rows) == config["n_particles"], f"limit: {len(rows)} rows")
    _require(all(abs(float(r["t"]) - config["T"]) <= TIME_TOL for r in rows), "limit: t")
    _finite(rows, ("x0",), "limit_snapshots.csv")
    return np.array([float(r["x0"]) for r in rows])


def _fp_density(config, out_dir):
    rows = _rows(os.path.join(out_dir, "density.csv"))
    M, L = config["fp_cells"], config["fp_halfwidth"]
    _require(len(rows) == M, f"density.csv: {len(rows)} rows, want {M}")
    _finite(rows, ("t", "x_center", "rho"), "density.csv")
    rho = np.array([float(r["rho"]) for r in rows])
    _require(np.all(rho >= 0.0), "density.csv: negative density")
    mass = (2.0 * L / M) * rho.sum()
    _require(abs(mass - 1.0) <= FP_MASS_TOL, f"fp mass {mass!r} off 1 by > {FP_MASS_TOL}")
    return rho


def fp_l1(rho, positions, halfwidth: float, bins: int = FP_L1_BINS) -> float:
    """L1 distance between a cell density and a particle histogram.

    Both are averaged onto ``bins`` equal bins of [-L, L]; the fine grid's
    cell count must be a multiple of ``bins``.
    """
    M = rho.size
    if M % bins:
        raise ValueError(f"{M} cells do not re-bin onto {bins} bins")
    coarse_fp = rho.reshape(bins, M // bins).mean(axis=1)
    h = 2.0 * halfwidth / bins
    counts, _ = np.histogram(positions, bins=bins, range=(-halfwidth, halfwidth))
    coarse_particles = counts / (positions.size * h)
    return float(h * np.sum(np.abs(coarse_fp - coarse_particles)))


def check(workload: Workload, config: dict, out_dir, exit_codes: dict) -> dict:
    """Per-operation verdicts and the accuracy figure of one workload run.

    exit_codes maps each command to its exit status (None if it never ran).
    Returns {"ops": {op: bool}, "accuracy": float | None, "problems": [...]}.
    """
    ops_ok = {}
    problems = []
    for cmd in workload.commands:
        ok = exit_codes.get(cmd) == 0
        if not ok:
            problems.append(f"{cmd}: exit status {exit_codes.get(cmd)}")
        for op in command_operations(cmd, config):
            ops_ok[op] = ok

    accuracy = None
    if "converge" in workload.commands:
        accuracy = _check_converge(workload, config, out_dir, ops_ok, problems)
    if "slice-diag" in workload.commands:
        _check_slice(config, out_dir, ops_ok, problems)
    if "limit" in workload.commands and "fp" in workload.commands:
        positions = _guard(
            ops_ok, "limit", problems, lambda: _limit_positions(config, out_dir)
        )
        rho = _guard(ops_ok, "fp", problems, lambda: _fp_density(config, out_dir))
        if positions is not None and rho is not None:
            accuracy = fp_l1(rho, positions, config["fp_halfwidth"])
            if not accuracy <= workload.tolerance:
                ops_ok["fp"] = False
                problems.append(
                    f"fp: fp_l1={accuracy:.6g} above tolerance {workload.tolerance}"
                )
    if accuracy is None:
        problems.append("no accuracy figure")
    return {"ops": ops_ok, "accuracy": accuracy, "problems": problems}

"""Golden outputs: every CLI output file, byte for byte, on tiny configs.

Each case runs `smallmass.harness.main` on a fixed config, from the case's
own directory with the relative out_dir `out`, checks the exit code and
compares every file it writes with the stored copy under
`tests/golden/<case>/`. `manifest.json` is compared without the keys that
change from run to run (timestamp, versions, runtimes_s): the stored copy
is the manifest with those keys dropped, re-serialized as the harness
writes JSON. A refactor must leave these bytes unchanged.

The stored files are program output, never edited by hand. A change that
is meant to alter outputs regenerates them with

    PYTHONPATH=src python tests/test_golden.py --write

and says so in its change notes. The command prints one line per file:
unchanged, new, removed, or changed, with each changed CSV column and its
largest absolute and relative change.
"""

import contextlib
import csv
import io
import json
import math
import os
import sys

import pytest
import yaml

from limit_oracle import drift_lipschitz
from smallmass import overdamped
from smallmass.errors import StiffnessError
from smallmass.harness import ExperimentConfig, main, run_convergence_sweep

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
MANIFEST = "manifest.json"
UNSTABLE = ("timestamp", "versions", "runtimes_s")  # manifest keys left uncompared

# case -> (commands, config[, exit code of every command; 0 if omitted])
CASES = {
    # 1D EM sweep, bimodal start (mixture component draw), constant friction
    "converge-dw1d-em": (
        ("converge",),
        dict(
            preset="double-well-1d",
            n_particles=40,
            epsilon_grid=[0.2, 0.1],
            T=0.05,
            t_star=0.01,
            scheme="euler_maruyama",
            dt_under=0.005,
            dt_limit=0.005,
            init_components=[[0.5, -1.0, 0.3], [0.5, 1.0, 0.3]],
            seed=3,
        ),
    ),
    # 2D exponential sweep: pair sums, per-particle Lyapunov/expm/inverse
    "converge-g2d-exp": (
        ("converge",),
        dict(
            preset="gaussian-interaction-2d",
            n_particles=8,
            epsilon_grid=[0.1],
            T=0.006,
            t_star=0.002,
            snapshot_times=[0.002, 0.004, 0.006],
            scheme="exponential",
            dt_under=0.001,
            dt_limit=0.001,
            w2_method="exact",
            seed=5,
        ),
    ),
    # 2D sweep with sliced W2: the projection draws of the report jobs
    "converge-g2d-sliced": (
        ("converge",),
        dict(
            preset="gaussian-interaction-2d",
            n_particles=8,
            epsilon_grid=[0.1],
            T=0.004,
            t_star=0.002,
            snapshot_times=[0.002, 0.004],
            scheme="euler_maruyama",
            dt_under=0.001,
            dt_limit=0.001,
            w2_method="sliced",
            n_projections=4,
            seed=8,
        ),
    ),
    # state-dependent friction: slice diagnostic, limit run, Fokker-Planck
    "sdf1d": (
        ("slice-diag", "limit", "fp"),
        dict(
            preset="state-dep-friction-1d",
            n_particles=30,
            epsilon_grid=[0.05],
            T=0.03,
            t_star=0.01,
            delta=0.005,
            scheme="euler_maruyama",
            dt_under=0.001,
            dt_limit=0.001,
            snapshot_times=[0.01, 0.02, 0.03],
            fp_cells=80,
            fp_halfwidth=5.0,
            seed=7,
        ),
    ),
    # 2D slice diagnostic: the matrix exponential of the exact Yhat integrals
    "slice-g2d": (
        ("slice-diag",),
        dict(
            preset="gaussian-interaction-2d",
            n_particles=5,
            epsilon_grid=[0.1],
            T=0.004,
            t_star=0.002,
            delta=0.001,
            scheme="exponential",
            dt_under=0.001,
            seed=9,
        ),
    ),
    # 2D EM run from equilibrated velocities (Cholesky of J per particle)
    "simulate-g2d-em": (
        ("simulate",),
        dict(
            preset="gaussian-interaction-2d",
            n_particles=6,
            epsilon_grid=[0.1],
            T=0.004,
            t_star=0.002,
            snapshot_times=[0.002, 0.004],
            scheme="euler_maruyama",
            dt_under=0.001,
            seed=2,
        ),
    ),
    # assumption audit of the 2D model: audit.json
    "audit-g2d": (
        ("audit",),
        dict(
            preset="gaussian-interaction-2d",
            audit_samples=12,
            audit_box=[-2.0, 2.0],
            seed=6,
        ),
    ),
    # a sweep whose second epsilon breaks the EM guard: failed_eps_*.json
    # with the inline model and the mixture start in its config, exit 2
    "converge-fail": (
        ("converge",),
        dict(
            model={"kind": "double-well-1d", "gamma": 1.5},
            n_particles=10,
            epsilon_grid=[0.2, 0.01],
            T=0.02,
            t_star=0.01,
            scheme="euler_maruyama",
            dt_under=0.005,
            dt_limit=0.005,
            init_components=[[0.5, -1.0, 0.3], [0.5, 1.0, 0.3]],
            seed=4,
        ),
        2,
    ),
}


@contextlib.contextmanager
def inside(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def stable_manifest(path) -> str:
    with open(path) as f:
        manifest = json.load(f)
    for key in UNSTABLE:
        manifest.pop(key)
    return json.dumps(manifest, indent=2, sort_keys=True)


def read_output(path) -> bytes:
    if os.path.basename(path) == MANIFEST:
        return stable_manifest(path).encode()
    with open(path, "rb") as f:
        return f.read()


def run_case(name, case_dir):
    """Run the case in case_dir; returns the output directory's file names."""
    commands, config, *code = CASES[name]
    with inside(case_dir):
        with open(f"{name}.yaml", "w") as f:
            yaml.safe_dump({**config, "out_dir": "out"}, f)
        for cmd in commands:
            assert main([cmd, "--config", f"{name}.yaml"]) == (code or [0])[0], cmd
    return sorted(os.listdir(os.path.join(case_dir, "out")))


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_files(name, tmp_path):
    written = run_case(name, tmp_path)
    expected_dir = os.path.join(GOLDEN, name)
    assert written == sorted(os.listdir(expected_dir))
    for fname in written:
        got = read_output(tmp_path / "out" / fname)
        with open(os.path.join(expected_dir, fname), "rb") as f:
            want = f.read()
        assert got == want, f"{name}/{fname} differs from the golden copy"


@pytest.mark.parametrize("name", sorted(n for n in CASES if "dt_limit" in CASES[n][1]))
def test_no_golden_limit_run_crosses_the_stiffness_guard(name, tmp_path, monkeypatch):
    # the guard raises at dt_limit * L > 1; every limit run of a case stays
    # below it, and its stacked probe agrees with the one-point oracle's
    probe = overdamped._drift_lipschitz_estimate
    seen = []

    def recording(spec, positions):
        L = probe(spec, positions)
        seen.append((L, drift_lipschitz(spec, positions)))
        return L

    monkeypatch.setattr(overdamped, "_drift_lipschitz_estimate", recording)
    run_case(name, tmp_path)
    assert seen
    for L, L_oracle in seen:
        assert CASES[name][1]["dt_limit"] * L < 1.0
        assert L == pytest.approx(L_oracle, rel=1e-6)


def test_failed_sweep_job_carries_the_admissible_dt(tmp_path, capsys):
    # the re-raised job error keeps the guard's admissible dt, and the CLI
    # still prints the golden run's one stderr line
    _, config, _ = CASES["converge-fail"]
    with inside(tmp_path):
        with pytest.raises(StiffnessError) as exc:
            run_convergence_sweep(ExperimentConfig.from_mapping({**config, "out_dir": "a"}))
        assert exc.value.admissible_dt == exc.value.__cause__.admissible_dt == 0.0025
        capsys.readouterr()
        run_case("converge-fail", tmp_path)
    assert capsys.readouterr().err == (
        "error: sweep job epsilon=0.01 failed: EM step dt=5.000e-03 violates the "
        "stability guard (dt*lam_max/eps = 1.000 > 0.5); reduce dt to <= 2.500e-03 "
        "or switch to the exponential scheme; manifest at out/failed_eps_0.01.json\n"
    )


def csv_changes(old: bytes, new: bytes):
    """Each changed column of a CSV file: (name, largest absolute change,
    largest change relative to the old value), NaN for a text column; None
    when the header or the row count differs."""
    old_rows = list(csv.reader(io.StringIO(old.decode())))
    new_rows = list(csv.reader(io.StringIO(new.decode())))
    if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
        return None
    out = []
    for j, name in enumerate(old_rows[0] if old_rows else ()):
        pairs = [(a[j], b[j]) for a, b in zip(old_rows[1:], new_rows[1:]) if a[j] != b[j]]
        if not pairs:
            continue
        try:
            deltas = [(abs(float(b) - float(a)), abs(float(a))) for a, b in pairs]
        except ValueError:
            out.append((name, math.nan, math.nan))
            continue
        rel = max(d / m if m else math.inf for d, m in deltas)
        out.append((name, max(d for d, _ in deltas), rel))
    return out


def write_status(path, old, new) -> str:
    """One line on how the stored file at path changes from old to new bytes."""
    if old is None:
        return f"new {path}"
    if old == new:
        return f"unchanged {path}"
    columns = csv_changes(old, new) if path.endswith(".csv") else None
    if columns is None:
        return f"changed {path}"
    spelled = "; ".join(
        f"{n} (text)" if math.isnan(a) else f"{n} max abs {a:.3g} max rel {r:.3g}"
        for n, a, r in columns
    )
    return f"changed {path}: {spelled}"


def test_write_status_names_each_changed_column_and_its_largest_change():
    old = b"t,psi_id,Y,Ystar\n0.5,a,1.0,2.0\n1,b,3.0,-4.0\n"
    new = b"t,psi_id,Y,Ystar\n0.5,a,1.0,2.5\n1,c,3.0,-4.0\n"
    assert write_status("g/x.csv", old, old) == "unchanged g/x.csv"
    assert write_status("g/x.csv", None, new) == "new g/x.csv"
    assert write_status("g/x.csv", old, new) == (
        "changed g/x.csv: psi_id (text); Ystar max abs 0.5 max rel 0.25"
    )
    assert write_status("g/x.csv", old, new + b"2,d,0,0\n") == "changed g/x.csv"
    assert write_status("g/x.json", b"{}", b"[]") == "changed g/x.json"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import shutil
    import tempfile

    for case in sorted(CASES):
        target = os.path.join(GOLDEN, case)
        stored = {}
        if os.path.isdir(target):
            for fname in os.listdir(target):
                with open(os.path.join(target, fname), "rb") as f:
                    stored[fname] = f.read()
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        with tempfile.TemporaryDirectory() as tmp:
            for fname in run_case(case, tmp):
                data = read_output(os.path.join(tmp, "out", fname))
                with open(os.path.join(target, fname), "wb") as f:
                    f.write(data)
                path = os.path.relpath(os.path.join(target, fname))
                print(write_status(path, stored.pop(fname, None), data))
        for fname in sorted(stored):
            print(f"removed {os.path.relpath(os.path.join(target, fname))}")

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

and says so in its change notes.
"""

import contextlib
import json
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


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import shutil
    import tempfile

    for case in sorted(CASES):
        target = os.path.join(GOLDEN, case)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        with tempfile.TemporaryDirectory() as tmp:
            for fname in run_case(case, tmp):
                with open(os.path.join(target, fname), "wb") as f:
                    f.write(read_output(os.path.join(tmp, "out", fname)))
                print(os.path.join(target, fname))

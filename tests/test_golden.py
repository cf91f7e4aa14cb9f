"""Golden outputs: every CLI output file, byte for byte, on tiny configs.

Each case runs `smallmass.harness.main` on a fixed config and compares
every file it writes (except `manifest.json`, which holds timestamps and
runtimes) with the stored copy under `tests/golden/<case>/`. A refactor
must leave these bytes unchanged.

The stored files are program output, never edited by hand. A change that
is meant to alter outputs regenerates them with

    PYTHONPATH=src python tests/test_golden.py --write

and says so in its change notes.
"""

import os
import sys

import pytest
import yaml

from smallmass.harness import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
UNCOMPARED = ("manifest.json",)

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
}


def run_case(name, out_dir, config_dir):
    commands, config = CASES[name]
    path = os.path.join(config_dir, f"{name}.yaml")
    with open(path, "w") as f:
        yaml.safe_dump({**config, "out_dir": str(out_dir)}, f)
    for cmd in commands:
        assert main([cmd, "--config", path]) == 0, cmd
    return sorted(n for n in os.listdir(out_dir) if n not in UNCOMPARED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_files(name, tmp_path):
    written = run_case(name, tmp_path / "out", tmp_path)
    expected_dir = os.path.join(GOLDEN, name)
    assert written == sorted(os.listdir(expected_dir))
    for fname in written:
        with open(tmp_path / "out" / fname, "rb") as f:
            got = f.read()
        with open(os.path.join(expected_dir, fname), "rb") as f:
            want = f.read()
        assert got == want, f"{name}/{fname} differs from the golden copy"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import shutil
    import tempfile

    for case in sorted(CASES):
        target = os.path.join(GOLDEN, case)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            for fname in run_case(case, out, tmp):
                shutil.copyfile(os.path.join(out, fname), os.path.join(target, fname))
                print(os.path.join(target, fname))

"""Benchmark tests on tiny configs whose counts can be derived by hand.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from measure import END_TO_END, PER_LAYER, measure
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

LIMIT_STEPS = 10  # T / dt_limit for the tiny 1D sweeps below


def tiny(name, **config):
    """The named workload shrunk to a few particles and steps."""
    w = WORKLOADS[name]
    return replace(w, config={**w.config, **config}, tolerance=10.0)


TINY_DW1D = tiny(
    "dw1d",
    n_particles=40,
    epsilon_grid=[0.2, 0.1],
    T=0.01,
    t_star=0.005,
    snapshot_times=[0.005, 0.01],
)
TINY_SDF = tiny(
    "sdf1d-slice",
    n_particles=40,
    T=0.01,
    t_star=0.004,
    delta=0.003,
    fp_cells=100,
)
TINY_G2D = tiny(
    "g2d",
    n_particles=4,
    T=0.003,
    t_star=0.001,
    snapshot_times=[0.002, 0.003],
)

_cache = {}


def run(workload, seed=1, trace=True):
    key = (id(workload), seed, trace)
    if key not in _cache:
        _cache[key] = measure(ROOT, workload, seed, seconds=0.0, trace=trace)
    return _cache[key]


def value(outcome, name):
    return outcome.metrics[name][0]


def test_noise_calls_equal_steps_plus_init_draws():
    out = run(TINY_DW1D)
    n_eps = len(TINY_DW1D.config["epsilon_grid"])
    # one position block for the limit run; per epsilon a position and a velocity block
    init_draws = 1 + 2 * n_eps
    assert value(out, "overdamped.steps") == LIMIT_STEPS
    assert value(out, "underdamped.step.calls") == n_eps * LIMIT_STEPS
    assert value(out, "ensemble.noise.calls") == (n_eps + 1) * LIMIT_STEPS + init_draws
    assert value(out, "ensemble.noise.lanes_used_ratio") == 1 / 8


@pytest.mark.parametrize("workload", [TINY_DW1D, TINY_SDF], ids=["dw1d", "sdf1d-slice"])
def test_small_matrix_kernels_never_run_per_particle_in_1d(workload):
    """In 1D only the limit run's Lipschitz probe and constant-friction guard
    reach smallmat; nothing scales with N or with the underdamped steps.

    The probe evaluates limit_drift at x0 +- h (2 points for d = 1); each
    point solves two Lyapunov problems, inverts twice and takes four
    symmetric eigenvalue floors. A constant friction (double well) adds one
    inverse and one floor per limit step; the state-dependent friction
    takes the vectorized 1D path, which adds none.
    """
    out = run(workload)
    per_step = 1 if workload.name == "dw1d" else 0
    assert value(out, "smallmat.expm.calls") == 0
    assert value(out, "smallmat.lyapunov.calls") == 2 * 2
    assert value(out, "smallmat.invert.calls") == 2 * 2 + per_step * LIMIT_STEPS
    assert value(out, "smallmat.eig.calls") == 2 * 4 + per_step * LIMIT_STEPS


def test_overdamped_coeffs_calls_match_hand_count_on_g2d():
    out = run(TINY_G2D)
    n, d = TINY_G2D.config["n_particles"], 2
    steps = 3  # T / dt_limit
    assert value(out, "overdamped.steps") == steps
    # per limit step and particle: limit_coefficients, which calls
    # noise_induced_drift; the Lipschitz probe's 2d limit_drift calls each
    # nest limit_coefficients and noise_induced_drift
    assert value(out, "overdamped.coeffs.calls") == 2 * n * steps + 3 * 2 * d
    assert value(out, "ensemble.pairsum.pairs") > 0


def test_new_seed_changes_outputs_but_no_count():
    first, second = run(TINY_DW1D, seed=1), run(TINY_DW1D, seed=2)
    assert first.correct and second.correct
    a, b = first.digests[1], second.digests[2]
    assert set(a) == set(b)
    assert all(a[f] != b[f] for f in a)
    for name, (val, unit) in first.metrics.items():
        if unit == "count" or name.endswith(("per_eval", "lanes_used_ratio")):
            assert value(second, name) == val, name


def test_traced_and_untraced_runs_write_identical_outputs():
    out = run(TINY_SDF)
    assert out.correct, out.report
    assert list(out.digests) == [1]  # one untraced and one traced run of seed 1
    # two slice-diag passes, one limit run and one fp solve per workload run
    assert out.attempted == 2 * 4
    # the fp command learns its step from one fp_step call that raises the
    # CFL error, so one call advances no cells
    steps = value(out, "fpsolve1d.step.calls") - 1
    assert steps > 0
    assert value(out, "fpsolve1d.cell_steps") == TINY_SDF.config["fp_cells"] * steps


def test_layer_self_times_account_for_the_traced_wall_time():
    out = run(TINY_DW1D)  # two epsilon jobs, so the sweep uses the pool
    self_total = sum(
        val for name, (val, unit) in out.metrics.items()
        if name.endswith("self_s") or name == "harness.pool.wait_s"
    )
    busy = value(out, "harness.pool.busy_s")
    assert busy > 0
    accounted = self_total - busy + value(out, "trace.unaccounted_s")
    assert accounted == pytest.approx(value(out, "trace.wall_s"), abs=1e-3)
    assert 0 <= value(out, "trace.unaccounted_s") < 0.01


def test_untraced_runs_cycle_through_the_derived_seeds():
    out = run(TINY_DW1D, seed=5, trace=False)
    assert out.correct, out.report
    assert list(out.digests) == TINY_DW1D.seeds_for(5) == [5, 1000005, 2000005]
    assert len({tuple(sorted(d.items())) for d in out.digests.values()}) == len(out.digests)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_printed_metric_is_listed(trace):
    out = run(TINY_DW1D, seed=5, trace=trace)
    printed = json.loads(out.result_json())
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in listed] == list(printed["metrics"])
    for m in listed:
        assert printed["metrics"][m["name"]]["unit"] == m["unit"]
        table = PER_LAYER if trace else END_TO_END
        assert table[m["name"]] == (m["unit"], m["better"])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_tracer_wraps_every_import_site():
    code = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import smallmass, smallmass.harness
from tracer import Tracer
Tracer(1).install(smallmass)
from smallmass import ensemble, harness, observables, overdamped, underdamped
for mod in (ensemble, harness, observables, overdamped, underdamped):
    assert hasattr(mod.mean_field_coefficients, "__wrapped__"), mod
assert all(hasattr(f, "__wrapped__") for f in underdamped._STEPPERS.values())
assert hasattr(smallmass.limit_coefficients, "__wrapped__")
assert hasattr(ensemble.NoiseStream.block, "__wrapped__")
assert harness.ThreadPoolExecutor.__name__ == "TracedPool"
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

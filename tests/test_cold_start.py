"""Cold start: scipy's submodules load where they are used, not at import.

Each check runs in a fresh interpreter, since pytest itself (and the other
test modules) import scipy.linalg, scipy.optimize and scipy.special. A
check counts only what smallmass adds to `import numpy, scipy`, which loads
none of the checked submodules on numpy >= 2. A 1D sweep, slice pass,
limit run, Fokker-Planck solve and exponential step load none of the scipy
ones, nor numpy.polynomial or numpy.ma; a 2D exact-W2 sweep with a
diagonal friction loads none of the scipy ones either; a 2D slice pass loads
what it calls before its first step; each lazy site, called first in a fresh
process, loads what it needs and returns the same bits as a direct scipy
call made here. Exact W2 runs scipy's compiled assignment solver without
loading scipy.optimize.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.special

import smallmass
from smallmass.ensemble import RUN_INIT_POSITIONS, NoiseStream
from smallmass.model import audit_assumptions, get_preset

SCIPY = ("scipy.linalg", "scipy.optimize", "scipy.special")
# numpy.polynomial only serves the tests' quadrature oracles; numpy.ma loads
# at np.median's first call. numpy 1.x loads both at `import numpy`, so a
# fresh interpreter's baseline is what `import numpy, scipy` has loaded
SUBMODULES = SCIPY + ("numpy.polynomial", "numpy.ma")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(smallmass.__file__)))

MIXTURE = ((0.5, -1.0, 0.3), (0.5, 1.0, 0.3))
AUDIT = dict(preset="gaussian-interaction-2d", box=([-2.0, -2.0], [2.0, 2.0]), n=12, seed=6)


def fresh_python(code, cwd):
    """Run code in a new interpreter with this package on its path; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def inputs():
    rng = np.random.default_rng(0)
    return dict(
        stack=rng.standard_normal((3, 2, 2)),
        cloud_a=rng.standard_normal((20, 2)),
        cloud_b=rng.standard_normal((20, 2)),
    )


LOADED = f"""
import sys
import numpy, scipy
BASELINE = {{m for m in {SUBMODULES!r} if m in sys.modules}}
def loaded():
    return sorted(m for m in {SUBMODULES!r} if m in sys.modules and m not in BASELINE)
"""


def test_import_and_1d_runs_load_no_scipy_submodule(tmp_path):
    # a single-component start draws no mixture labels (scipy.special), and
    # the 1D exponential step takes the closed-form transition, not expm
    config = dict(
        preset="state-dep-friction-1d",
        n_particles=20,
        epsilon_grid=[0.1],
        T=0.02,
        t_star=0.01,
        delta=0.005,
        dt_under=0.005,
        dt_limit=0.005,
        fp_cells=40,
        out_dir="out",
        seed=1,
    )
    with open(tmp_path / "c.json", "w") as f:
        json.dump(config, f)  # JSON is YAML
    out = fresh_python(LOADED + """
print("baseline", sorted(BASELINE))
import smallmass, smallmass.harness
print("loaded", loaded())
for command in ("converge", "slice-diag", "limit", "fp"):
    assert smallmass.harness.main([command, "--config", "c.json"]) == 0
print("loaded", loaded())
import numpy as np
from smallmass.ensemble import NoiseStream, UnderdampedEnsemble
from smallmass.model import get_preset
from smallmass.underdamped import UDStepperConfig, step_underdamped_exp
state = UnderdampedEnsemble(
    epsilon=0.1, t=0.0, positions=np.full((50, 1), 0.3), velocities=np.zeros((50, 1))
)
step_underdamped_exp(
    state, get_preset("state-dep-friction-1d"), UDStepperConfig("exponential", 0.2),
    NoiseStream(1),
)
print("loaded", loaded())
""", tmp_path)
    assert [line for line in out.splitlines() if line.startswith("loaded")] == [
        "loaded []"
    ] * 3
    # on numpy >= 2 the baseline is empty, so no submodule is let through
    if int(np.__version__.split(".")[0]) >= 2:
        assert "baseline []" in out.splitlines()
    assert {"w2.csv", "slice_summary.json", "limit_snapshots.csv", "density.csv"} <= set(
        os.listdir(tmp_path / "out")
    )


TWO_D = dict(
    preset="gaussian-interaction-2d",
    n_particles=6,
    epsilon_grid=[0.2, 0.1],
    T=0.004,
    t_star=0.002,
    delta=0.001,
    scheme="exponential",
    dt_under=0.001,
    dt_limit=0.001,
    out_dir="out",
    seed=2,
)


@pytest.mark.parametrize(
    "command, entry, loads",
    [
        # exact W2 (auto in 2D) runs scipy's compiled solver alone, and the
        # diagonal friction's expm takes exp of its diagonal
        ("converge", "simulate_limit", dict.fromkeys(SCIPY, False)),
        ("slice-diag", "simulate_underdamped", {"scipy.linalg": True}),
    ],
)
def test_2d_runs_load_their_submodules_before_the_first_step(command, entry, loads, tmp_path):
    # loads: whether each submodule is loaded at the first step and at exit
    with open(tmp_path / "c.json", "w") as f:
        json.dump(TWO_D, f)
    out = fresh_python(LOADED + f"""
import smallmass.harness as h
run = h.{entry}
def check():
    print(all((m in sys.modules) == v for m, v in {loads!r}.items()), loaded())
def first_call(*args, **kwargs):
    check()
    h.{entry} = run
    return run(*args, **kwargs)
h.{entry} = first_call
assert h.main([{command!r}, "--config", "c.json"]) == 0
check()
""", tmp_path)
    lines = out.splitlines()
    assert lines[0].startswith("True") and lines[-1].startswith("True"), out


# site: (submodule, whether the site loads it, code that sets result)
SITES = {
    "expm": ("scipy.linalg", True, """
from smallmass.smallmat import expm
result = expm(np.load("inputs.npz")["stack"])
"""),
    "w2_exact": ("scipy.optimize", False, """
from smallmass.observables import w2_exact
data = np.load("inputs.npz")
result = np.array(w2_exact(data["cloud_a"], data["cloud_b"]))
"""),
    "audit_assumptions": ("scipy.special", True, f"""
import dataclasses
from smallmass.ensemble import NoiseStream
from smallmass.model import audit_assumptions, get_preset
a = {AUDIT!r}
report = audit_assumptions(get_preset(a["preset"]), a["box"], a["n"], NoiseStream(a["seed"]))
result = np.array(dataclasses.astuple(report), dtype=float)
"""),
    "initial_positions": ("scipy.special", True, f"""
from smallmass.ensemble import NoiseStream
from smallmass.harness import initial_positions
result = initial_positions(NoiseStream(3), 40, 1, {MIXTURE!r})
"""),
}


def reference(site, data):
    """The site's result from scipy called directly (audit: with scipy.special loaded)."""
    if site == "expm":
        return scipy.linalg.expm(data["stack"])
    if site == "w2_exact":
        cost = np.sum((data["cloud_a"][:, None, :] - data["cloud_b"][None, :, :]) ** 2, axis=-1)
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        return np.array(np.sqrt(cost[rows, cols].mean()))
    if site == "audit_assumptions":
        report = audit_assumptions(
            get_preset(AUDIT["preset"]), AUDIT["box"], AUDIT["n"], NoiseStream(AUDIT["seed"])
        )
        return np.array(dataclasses.astuple(report), dtype=float)
    z = NoiseStream(3).block(RUN_INIT_POSITIONS, 0, 40, 2)  # offset lane, component lane
    w, mu, sd = np.array(MIXTURE).T
    u = scipy.special.ndtr(z[:, 1])
    idx = np.searchsorted(np.cumsum(w / w.sum()), u, side="right")
    return mu[idx, None] + sd[idx, None] * z[:, :1]


@pytest.mark.parametrize("site", sorted(SITES))
def test_lazy_site_matches_direct_scipy_call(site, tmp_path):
    module, loads, body = SITES[site]
    data = inputs()
    np.savez(tmp_path / "inputs.npz", **data)
    fresh_python(LOADED + f"""
import numpy as np
import smallmass.harness
assert {module!r} not in loaded(), loaded()
{body}
assert ({module!r} in loaded()) == {loads!r}, loaded()
np.save("result.npy", result)
""", tmp_path)
    got = np.load(tmp_path / "result.npy")
    assert np.array_equal(got, reference(site, data))

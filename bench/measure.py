"""Run one workload for a while and turn the child records into metrics.

``measure`` is the whole benchmark for one (workload, seed, duration,
trace) tuple. Every workload run is a fresh child interpreter
(``child.py``) running the workload's commands in a closed loop: one
command runs to completion before the next starts, and the next workload
run starts only after the previous one has exited.

The workload runs cycle through the workload's seeds derived from the
given one (the first is the given seed itself). Timings do not depend on
the seed; the accuracy figure does, and its mean over the derived seeds is
steadier than any one seed's value.

With ``trace=False`` the run repeats the untraced workload until
``seconds`` have passed and every derived seed has run, and reports the
medians of the end-to-end metrics; every workload run is also a set-up
sample. With
``trace=True`` it alternates untraced and traced workload runs, in pairs
on one seed, for ``seconds`` and reports the per-layer metrics of the
traced runs; the difference between the two kinds is the tracing
overhead. Every run's outputs are checked, and all runs of one seed must
write byte-identical outputs, traced or not.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
RUN_BUDGET_S = 150.0  # no workload run starts that would end past this
DEADLINE_S = 170.0  # a child still running this long after the start is killed
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "particle_steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
    "error_T": ("1", "lower"),
}

PER_LAYER = {
    "ensemble.noise.calls": ("count", "lower"),
    "ensemble.noise.self_s": ("s", "lower"),
    "ensemble.noise.lanes_used_ratio": ("ratio", "higher"),
    "ensemble.pairsum.calls": ("count", "lower"),
    "ensemble.pairsum.pairs": ("count", "lower"),
    "ensemble.pairsum.self_s": ("s", "lower"),
    "ensemble.coeffs.calls": ("count", "lower"),
    "ensemble.coeffs.self_s": ("s", "lower"),
    "model.fields.calls": ("count", "lower"),
    "model.fields.points": ("count", "lower"),
    "model.fields.self_s": ("s", "lower"),
    "smallmat.lyapunov.calls": ("count", "lower"),
    "smallmat.expm.calls": ("count", "lower"),
    "smallmat.invert.calls": ("count", "lower"),
    "smallmat.eig.calls": ("count", "lower"),
    "smallmat.self_s": ("s", "lower"),
    "underdamped.step.calls": ("count", "lower"),
    "underdamped.step.self_s": ("s", "lower"),
    "underdamped.step.p50_ms": ("ms", "lower"),
    "underdamped.step.p99_ms": ("ms", "lower"),
    "underdamped.step.shortened": ("count", "lower"),
    "underdamped.run.self_s": ("s", "lower"),
    "overdamped.steps": ("count", "lower"),
    "overdamped.run.self_s": ("s", "lower"),
    "overdamped.coeffs.calls": ("count", "lower"),
    "overdamped.coeffs.self_s": ("s", "lower"),
    "observables.ystar.calls": ("count", "lower"),
    "observables.ystar.per_eval": ("ratio", "lower"),
    "observables.ystar.self_s": ("s", "lower"),
    "observables.yhat.calls": ("count", "lower"),
    "observables.yhat.self_s": ("s", "lower"),
    "observables.w2.calls": ("count", "lower"),
    "observables.w2.self_s": ("s", "lower"),
    "observables.diag.self_s": ("s", "lower"),
    "fpsolve1d.step.calls": ("count", "lower"),
    "fpsolve1d.cell_steps": ("count", "lower"),
    "fpsolve1d.step.self_s": ("s", "lower"),
    "fpsolve1d.run.self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.bytes_written": ("bytes", "lower"),
    "harness.pool.busy_ratio": ("ratio", "higher"),
    "harness.pool.busy_s": ("s", "lower"),
    "harness.pool.wait_s": ("s", "lower"),
    "other.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, or no timing)."""


@dataclass
class RunResult:
    """One workload run: its child record plus the parent's checks."""

    traced: bool
    seed: int
    record: dict
    verdict: dict
    digests: dict
    bytes_written: int
    setup_s: float

    @property
    def wall_s(self) -> float:
        return self.record["end"]["perf"] - self.record["first"]["perf"]

    @property
    def cpu_s(self) -> float:
        return self.record["end"]["cpu"] - self.record["first"]["cpu"]


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    digests: dict
    report: list = field(default_factory=list)

    def result_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


# ------------------------------------------------------------ environment


def child_env(root: Path) -> dict:
    """Child environment: smallmass from root/src, one BLAS thread.

    The sweep pool keeps the package default worker count, capped at the
    CPUs this process may run on, so busy threads never exceed nproc.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SMALLMASS_THREADS")}
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_VARS:
        env[var] = "1"
    nproc = len(os.sched_getaffinity(0))
    if min(4, os.cpu_count() or 1) > nproc:
        env["SMALLMASS_THREADS"] = str(nproc)
    return env


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(root: Path, env: dict, versions: dict) -> dict:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "smallmass").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "workers": env.get("SMALLMASS_THREADS", f"package default min(4, {os.cpu_count()})"),
        "blas_threads": {v: env[v] for v in BLAS_VARS},
        **versions,
        "git_commit": _git_commit(root),
        "src_sha256": h.hexdigest(),
    }


# ---------------------------------------------------------------- running


def _run_child(root, workload, config_path, out_dir, env, deadline, trace):
    """Run child.py once; return (its record, its set-up time in seconds)."""
    result = f"{out_dir}.json"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--root", str(root),
        "--commands", ",".join(workload.commands),
        "--dim", str(workload.dim),
        "--config", str(config_path),
        "--out", str(out_dir),
        "--result", result,
    ]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"workload process still running after {exc.timeout:.0f} s")
    if proc.returncode != 0 or not os.path.isfile(result):
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"workload process exited with status {proc.returncode}")
    with open(result) as f:
        record = json.load(f)
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr[-2000:])
    if record.get("first") is None:
        raise BenchError("the workload never reached a dynamics call")
    return record, record["first"]["mono"] - spawned


def _workload_run(root, workload, config, config_path, run_dir, env, deadline, index, traced):
    out_dir = run_dir / f"run{index}"
    record, setup_s = _run_child(root, workload, config_path, out_dir, env, deadline, traced)
    verdict = wl.check(workload, config, out_dir, record["exit_codes"])
    digests = wl.digests(out_dir) if out_dir.is_dir() else {}
    size = wl.bytes_written(out_dir) if out_dir.is_dir() else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return RunResult(traced, config["seed"], record, verdict, digests, size, setup_s)


def measure(root, workload, seed: int, seconds: float, trace: bool, started=None) -> Outcome:
    """Measure one workload for ``seconds``; see the module docstring."""
    root = Path(root).resolve()
    started = time.perf_counter() if started is None else started
    deadline = started + DEADLINE_S
    if not (root / "src" / "smallmass" / "__init__.py").is_file():
        raise BenchError(f"no smallmass package under {root / 'src'}")
    configs = [workload.config_for(s) for s in workload.seeds_for(seed)]
    run_dir = root / ".bench_out" / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        paths = [run_dir / f"config{i}.yaml" for i in range(len(configs))]
        for path, config in zip(paths, configs):
            wl.write_config(path, config)
        env = child_env(root)

        runs: list[RunResult] = []
        min_runs = 2 if trace else len(configs)  # a traced run needs one of each kind
        t0 = time.perf_counter()
        while True:
            traced = trace and len(runs) % 2 == 1
            k = (len(runs) // 2 if trace else len(runs)) % len(configs)
            runs.append(
                _workload_run(
                    root, workload, configs[k], paths[k], run_dir, env, deadline, len(runs), traced
                )
            )
            now = time.perf_counter()
            if now - t0 >= seconds and len(runs) >= min_runs:
                break
            over_budget = now - started + (now - t0) / len(runs) > RUN_BUDGET_S
            if over_budget and len(runs) >= (2 if trace else 1):
                break
        return _outcome(root, workload, env, runs, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


# ---------------------------------------------------------------- metrics


def _median(values):
    return float(statistics.median(values))


def _by_seed(runs) -> dict:
    groups = {}
    for r in runs:
        groups.setdefault(r.seed, []).append(r)
    return groups


def _end_to_end(runs, attempted, failed) -> dict:
    accuracy = [g[0].verdict["accuracy"] for g in _by_seed(runs).values()]
    accuracy = [a for a in accuracy if a is not None]
    if not accuracy:
        raise BenchError("no seed produced the accuracy figure")
    values = {
        "setup_s": _median([r.setup_s for r in runs]),
        "wall_s": _median([r.wall_s for r in runs]),
        "cpu_s": _median([r.cpu_s for r in runs]),
        "particle_steps_per_s": _median(
            [r.record["particle_steps"] / r.wall_s for r in runs]
        ),
        "peak_rss_mb": _median([r.record["peak_rss_kb"] / 1024.0 for r in runs]),
        "success_rate": 1.0 - failed / attempted,
        "error_T": statistics.fmean(accuracy),
    }
    return {k: (values[k], END_TO_END[k][0]) for k in END_TO_END}


def layer_values(trace: dict, bytes_written: int, wall_s: float) -> dict:
    """Per-layer metric values of one traced run (trace.overhead_s excluded)."""
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]

    def c(key):
        return float(counts.get(key, 0))

    rows = c("observables.rows.calls")
    drawn = c("noise.lanes_drawn")
    capacity = trace["pool_capacity_s"]
    return {
        "ensemble.noise.calls": calls.get("ensemble.noise", 0),
        "ensemble.noise.self_s": self_s.get("ensemble.noise", 0.0),
        "ensemble.noise.lanes_used_ratio": c("noise.lanes_kept") / drawn if drawn else 0.0,
        "ensemble.pairsum.calls": calls.get("ensemble.pairsum", 0),
        "ensemble.pairsum.pairs": c("ensemble.pairsum.pairs"),
        "ensemble.pairsum.self_s": self_s.get("ensemble.pairsum", 0.0),
        "ensemble.coeffs.calls": calls.get("ensemble.coeffs", 0),
        "ensemble.coeffs.self_s": self_s.get("ensemble.coeffs", 0.0),
        "model.fields.calls": calls.get("model.fields", 0),
        "model.fields.points": c("model.fields.points"),
        "model.fields.self_s": self_s.get("model.fields", 0.0),
        "smallmat.lyapunov.calls": c("smallmat.lyapunov.calls"),
        "smallmat.expm.calls": c("smallmat.expm.calls"),
        "smallmat.invert.calls": c("smallmat.invert.calls"),
        "smallmat.eig.calls": c("smallmat.eig.calls"),
        "smallmat.self_s": self_s.get("smallmat", 0.0),
        "underdamped.step.calls": calls.get("underdamped.step", 0),
        "underdamped.step.self_s": self_s.get("underdamped.step", 0.0),
        "underdamped.step.p50_ms": trace["step_ms_p50"],
        "underdamped.step.p99_ms": trace["step_ms_p99"],
        "underdamped.step.shortened": c("underdamped.step.shortened"),
        "underdamped.run.self_s": self_s.get("underdamped.run", 0.0),
        "overdamped.steps": c("overdamped.steps"),
        "overdamped.run.self_s": self_s.get("overdamped.run", 0.0),
        "overdamped.coeffs.calls": calls.get("overdamped.coeffs", 0),
        "overdamped.coeffs.self_s": self_s.get("overdamped.coeffs", 0.0),
        "observables.ystar.calls": c("observables.ystar.calls"),
        "observables.ystar.per_eval": c("observables.ystar.calls") / rows if rows else 0.0,
        "observables.ystar.self_s": self_s.get("observables.ystar", 0.0),
        "observables.yhat.calls": calls.get("observables.yhat", 0),
        "observables.yhat.self_s": self_s.get("observables.yhat", 0.0),
        "observables.w2.calls": calls.get("observables.w2", 0),
        "observables.w2.self_s": self_s.get("observables.w2", 0.0),
        "observables.diag.self_s": self_s.get("observables.diag", 0.0),
        "fpsolve1d.step.calls": calls.get("fpsolve1d.step", 0),
        "fpsolve1d.cell_steps": c("fpsolve1d.cell_steps"),
        "fpsolve1d.step.self_s": self_s.get("fpsolve1d.step", 0.0),
        "fpsolve1d.run.self_s": self_s.get("fpsolve1d.run", 0.0),
        "harness.self_s": self_s.get("harness", 0.0),
        "harness.bytes_written": float(bytes_written),
        # a sweep with one job runs inline, so its single worker is never idle
        "harness.pool.busy_ratio": trace["pool_busy_s"] / capacity if capacity else 1.0,
        "harness.pool.busy_s": trace["pool_busy_s"],
        "harness.pool.wait_s": self_s.get("harness.pool.wait", 0.0),
        "other.self_s": self_s.get("other", 0.0),
        "trace.wall_s": wall_s,
        "trace.unaccounted_s": trace["unaccounted_s"],
    }


def _per_layer(runs) -> dict:
    traced = [r for r in runs if r.traced]
    plain = [r for r in runs if not r.traced]
    per_run = [layer_values(r.record["trace"], r.bytes_written, r.wall_s) for r in traced]
    values = {k: _median([v[k] for v in per_run]) for k in per_run[0]}
    values["trace.overhead_s"] = values["trace.wall_s"] - _median([r.wall_s for r in plain])
    return {k: (values[k], PER_LAYER[k][0]) for k in PER_LAYER}


def _outcome(root, workload, env, runs, trace) -> Outcome:
    attempted = sum(len(r.verdict["ops"]) for r in runs)
    failed = sum(sum(1 for ok in r.verdict["ops"].values() if not ok) for r in runs)
    report = ["env " + json.dumps(environment(root, env, runs[0].record["versions"]), sort_keys=True)]
    for i, r in enumerate(runs):
        ok = sum(1 for v in r.verdict["ops"].values() if v)
        report.append(
            f"run {i} seed={r.seed} traced={int(r.traced)} setup_s={r.setup_s:.4f} "
            f"wall_s={r.wall_s:.4f} cpu_s={r.cpu_s:.4f} ops_ok={ok}/{len(r.verdict['ops'])}"
        )
        report += [f"problem run {i}: {p}" for p in r.verdict["problems"]]

    label = "fp_l1" if "fp" in workload.commands else "w2_T"
    groups = _by_seed(runs)
    identical = True
    for seed, group in groups.items():
        digests = group[0].digests
        for name, digest in sorted(digests.items()):
            report.append(f"sha256 {workload.name} seed={seed} {name} {digest}")
        report.append(
            f"accuracy {workload.name} seed={seed} {label}={group[0].verdict['accuracy']!r} "
            f"tolerance={workload.tolerance}"
        )
        if not digests or any(r.digests != digests for r in group):
            identical = False
            report.append(f"problem: outputs of seed {seed} missing or not byte-identical")
    try:
        metrics = _per_layer(runs) if trace else _end_to_end(runs, attempted, failed)
    except BenchError:
        sys.stderr.write("\n".join(report) + "\n")
        raise
    correct = failed == 0 and identical
    digests = {seed: group[0].digests for seed, group in groups.items()}
    return Outcome(metrics, attempted, failed, correct, digests, report)

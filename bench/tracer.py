"""Span tracer installed around the public functions of every smallmass module.

The tracer is installed from the benchmark's own files: it replaces every
public function and public method defined in a ``smallmass`` module with a
wrapper that records one span per call. A name imported with
``from .ensemble import mean_field_coefficients`` is a separate binding in
each importing module, so the wrapper is installed at every import site:
every module namespace, and every module-level dict or list (such as a
scheme table) that holds the original function.

Each span belongs to a layer (see ``layer_of``). Self time is the span's
duration minus the time covered by its child spans on the same thread;
every thread keeps its own stack and its own totals, so worker threads of
the sweep pool never charge their time to the main thread. Self times are
clipped to the measured window, which opens at the first dynamics call, so
they add up against the same wall time the end-to-end metrics use.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

# exact (module, qualname) -> layer; anything else falls back to MODULE_LAYERS
NAMED_LAYERS = {
    ("ensemble", "NoiseStream.block"): "ensemble.noise",
    ("ensemble", "NoiseStream.gaussian"): "ensemble.noise",
    ("ensemble", "gaussian"): "ensemble.noise",
    ("ensemble", "conv_phi"): "ensemble.pairsum",
    ("ensemble", "conv_gradK"): "ensemble.pairsum",
    ("ensemble", "mean_field_coefficients"): "ensemble.coeffs",
    ("ensemble", "write_snapshots_csv"): "harness",
    ("fpsolve1d", "write_density_csv"): "harness",
    ("observables", "WeakGapReport.write_csv"): "harness",
    ("underdamped", "step_underdamped_em"): "underdamped.step",
    ("underdamped", "step_underdamped_exp"): "underdamped.step",
    ("overdamped", "limit_coefficients"): "overdamped.coeffs",
    ("overdamped", "limit_drift"): "overdamped.coeffs",
    ("overdamped", "noise_induced_drift"): "overdamped.coeffs",
    ("overdamped", "limit_diffusion"): "overdamped.coeffs",
    ("observables", "weak_Ystar"): "observables.ystar",
    ("observables", "ystar_summands"): "observables.ystar",
    ("observables", "weak_Yhat"): "observables.yhat",
    ("observables", "w2_1d"): "observables.w2",
    ("observables", "w2_exact"): "observables.w2",
    ("observables", "w2_sliced"): "observables.w2",
    ("fpsolve1d", "fp_step"): "fpsolve1d.step",
    ("model", "fd_matrix_jacobian"): "model.fields",
}

MODULE_LAYERS = {
    "smallmat": "smallmat",
    "underdamped": "underdamped.run",
    "overdamped": "overdamped.run",
    "observables": "observables.diag",
    "fpsolve1d": "fpsolve1d.run",
    "harness": "harness",
}

POOL_WAIT = "harness.pool.wait"

# functions whose calls are counted on their own, keyed by qualname
COUNTED = {
    ("smallmat", "solve_lyapunov"): "smallmat.lyapunov",
    ("smallmat", "lyapunov_quadrature"): "smallmat.lyapunov",
    ("smallmat", "expm"): "smallmat.expm",
    ("smallmat", "invert"): "smallmat.invert",
    ("smallmat", "min_symmetric_eigenvalue"): "smallmat.eig",
    ("observables", "ystar_summands"): "observables.ystar",
    ("observables", "gap_row"): "observables.rows",
}


def layer_of(module: str, qualname: str) -> str:
    """Layer of a public smallmass function, by module and qualified name."""
    named = NAMED_LAYERS.get((module, qualname))
    if named is not None:
        return named
    if module == "model" and qualname.startswith("ModelSpec.") and qualname.endswith("_at"):
        return "model.fields"
    return MODULE_LAYERS.get(module, "other")


class _ThreadState:
    """Span stack and running totals of one thread."""

    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        # each frame: [layer, child time, child time inside the window]
        self.stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}


class Tracer:
    """Per-thread span recorder; read the totals with ``summary()``.

    ``dim`` is the state dimension of the workload's model: a noise block
    that keeps ``dim`` lanes per particle out of the lanes it draws
    reports the ratio as ``ensemble.noise.lanes_used_ratio``.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.window_start: float | None = None
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._step_ms: list[float] = []
        self._pool_capacity = 0.0

    # ---------------------------------------------------------- recording

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            self._threads.append(st)  # list.append is atomic under the GIL
        return st

    def _clip(self, t0: float, t1: float) -> float:
        w = self.window_start
        if w is None or t1 <= w:
            return 0.0
        return t1 - max(t0, w)

    def _close(self, st: _ThreadState, frame, t0: float, t1: float):
        dur = t1 - t0
        clipped = self._clip(t0, t1)
        st.stack.pop()
        if st.stack:
            parent = st.stack[-1]
            parent[1] += dur
            parent[2] += clipped
        layer = frame[0]
        st.calls[layer] = st.calls.get(layer, 0) + 1
        st.self_s[layer] = st.self_s.get(layer, 0.0) + (clipped - frame[2])
        return dur

    def _count(self, st: _ThreadState, key: str, amount=1):
        st.counts[key] = st.counts.get(key, 0) + amount

    def wrap(self, fn, module: str, qualname: str, layer: str | None = None):
        layer = layer or layer_of(module, qualname)
        counted = COUNTED.get((module, qualname))
        post = self._post_hook(module, qualname, layer)
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            frame = [layer, 0.0, 0.0]
            parent_layer = st.stack[-1][0] if st.stack else None
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = tracer._close(st, frame, t0, t1)
            if counted is not None:
                tracer._count(st, counted + ".calls")
            if post is not None:
                post(st, args, kwargs, result, dur, parent_layer)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__qualname__ = getattr(fn, "__qualname__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _post_hook(self, module, qualname, layer):
        """Per-call counters measured where the work happens."""
        if (module, qualname) == ("ensemble", "NoiseStream.block"):

            def noise(st, args, kwargs, result, dur, parent):
                self._count(st, "noise.lanes_drawn", result.size)
                self._count(st, "noise.lanes_kept", result.shape[0] * self.dim)

            return noise
        if layer == "model.fields":

            def fields(st, args, kwargs, result, dur, parent):
                X = kwargs.get("X", args[1] if len(args) > 1 else None)
                shape = getattr(X, "shape", None)
                if shape is None:
                    return
                points = 1
                for n in shape[:-1]:
                    points *= int(n)
                self._count(st, "model.fields.points", points)
                if parent == "ensemble.pairsum":
                    self._count(st, "ensemble.pairsum.pairs", points)

            return fields
        if layer == "underdamped.step":

            def step(st, args, kwargs, result, dur, parent):
                self._step_ms.append(dur * 1e3)
                cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
                dt = kwargs.get("dt", args[4] if len(args) > 4 else None)
                if dt is not None and cfg is not None and dt < cfg.dt:
                    self._count(st, "underdamped.step.shortened")

            return step
        if (module, qualname) == ("overdamped", "simulate_limit"):

            def limit(st, args, kwargs, result, dur, parent):
                if result:
                    self._count(st, "overdamped.steps", int(result[-1].step))

            return limit
        if (module, qualname) == ("fpsolve1d", "fp_step"):

            def fp(st, args, kwargs, result, dur, parent):
                grid = kwargs.get("grid", args[0] if args else None)
                self._count(st, "fpsolve1d.cell_steps", int(getattr(grid, "M", 0)))

            return fp
        return None

    # ------------------------------------------------------------- pool

    def pool_class(self):
        """A ThreadPoolExecutor that records job spans and the caller's waits.

        Jobs are root spans of the ``harness`` layer on the worker threads;
        the submitting thread's time blocked in ``map`` results and in
        ``shutdown`` is the ``harness.pool.wait`` layer.
        """
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._opened = perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                job = tracer.wrap(fn, "harness", "pool.job")

                def timed(*a, **kw):
                    t0 = perf_counter()
                    try:
                        return job(*a, **kw)
                    finally:
                        busy = perf_counter() - t0
                        tracer._count(tracer._state(), "pool.busy_s", busy)

                return super().submit(timed, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                results = super().map(fn, *iterables, **kwargs)
                wait = tracer.wrap(next, "harness", "pool.wait", POOL_WAIT)

                def drain():
                    while True:
                        try:
                            item = wait(results)
                        except StopIteration:
                            return
                        yield item

                return drain()

            def shutdown(self, wait=True, **kwargs):
                waiting = tracer.wrap(super().shutdown, "harness", "pool.shutdown", POOL_WAIT)
                waiting(wait=wait, **kwargs)
                tracer._pool_capacity += self._max_workers * (
                    perf_counter() - self._opened
                )

        return TracedPool

    # -------------------------------------------------------- installing

    def install(self, package) -> None:
        """Wrap every public function and method of the package's modules.

        Must run before anything else takes references to the package's
        functions.
        """
        modules = {package.__name__: package}
        for info in pkgutil.iter_modules(package.__path__):
            name = f"{package.__name__}.{info.name}"
            modules[name] = importlib.import_module(name)

        replaced = {}  # id(original) -> wrapper; wrappers keep originals alive
        for modname, mod in modules.items():
            short = modname.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == modname:
                    wrapper = self.wrap(obj, short, name)
                    replaced[id(obj)] = wrapper
                elif isinstance(obj, type) and obj.__module__ == modname:
                    self._wrap_methods(obj, short)

        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
                elif isinstance(obj, list):
                    for i, val in enumerate(obj):
                        if id(val) in replaced:
                            obj[i] = replaced[id(val)]
        harness = modules.get(f"{package.__name__}.harness")
        if harness is not None and getattr(harness, "ThreadPoolExecutor", None):
            harness.ThreadPoolExecutor = self.pool_class()

    def _wrap_methods(self, cls, module: str):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self.wrap(attr, module, qualname))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(attr.__func__, module, qualname)))

    # ----------------------------------------------------------- reading

    def summary(self, main_thread_id: int, window_s: float) -> dict:
        """Totals over all threads, plus how the main thread's window is covered."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        main_covered = 0.0
        for st in self._threads:
            for k, v in st.calls.items():
                calls[k] = calls.get(k, 0) + v
            for k, v in st.self_s.items():
                self_s[k] = self_s.get(k, 0.0) + v
                if st.thread_id == main_thread_id:
                    main_covered += v
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v
        steps = sorted(self._step_ms)
        return {
            "calls": calls,
            "self_s": self_s,
            "counts": counts,
            "step_ms_p50": _percentile(steps, 0.50),
            "step_ms_p99": _percentile(steps, 0.99),
            "pool_busy_s": counts.get("pool.busy_s", 0.0),
            "pool_capacity_s": self._pool_capacity,
            "unaccounted_s": window_s - main_covered,
        }


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return float(sorted_values[k - 1])

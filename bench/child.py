"""One workload run in a fresh interpreter: the process the benchmark times.

Usage (from the benchmark, not by hand):

    python3 bench/child.py --root DIR --commands converge --dim 1 \
        --config FILE --out DIR --result FILE [--trace]

It imports smallmass from ``DIR/src``, runs the given CLI commands one
after the other through ``smallmass.harness.main``, and writes one JSON
record to ``--result``. The first call into a dynamics entry point
(``simulate_limit``, ``simulate_underdamped`` or ``fp_solve``) opens the
measured window: its time on the system-wide monotonic clock gives the
set-up time against the parent's spawn time, and the window closes when
the last command returns. ``--trace`` installs the span tracer before anything runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

DYNAMICS = ("simulate_limit", "simulate_underdamped", "fp_solve")


def _write(path, record):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(record, f)
    os.replace(tmp, path)


class Window:
    """Marks the first dynamics call and counts particle steps exactly."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.first = None
        self.particle_steps = []  # appended from worker threads; append is atomic

    def hook(self, fn):
        def dynamics(*args, **kwargs):
            if self.first is None:
                self.first = {
                    "mono": time.monotonic(),
                    "perf": time.perf_counter(),
                    "cpu": time.process_time(),
                }
                if self.tracer is not None:
                    self.tracer.window_start = self.first["perf"]
            out = fn(*args, **kwargs)
            last = out[-1] if out else None
            if hasattr(last, "step") and hasattr(last, "N"):
                self.particle_steps.append(int(last.step) * int(last.N))
            return out

        dynamics.__wrapped__ = fn
        return dynamics

    def install(self, modules):
        for mod in modules:
            for name in DYNAMICS:
                if callable(getattr(mod, name, None)):
                    setattr(mod, name, self.hook(getattr(mod, name)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--commands", required=True, help="comma-separated CLI commands")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import smallmass
    import smallmass.harness

    if Path(smallmass.__file__).resolve().parent != src / "smallmass":
        print(f"smallmass imported from {smallmass.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer  # this file's directory is sys.path[0]

        tracer = Tracer(args.dim)
        tracer.install(smallmass)
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "smallmass"]
    window = Window(tracer)
    window.install(modules)

    exit_codes = {}
    for cmd in args.commands.split(","):
        try:
            exit_codes[cmd] = smallmass.harness.main(
                [cmd, "--config", args.config, "--out", args.out]
            )
        except SystemExit as exc:  # argparse rejects the command line
            exit_codes[cmd] = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            exit_codes[cmd] = -1
    end_perf = time.perf_counter()
    end_cpu = time.process_time()

    record = {
        "first": window.first,
        "end": {"perf": end_perf, "cpu": end_cpu},
        "exit_codes": exit_codes,
        "particle_steps": sum(window.particle_steps),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None and window.first is not None:
        record["trace"] = tracer.summary(
            threading.main_thread().ident, end_perf - window.first["perf"]
        )
    _write(args.result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())

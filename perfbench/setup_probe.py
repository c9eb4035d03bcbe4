"""One set-up sample in a fresh process: start, import, config, problem, oracle.

Usage: python3 setup_probe.py <src dir> <config.yaml> <spawn time>

<spawn time> is the parent's ``time.monotonic()`` just before it started
this process; the monotonic clock is shared by all processes on Linux, so
the first phase covers interpreter start-up.  The calibration sampler
needs numpy, so the process loads numpy first: that load is part of the
``interpreter`` phase, and ``import`` covers lagnet on top of numpy.
Prints one JSON line with the seconds of each phase (sampler ticks
excluded), the calibration factors sampled during them, and the oracle's
x* and mu* for the parent to check.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calib  # noqa: E402


def main(src: str, config: str, spawned: float) -> dict:
    sys.path.insert(0, src)
    with calib.Sampler() as sampler:
        phases = {"interpreter": time.monotonic() - spawned}
        t_begin = time.perf_counter()
        last = [t_begin, sampler.total_busy]

        def mark(name):
            now, busy = time.perf_counter(), sampler.total_busy
            phases[name] = now - last[0] - (busy - last[1])
            last[:] = [now, busy]

        from lagnet import harness, oracle

        mark("import")
        cfg = harness.load_config(config)
        mark("load_config")
        bundle = harness.build_problem(cfg)
        mark("build_problem")
        sol = oracle.solve_centralized(bundle.problem, x_init=bundle.oracle_init,
                                       seed=int(cfg.get("seed", 0)))
        mark("solve_centralized")
        point = oracle.lifted_multipliers(bundle.problem, sol)
        mark("lifted_multipliers")
        factors = sampler.factors(t_begin, last[0])
    return {
        "phases": phases,
        "factors": factors,
        "x": [float(v) for v in point.x],
        "mu": [float(v) for v in point.mu],
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2], float(sys.argv[3]))))

#!/usr/bin/env python3
"""sha256 of every artifact the shipped runs write, one line per file.

Runs the four ``configs/*.yaml``, the path2 alpha sweep of the README and
a tp-nonconv3 a3 sweep over constant penalties c in {8, 10, 12} (seed 1,
certified) into a temporary directory, and prints ``<sha256>  <path>``
for each file, sorted by path.  ``wall_time_s`` is dropped from every
``summary.json`` before hashing; it is the one field that differs between
runs.  Two checkouts write the same artifacts exactly when their outputs
are equal:

    PYTHONPATH=src python scripts/artifact_digests.py > digests.txt
"""

import hashlib
import json
import tempfile
from pathlib import Path

from lagnet import harness

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# tp-nonconv3 under a3 at a constant penalty, with the inner and outer
# settings of the benchmark's a3 sweep; the tests pin the trace.csv of this
# run and the sweep.csv and row traces of its sweep over NONCONV3_A3_C
NONCONV3_A3 = {
    "seed": 1,
    "problem": {"name": "tp-nonconv3"},
    "algorithm": "a3",
    "c0": 8.0,
    "beta": 2.0,
    "c_max": 8.0,
    "inner": {"eps0": 1.0e-2, "gamma": 0.5, "max_iter": 20000},
    "outer": {"max_iter": 30},
    "tol": 1.0e-9,
    "init": {"mode": "oracle-perturb", "radius": 0.1},
}
NONCONV3_A3_C = [8.0, 10.0, 12.0]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        summary.pop("wall_time_s", None)
        data = json.dumps(summary, sort_keys=True, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def write_artifacts(out: Path) -> None:
    for config in sorted(CONFIGS.glob("*.yaml")):
        harness.run_experiment(harness.load_config(config), out / "run" / config.stem)
    harness.sweep(harness.load_config(CONFIGS / "path2_a1.yaml"), "alpha",
                  [0.05, 0.1, 0.3], out / "sweep-path2-alpha")
    harness.sweep({**NONCONV3_A3, "certify": True}, "c", NONCONV3_A3_C,
                  out / "sweep-nonconv3-a3-c")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_artifacts(out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{digest(path)}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()

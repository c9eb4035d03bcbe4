#!/usr/bin/env python3
"""sha256 of every artifact the shipped runs write, one line per file.

Runs the four ``configs/*.yaml``, the path2 alpha sweep of the README, a
tp-nonconv3 a3 sweep over constant penalties c in {8, 10, 12} (seed 1,
certified) and a certified a2 run of a generated 40-agent problem
(:func:`ring_chords_config`) into a temporary directory, and prints ``<sha256>  <path>``
for each file, sorted by path.  ``wall_time_s`` is dropped from every
``summary.json`` before hashing; it is the one field that differs between
runs.  Two checkouts write the same artifacts exactly when their outputs
are equal:

    PYTHONPATH=src python scripts/artifact_digests.py > digests.txt

``--against digests.txt`` also compares the fresh listing with the saved
one, prints every changed, missing or extra path to standard error and
exits 1 on any difference:

    PYTHONPATH=src python scripts/artifact_digests.py --against digests.txt

``tests/data/artifact_digests.txt`` is the listing of the current code;
tier-1 compares a fresh one with it (``test_harness.py``).  A change that
moves an artifact on purpose rewrites it with the first command and says
which paths changed and why.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

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


def ring_chords_config(num_agents: int = 40, chords: int = 10, seed: int = 1) -> dict:
    """A certified a2 run (c = 1, 40 rounds) of a generated quadratic problem
    in the plane.  The graph is a ring plus ``chords`` random chords, with
    directed weights drawn apart in [0.5, 1.5]; agent i has
    f_i = (a_i / 2) ||x - centre_i||^2 with a_i in [0.5, 2] and centre_i in
    [-1, 1]^2, and agent 1 also the affine constraint g'x = b with a unit g.
    Its certificate is of a larger order than any shipped config's."""
    rng = np.random.default_rng(seed)
    N = num_agents
    undirected = {tuple(sorted((i, (i + 1) % N))) for i in range(N)}
    while len(undirected) < N + chords:
        undirected.add(tuple(sorted(rng.choice(N, 2, replace=False).tolist())))
    edges = []
    for i, j in sorted(undirected):
        w_ij, w_ji = rng.uniform(0.5, 1.5, 2).tolist()
        edges += [[i + 1, j + 1, w_ij], [j + 1, i + 1, w_ji]]
    agents = []
    for a, (cx, cy) in zip(rng.uniform(0.5, 2.0, N).tolist(),
                           rng.uniform(-1.0, 1.0, (N, 2)).tolist()):
        agents.append({"f": [[0.5 * a, [2, 0]], [0.5 * a, [0, 2]], [-a * cx, [1, 0]],
                             [-a * cy, [0, 1]], [0.5 * a * (cx * cx + cy * cy), [0, 0]]]})
    angle, b = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(-0.5, 0.5)
    agents[0]["h"] = [[float(np.cos(angle)), [1, 0]], [float(np.sin(angle)), [0, 1]],
                      [-float(b), [0, 0]]]
    return {
        "seed": seed,
        "problem": {"custom": {"dim": 2, "agents": agents}},
        "graph": {"num_agents": N, "symmetric_weights": False, "edges": sorted(edges)},
        "algorithm": "a2",
        "alpha": 0.1,
        "c": 1.0,
        "max_iter": 40,
        "tol": 1.0e-9,
        "init": {"mode": "oracle-perturb", "radius": 0.1},
        "certify": True,
    }


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
    harness.run_experiment(ring_chords_config(), out / "run" / "ring40_a2")


def listing(out: Path) -> list[str]:
    """One ``<sha256>  <path>`` line per file under ``out``, sorted by path."""
    return [f"{digest(path)}  {path.relative_to(out).as_posix()}"
            for path in sorted(p for p in out.rglob("*") if p.is_file())]


def compare(fresh: list[str], saved: list[str]) -> list[str]:
    """One ``changed``, ``missing`` or ``extra`` line per path on which two
    ``<sha256>  <path>`` listings differ, sorted by path; empty when they
    are equal.  A path is missing when only ``saved`` lists it."""
    old, new = ({path: sha for sha, path in (line.split("  ", 1) for line in lines if line)}
                for lines in (saved, fresh))
    diffs = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            diffs.append(f"missing  {path}")
        elif path not in old:
            diffs.append(f"extra  {path}")
        elif old[path] != new[path]:
            diffs.append(f"changed  {path}")
    return diffs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path,
                        help="a saved listing to compare with; exit 1 on any difference")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        write_artifacts(Path(tmp))
        lines = listing(Path(tmp))
    print("\n".join(lines))
    if args.against is None:
        return 0
    diffs = compare(lines, args.against.read_text().splitlines())
    for line in diffs:
        print(line, file=sys.stderr)
    print(f"{len(diffs)} paths differ from {args.against}", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

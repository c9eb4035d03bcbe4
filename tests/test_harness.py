import ast
import contextlib
import datetime
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import lifted_cone, reference_trace_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lagnet
from lagnet import analysis, cli, harness, multipliers, solvers
from lagnet.harness import (
    ConfigError,
    build_problem,
    key_paths,
    load_config,
    run_experiment,
    sweep,
    validate_config,
    write_trace_csv,
)
from lagnet.solvers import Trace


def base_config(**overrides):
    cfg = {
        "seed": 0,
        "problem": {"name": "tp-path2"},
        "algorithm": "a1",
        "alpha": 0.15,
        "max_iter": 6000,
        "tol": 1e-8,
        "init": {"mode": "oracle-perturb", "radius": 0.1},
    }
    cfg.update(overrides)
    return cfg


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def write_config(tmp_path, cfg, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_run_experiment_end_to_end(tmp_path):
    outcome = run_experiment(base_config(), tmp_path / "out")
    assert outcome.status == "converged"
    assert (tmp_path / "out" / "trace.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["final"]["err_x_max"] <= 1e-6
    header = (tmp_path / "out" / "trace.csv").read_text().splitlines()[0]
    assert header == "k,agent,err_x,err_mu,dist_lambda,kkt_stat,kkt_h,kkt_cons,objective"


def test_run_experiment_a3_trace_columns(tmp_path):
    cfg = base_config(algorithm="a3", c0=1.0, beta=2.0, c_max=16.0, tol=1e-9)
    cfg["outer"] = {"max_iter": 30}
    cfg.pop("alpha")
    outcome = run_experiment(cfg, tmp_path / "out")
    assert outcome.status == "converged"
    header = (tmp_path / "out" / "trace.csv").read_text().splitlines()[0]
    assert header.endswith("c_k,eps_k,inner_iters")


def test_missing_alpha_is_config_error(tmp_path):
    cfg = base_config()
    cfg.pop("alpha")
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg, tmp_path / "out")
    assert "alpha" in str(err.value)


def test_cli_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, base_config())
    assert cli.main(["run", "--config", str(good), "--out", str(tmp_path / "a")]) == 0
    bad_cfg = base_config()
    bad_cfg.pop("alpha")
    bad = write_config(tmp_path, bad_cfg, "bad.yaml")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "alpha" in err


def test_cli_divergent_run_exit_code(tmp_path):
    cfg = base_config(alpha=10.0, max_iter=2000)
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "d")]) == 1


def test_run_determinism_bytes(tmp_path):
    cfg = base_config(certify=True)
    run_experiment(cfg, tmp_path / "one")
    run_experiment(cfg, tmp_path / "two")
    t1 = (tmp_path / "one" / "trace.csv").read_bytes()
    t2 = (tmp_path / "two" / "trace.csv").read_bytes()
    assert t1 == t2
    c1 = (tmp_path / "one" / "certificate.json").read_bytes()
    c2 = (tmp_path / "two" / "certificate.json").read_bytes()
    assert c1 == c2
    s1 = json.loads((tmp_path / "one" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "two" / "summary.json").read_text())
    s1.pop("wall_time_s"), s2.pop("wall_time_s")  # the one volatile entry
    assert s1 == s2


def test_graph_section_one_based_and_symmetric():
    cfg = base_config()
    cfg["graph"] = {"num_agents": 2, "edges": [[1, 2, 2.5]], "symmetric_weights": True}
    bundle = build_problem(cfg)
    weights = {(i, j): w for i, j, w in bundle.problem.graph.directed_weights}
    assert weights == {(0, 1): 2.5, (1, 0): 2.5}


def test_custom_polynomial_problem(tmp_path):
    cfg = {
        "seed": 0,
        "problem": {
            "custom": {
                "dim": 1,
                "agents": [
                    {"f": [[0.5, [2]], [-1.0, [1]], [0.5, [0]]],
                     "h": [[1.0, [1]], [-0.5, [0]]]},
                    {"f": [[0.5, [2]], [1.0, [1]], [0.5, [0]]]},
                ],
            }
        },
        "graph": {"num_agents": 2, "edges": [[1, 2, 1.0]]},
        "algorithm": "a1",
        "alpha": 0.15,
        "max_iter": 6000,
        "tol": 1e-8,
        "init": {"mode": "oracle-perturb", "radius": 0.1},
    }
    outcome = run_experiment(cfg, tmp_path / "out")
    assert outcome.status == "converged"
    # identical to the built-in fixture, so the hash differs only through
    # the problem spec, not the run
    assert outcome.summary["problem"] == "custom"


def test_custom_requires_graph():
    cfg = {
        "problem": {"custom": {"dim": 1, "agents": [{"f": [[1.0, [2]]]}]}},
        "algorithm": "a1",
        "alpha": 0.1,
    }
    with pytest.raises(ConfigError) as err:
        build_problem(cfg)
    assert "graph" in str(err.value)


def test_unknown_fixture_is_config_error():
    with pytest.raises(ConfigError) as err:
        build_problem(base_config(problem={"name": "tp-unknown"}))
    assert "problem.name" in str(err.value)


def test_sweep_statuses_flip_near_boundary(tmp_path, path2):
    from lagnet import analysis

    cert = analysis.certify_step_size(path2.problem, path2.point)
    grid = [0.5 * cert.alpha_bound, 0.9 * cert.alpha_bound, 1.5 * cert.alpha_bound]
    cfg = base_config(max_iter=20000)
    rows = sweep(cfg, "alpha", grid, tmp_path / "sweep")
    statuses = [r[1] for r in rows]
    assert statuses[0] == "converged" and statuses[1] == "converged"
    assert statuses[2] == "diverged"
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "parameter,status,final_err_x,contraction,r_squared"
    assert len(lines) == 1 + len(grid)


def test_sweep_a3_contraction_non_increasing_in_c(tmp_path, path2):
    from lagnet import analysis

    cfg = {
        "seed": 0,
        "problem": {"name": "tp-path2"},
        "algorithm": "a3",
        "c0": 2.0, "beta": 2.0, "c_max": 2.0,
        "inner": {"eps0": 1e-4, "gamma": 0.15, "max_iter": 5000},
        "outer": {"max_iter": 20},
        "tol": 0.0,
        "init": {"mode": "oracle-perturb", "radius": 0.1},
    }
    grid = [2.0, 4.0, 8.0]
    rows = sweep(cfg, "c", grid, tmp_path / "csweep")
    contractions = [r[3] for r in rows]
    assert all(a >= b - 0.02 for a, b in zip(contractions, contractions[1:]))
    # the observed contractions are the predicted multiplier rates
    spectrum = analysis.mom_spectrum(path2.problem, path2.point)
    for c, observed in zip(grid, contractions):
        predicted = analysis.rate_bound_mom(spectrum, c).rate_bound
        assert observed == pytest.approx(predicted, abs=0.02)


@pytest.mark.parametrize("cfg, parameter, grid, certified", [
    (base_config(certify=True, max_iter=200), "alpha", [0.05, 0.1, 0.05],
     {"certify_step_size": 1}),
    # an a3 sweep forms one pencil, which certifies every c in closed form
    ({"seed": 0, "problem": {"name": "tp-path2"}, "algorithm": "a3", "certify": True,
      "outer": {"max_iter": 3}}, "c", [4.0, 8.0, 4.0],
     {"_pencil": 1, "rate_bound_mom": 2}),
    # an a2 certificate on a blockwise_pd problem forms no pencil
    (base_config(algorithm="a2", c=1.0, certify=True, max_iter=200), "alpha",
     [0.05, 0.1, 0.05], {"find_cbar": 1, "certify_step_size": 1}),
])
def test_sweep_solves_the_oracle_once(tmp_path, monkeypatch, cfg, parameter, grid, certified):
    from lagnet import analysis, oracle

    calls = {}
    for module, name in ((oracle, "solve_centralized"), (analysis, "find_cbar"),
                         (analysis, "certify_step_size"), (analysis, "rate_bound_mom"),
                         (analysis, "_pencil")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    sweep(cfg, parameter, grid, tmp_path / "s")
    assert calls == {"solve_centralized": 1, **certified}
    for idx, value in enumerate(grid):  # each row's certificate is that of a lone run
        row = harness._set_parameter(cfg, parameter, value)
        alone = run_experiment(row, tmp_path / f"alone{idx}").out_dir / "certificate.json"
        assert alone.read_bytes() == (tmp_path / "s" / "rows" / f"{idx:03d}" /
                                      "certificate.json").read_bytes()


def test_sweep_empty_grid_rejected(tmp_path):
    with pytest.raises(ConfigError):
        sweep(base_config(), "alpha", [], tmp_path / "s")


def test_sweep_unknown_parameter_rejected(tmp_path):
    with pytest.raises(ConfigError):
        sweep(base_config(), "beta", [1.0], tmp_path / "s")


def test_oracle_cli_report(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["oracle", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["x_star"] == pytest.approx([0.5], abs=1e-9)
    assert report["psi_star"] == pytest.approx([-1.0], abs=1e-9)
    assert report["mu_star"] == pytest.approx([-1.0], abs=1e-9)
    assert report["lambda_star"] == pytest.approx([0.75, -0.75], abs=1e-9)
    assert report["kkt_residual"] <= 1e-10
    assert report["blockwise_pd"] is True
    assert report["tangent_cone_pd"] is True


def test_certify_cli_schema(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["certify", "--config", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["matrix"] == "B"
    assert cert["verdict"] is True
    assert cert["alpha_bound"] > 0
    assert all(len(pair) == 2 for pair in cert["eigenvalues"])


def test_certify_cli_reports_blockwise_failure(tmp_path, capsys):
    cfg = base_config(problem={"name": "tp-nonconv3"})
    path = write_config(tmp_path, cfg)
    assert cli.main(["certify", "--config", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] is False
    assert "reason" in cert


def test_failed_certificate_builds_the_quotient_matrix_once(tmp_path, capsys, monkeypatch):
    from lagnet import analysis

    built = []

    def counted(*args, _fn=analysis._quotient_matrix):
        built.append(_fn(*args))
        return built[-1]

    monkeypatch.setattr(analysis, "_quotient_matrix", counted)
    path = write_config(tmp_path, base_config(problem={"name": "tp-nonconv3"}))
    assert cli.main(["certify", "--config", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] is False and len(built) == 1
    eig = np.linalg.eigvals(built[0])
    assert cert["eigenvalues"] == [[float(z.real), float(z.imag)] for z in eig]


def test_check_gradients_cli(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert cli.main(["check-gradients", "--config", str(path), "--samples", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_rel_error"] <= 1e-9


def test_sweep_cli(tmp_path):
    path = write_config(tmp_path, base_config(max_iter=3000))
    out = tmp_path / "sweepcli"
    assert cli.main([
        "sweep", "--config", str(path), "--param", "alpha",
        "--grid", "0.05,0.1", "--out", str(out),
    ]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "nope.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_explicit_init(tmp_path):
    cfg = base_config(init={"mode": "explicit", "x": [0.0, 0.0]})
    outcome = run_experiment(cfg, tmp_path / "out")
    assert outcome.status == "converged"


def test_negative_iteration_caps_exit_2(tmp_path, capsys):
    a1 = write_config(tmp_path, base_config(max_iter=-5), "a1.yaml")
    a3_cfg = base_config(algorithm="a3", outer={"max_iter": 0})
    a3_cfg.pop("alpha")
    a3 = write_config(tmp_path, a3_cfg, "a3.yaml")
    for path in (a1, a3):
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "max_iter" in capsys.readouterr().err


def test_inner_alpha_null_is_the_default(tmp_path):
    cfg = base_config(algorithm="a3", outer={"max_iter": 30})
    cfg.pop("alpha")
    run_experiment(cfg, tmp_path / "absent")
    run_experiment(dict(cfg, inner={"alpha": None}), tmp_path / "null")
    assert (tmp_path / "null" / "trace.csv").read_bytes() == (
        tmp_path / "absent" / "trace.csv"
    ).read_bytes()


# sha256 of the artifacts `lagnet run` writes for the shipped configs:
# trace.csv of a1, a3 with its outer columns, and a3 with the Hessian-sized
# inner step; summary.json hashed by artifact_digests.digest (without
# wall_time_s); and certificate.json of the three configs that set
# `certify: true`.  Pins the CSV format, the iterates, the run summary and
# the certificates across code changes, which repeated runs of one build
# (criterion 12) cannot.
TRACE_SHA256 = {
    "path2_a1": "2e2cd688ca4a558a7723f72a0cf873d0e7970fdd655f03182e9fc4cf9c7a3ec1",
    "path2_a3": "309ae2b8773e96c30195f6c37133ed6f3c8ca22a54c6dcbdb7b382328472ef2f",
    "custom_quadratic": "b26e9ffa568d7616d7e7888ab8a03b15f739163d8f248a1ba9e12999b619102d",
    "nonconv3_a2": "819713a3ed05e965ab647018794a417b18e4600fb18acfcaab91b7fccc8344cb",
}
SUMMARY_SHA256 = {
    "path2_a1": "747c7862eb385c4a16218d95c9aa8f39bcb02fcab3d1851f351117c08f69cae0",
    "path2_a3": "53122f4c1c56a3bba7458f4aeb866bdc91bbd93f475170e95c0dd2b66469396a",
    "custom_quadratic": "8386603075407a78e4a5299f159dcf7f17223ba34f2f4676a9a28c5c4cca7b57",
    "nonconv3_a2": "4f87b306a4e900fbd6f5c12a2b7763235129280e7d347dbb405f923bad51c80b",
}
CERTIFICATE_SHA256 = {
    "path2_a1": "a1b1568b679c7f84d6fdbb491cb511a733c54f0c7af2306a939130b1071874fc",
    "path2_a3": "64be058c6b46e8a899341da9dbd4b48413837a1b08794b6f4ec87fd0ae064568",
    "nonconv3_a2": "5dbd564cb9e7d0f1780e59010fbdff7972298fe665cdd9882ce037305e369e1c",
}


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_shipped_config_trace_digest(tmp_path, name):
    run_experiment(load_config(CONFIGS / f"{name}.yaml"), tmp_path)
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == TRACE_SHA256[name]
    assert artifact_digests.digest(tmp_path / "summary.json") == SUMMARY_SHA256[name]
    certificate = tmp_path / "certificate.json"
    assert certificate.exists() == (name in CERTIFICATE_SHA256)
    if name in CERTIFICATE_SHA256:
        assert artifact_digests.digest(certificate) == CERTIFICATE_SHA256[name]


# sha256 of the stdout of `lagnet certify` and `lagnet oracle` on the shipped
# configs.  A certificate's stdout is its certificate.json, so only
# custom_quadratic's, which no run writes (it sets no `certify: true`), is new
CERTIFY_STDOUT_SHA256 = {
    **CERTIFICATE_SHA256,
    "custom_quadratic": "11d3c6b37554d3fc7b322193f5e35f4c60185614b6d25c30b05ab636d50c4c81",
}
ORACLE_STDOUT_SHA256 = {
    "path2_a1": "d48afb6bda24110b9f3e6f02a1afffbbb19d562aac487a703b417d5c29f66dce",
    "path2_a3": "d48afb6bda24110b9f3e6f02a1afffbbb19d562aac487a703b417d5c29f66dce",
    "custom_quadratic": "64dcad9cb95e34734283c7421a61a4e9e9554fa7969ce1e81779168c4fc43f30",
    "nonconv3_a2": "be75ab42525966ec66be675feab3e122b6529d6e052cb60a164e804360fbb16a",
}


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_shipped_config_certify_and_oracle_stdout_digests(capsys, name):
    for command, pinned in (("certify", CERTIFY_STDOUT_SHA256),
                            ("oracle", ORACLE_STDOUT_SHA256)):
        assert cli.main([command, "--config", str(CONFIGS / f"{name}.yaml")]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pinned[name]


_spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# the exact work of each shipped config, counted by the code that writes
# table_work and row_work into BENCH_*.json: the powers and terms of a stacked
# and of a Hessian table pass, then the two-stage row program's gathers and
# the inputs of its two bincounts, and the numpy calls of one round or
# descent, table pass included (nonconv3_a2: an a2 round on tp-nonconv3); a
# change that moves one says why.  An a3 descent runs the program of an a2
# round at its c, so path2_a3 and custom_quadratic (a3) gather and scatter
# as that round does
WORK = {
    "custom_quadratic": ((6, 23), (0, 6), [73, 46], [49, 22], 14),
    "nonconv3_a2": ((10, 23), (2, 8), [73, 46], [49, 22], 14),
    "path2_a1": ((2, 13), (0, 2), [23, 12], [19, 5], 14),
    "path2_a3": ((2, 13), (0, 2), [27, 18], [21, 8], 14),
}


@pytest.mark.parametrize("name", sorted(WORK))
def test_shipped_config_work_counts(name):
    table = bench_record.table_work(CONFIGS / f"{name}.yaml")
    row = bench_record.row_work(CONFIGS / f"{name}.yaml")
    assert ((table["powers"], table["terms"]), (table["hessian_powers"], table["hessian_terms"]),
            row["gather"], row["scatter_inputs"], row["calls"]) == WORK[name]


def test_a2_run_records_one_block_of_rounds_per_call():
    # the trace records of the benchmark's a2 run, counted by the code that
    # writes round_us into BENCH_*.json: one per block of 128 rounds, the
    # 3,282 rows kept and the rounds run ahead in the last block
    assert bench_record.record_calls(CONFIGS / "nonconv3_a2.yaml") == 26 == -(-3_282 // 128)


def test_numpy_calls_counts_functions_methods_and_operators_not_slices():
    holder = types.SimpleNamespace(a=np.arange(6.0), rows=[np.ones(3), np.zeros(3)])

    def step():
        b = holder.a[1:4] * 2.0  # an operator; the slice is no call
        np.add(b, holder.rows[0], out=holder.rows[1])  # a ufunc
        c = np.bincount([0, 1, 1], holder.rows[1]).take([1])  # a function, a method
        holder.rows[1][:] = -c  # an operator, and an assignment, which copies
        holder.a[...] = holder.a[::-1]  # an assignment; the slice is no call

    assert bench_record.numpy_calls(step, holder) == 7
    assert holder.rows[1].tolist() == [-12.0] * 3


def test_numpy_calls_of_an_a3_descent_on_nonconv3():
    # the descent of the benchmark's a3 sweep at c = 8, table pass included
    row = bench_record.row_work(NONCONV3_A3)
    assert (row["program"], row["c"], row["calls"]) == ("descent", 8.0, 14)


@pytest.mark.parametrize("config", ["nonconv3_a2", "nonconv3_a3"])
def test_no_ufunc_call_of_a_constant_step_round_or_descent_takes_a_python_float(monkeypatch,
                                                                                 config):
    # numpy converts a Python float operand on every ufunc call: a constant
    # step reaches the kernel as a 0-d float64 array, from run_first_order (an
    # a2 round) and from inner_minimize (an a3 descent at c = 8, its default
    # step), and no ufunc call of the 14 of one row takes a float operand
    raw, descent, c = bench_record.row_program(NONCONV3_A3 if config == "nonconv3_a3"
                                               else CONFIGS / f"{config}.yaml")
    cfg = validate_config(raw)
    bundle, _, init = harness._prepare(cfg)
    p, passed, advance = bundle.problem, [], solvers.ArrayExecutor.advance

    def spy(self, blk, count, steps, *rest):
        passed.extend(steps)
        return advance(self, blk, count, steps, *rest)

    monkeypatch.setattr(solvers.ArrayExecutor, "advance", spy)
    with np.errstate(over="ignore", invalid="ignore"):
        if descent:
            multipliers.inner_minimize(p, init.x, init.mu, init.lam, c,
                                       multipliers.MoMConfig(init=init, inner_max_iter=3), 0.0)
        else:
            solvers.run_first_order(p, solvers.FirstOrderConfig(
                algorithm="a2", alpha=cfg["alpha"], c=c, init=init, max_iter=3, tol=0.0))
    monkeypatch.undo()
    assert len(passed) == 3
    assert all(type(a) is np.ndarray and a.shape == () and a.dtype == float for a in passed)
    executor, blk = solvers.ArrayExecutor(p), solvers.StateBlock(p, 2)
    blk.put(0, init)
    step = lambda: executor.advance(blk, 1, passed[:1], c, descent)
    step()  # builds the program
    log = bench_record.numpy_call_log(step, executor, blk, executor.programs[c])
    assert len(log) == 14
    ufuncs = [args for f, args in log if isinstance(getattr(f, "__self__", f), np.ufunc)]
    assert len(ufuncs) == 7 and not [args for args in ufuncs if float in map(type, args)]


# the tp-nonconv3 a3 run and c sweep that scripts/artifact_digests.py also
# hashes: pins the inner gradient loop, whose rounds keep mu_k and lam_k
# fixed, and the sweep.csv format
_spec = importlib.util.spec_from_file_location("artifact_digests",
                                               SCRIPTS / "artifact_digests.py")
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)
NONCONV3_A3 = artifact_digests.NONCONV3_A3
NONCONV3_A3_TRACE_SHA256 = "b11d6285997ccb62f14b12ff7a755d8e61e467c79178f9a5388bb19ffd195676"
NONCONV3_A3_SWEEP_SHA256 = {
    "sweep.csv": "36bf40bbbcc3bca0e25848e462800fb491e49f45be43ff06e892277ef9ea81f3",
    "rows/000/trace.csv": NONCONV3_A3_TRACE_SHA256,
    "rows/001/trace.csv": "aa314f45f61b031911dfcbad8053208bfa3a8597f6ff215d0e8019b0f834b42e",
    "rows/002/trace.csv": "1bd9ebd1e0048e9a002dac9bc1ad673ad5f56b17598c83464c5f81561d276277",
}


# certificate.json of the generated 40-agent ring-plus-chords a2 run that
# scripts/artifact_digests.py also hashes: a quotient matrix of order 159,
# larger than any shipped config's
RING40_CERTIFICATE_SHA256 = "4a6a81a47ed9bea695da570f77eb37e0e148d4dd09415f240f1804d1fd66e568"


def test_ring40_certificate_digest(tmp_path):
    run_experiment(artifact_digests.ring_chords_config(), tmp_path)
    assert artifact_digests.digest(tmp_path / "certificate.json") == RING40_CERTIFICATE_SHA256


def test_nonconv3_a3_trace_digest(tmp_path):
    run_experiment(NONCONV3_A3, tmp_path)
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == NONCONV3_A3_TRACE_SHA256


def test_artifacts_match_the_checked_in_digests(tmp_path):
    # byte identity of every artifact scripts/artifact_digests.py hashes (the
    # shipped runs, the sweeps and the ring run) against the listing checked
    # in with the code; a change that moves one rewrites the listing
    artifact_digests.write_artifacts(tmp_path)
    saved = (Path(__file__).parent / "data" / "artifact_digests.txt").read_text().splitlines()
    assert len(saved) == 34
    assert artifact_digests.compare(artifact_digests.listing(tmp_path), saved) == []


def counted_kernel_runs(monkeypatch) -> list[int]:
    """A one-item list that counts the rows the array kernel runs
    (``ArrayExecutor.advance``, one call per block: rounds and descents,
    those run ahead past a stop included)."""
    from lagnet.solvers import ArrayExecutor

    runs, kernel = [0], ArrayExecutor.advance

    def counted_kernel(executor, blk, count, *args):
        runs[0] += count
        return kernel(executor, blk, count, *args)

    monkeypatch.setattr(ArrayExecutor, "advance", counted_kernel)
    return runs


def test_nonconv3_a3_sweep_work(tmp_path, monkeypatch):
    # the benchmark's a3 sweep: its inner solves, the kernel runs of their
    # descents (those run ahead past a stop included) and the descents the
    # solves return as their iteration counts
    from lagnet import multipliers

    solves, solve = [], multipliers.inner_minimize

    def counted_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        solves.append(out[1])
        return out

    monkeypatch.setattr(multipliers, "inner_minimize", counted_solve)
    kernel_runs = counted_kernel_runs(monkeypatch)
    sweep(NONCONV3_A3, "c", artifact_digests.NONCONV3_A3_C, tmp_path)
    assert (len(solves), kernel_runs[0], sum(solves)) == (78, 20_896, 19_564)


@pytest.mark.parametrize("name, work", [("nonconv3_a2", (3_328, 3_281, 1_559_628)),
                                        ("ring40_a2", (40, 40, 239_845))])
def test_first_order_work(name, work, tmp_path, monkeypatch):
    # the a2 runs the benchmark and scripts/artifact_digests.py make: the
    # rounds run (those run ahead past the stop included), the rounds kept
    # (summary.json's iterations) and the bytes of trace.csv
    kernel_runs = counted_kernel_runs(monkeypatch)
    cfg = (artifact_digests.ring_chords_config() if name == "ring40_a2"
           else load_config(CONFIGS / f"{name}.yaml"))
    run_experiment(cfg, tmp_path)
    kept = json.loads((tmp_path / "summary.json").read_text())["iterations"]
    assert (kernel_runs[0], kept, (tmp_path / "trace.csv").stat().st_size) == work


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("N", [4, 6])
def test_a2_contracts_as_its_certificate_predicts(N, seed):
    # the a2 convergence theorem on generated quadratic meshes at c = 1: below
    # alpha_bound the joint error (the sweep's) contracts by max|1 - alpha
    # eig| of the certified spectrum, and at 1.05 times the bound the run
    # diverges
    cfg = validate_config(artifact_digests.ring_chords_config(N, max(1, N // 4), seed))
    bundle, point, init = harness._prepare(cfg)
    p = bundle.problem
    cert = analysis.certify_step_size(p, point, c=1.0)
    for factor in (0.5, 0.9, 1.05):
        alpha = factor * cert.alpha_bound
        run = solvers.FirstOrderConfig("a2", alpha, init, c=1.0, max_iter=20_000, tol=1e-12)
        result = solvers.run_first_order(p, run, reference=point)
        if factor > 1:
            assert result.status == "diverged"
            continue
        assert result.status == "converged"
        trace = result.trace
        joint = np.sqrt(np.sum(trace.err_x**2, axis=1) + trace.err_mu**2 + trace.dist_lambda**2)
        predicted = np.max(np.abs(1.0 - alpha * cert.eigenvalues))
        assert analysis.estimate_linear_rate(joint).contraction == pytest.approx(predicted, abs=1e-4)


def test_nonconv3_a3_sweep_digests(tmp_path):
    sweep(NONCONV3_A3, "c", artifact_digests.NONCONV3_A3_C, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in NONCONV3_A3_SWEEP_SHA256}
    assert digests == NONCONV3_A3_SWEEP_SHA256


def test_certify_fixtures_script_prints_every_fixture(capsys):
    spec = importlib.util.spec_from_file_location("certify_fixtures",
                                                  SCRIPTS / "certify_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    blocks = dict(block.split(":", 1) for block in capsys.readouterr().out.split("== ")[1:])
    assert list(blocks) == list(lagnet.fixtures.FIXTURES)
    assert "   a1: alpha_bound = 0.219224\n" in blocks["tp-path2"]
    nonconv3 = blocks["tp-nonconv3"]
    assert "   c_bar = 3.702562\n" in nonconv3
    assert "   a1: not certifiable (restricted iteration matrix has min Re eig" in nonconv3
    assert "   a3 rate bound (c =  8.0): 0.86157\n" in nonconv3
    assert "   a3 rate bound (c =  4.0): 12.44820  [inadmissible]\n" in nonconv3


def test_digest_listing_comparison_names_every_difference():
    saved = ["a" * 64 + "  run/x/trace.csv", "b" * 64 + "  run/x/summary.json",
             "c" * 64 + "  run/y/trace.csv", ""]
    assert artifact_digests.compare(saved, saved) == []
    fresh = ["a" * 64 + "  run/x/trace.csv", "d" * 64 + "  run/x/summary.json",
             "e" * 64 + "  run/z/trace.csv"]
    assert artifact_digests.compare(fresh, saved) == [
        "changed  run/x/summary.json", "missing  run/y/trace.csv", "extra  run/z/trace.csv"]
    assert artifact_digests.compare([], saved[:1]) == ["missing  run/x/trace.csv"]


def test_diverging_run_raises_no_floating_point_warning(tmp_path, capsys):
    # the huge edge weight overflows the KKT norms after one round
    cfg = base_config(graph={"num_agents": 2, "edges": [[1, 2, 1.0e150]]}, alpha=0.1)
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads((tmp_path / "o" / "summary.json").read_text())["status"] == "diverged"
    assert "Warning" not in capsys.readouterr().err


def test_a3_overflow_between_inner_solves_raises_no_floating_point_warning(tmp_path, capsys):
    # one inner descent of step 1e100 leaves a finite x_k whose evaluation
    # overflows: the outer loop's KKT row and ascent see inf before the next
    # inner solve stops the run
    cfg = {"problem": {"name": "tp-nonconv3"}, "algorithm": "a3", "c0": 8, "c_max": 16,
           "inner": {"schedule": {"a": 1.0e100, "b": 1.0}, "max_iter": 1},
           "outer": {"max_iter": 3}}
    path, out = write_config(tmp_path, cfg), tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert code == 1
    assert json.loads((out / "summary.json").read_text())["status"] == "diverged"
    assert (out / "trace.csv").exists()
    assert "Warning" not in capsys.readouterr().err


# sha256 of trace.csv and of summary.json (artifact_digests.digest, without
# wall_time_s) of three diverging runs: the edge-weight overflow above, whose
# KKT rows hold inf, an a2 step-size divergence on tp-nonconv3 stopped by
# the iterate norm, and an a3 run on tp-nonconv3 whose inner step, stable
# at c = 2 and 4, makes the inner descent at c = 8 non-finite.  Pins the
# rows a diverging run writes, which no converging run reaches.
DIVERGING_RUNS = {
    "edge-overflow": (
        base_config(graph={"num_agents": 2, "edges": [[1, 2, 1.0e150]]}, alpha=0.1),
        "15ee1b20f4f4fa9cb6b4a37672424f50818850418147e7e1cc886ae03d3ab064",
        "6c1f5ebdeaeaf879528d5ea0498d0b7969cc8000d76829cd50cb4c4e987e4e91",
    ),
    "nonconv3-a2-step": (
        {"seed": 1, "problem": {"name": "tp-nonconv3"}, "algorithm": "a2", "alpha": 0.5,
         "c": 40.0, "max_iter": 200, "tol": 1e-9,
         "init": {"mode": "oracle-perturb", "radius": 0.1}},
        "4611ccccce60544d0518cd051931bb23c13d8e66c35bb0d6c52cbc5ad51bb003",
        "07fbd12032802b1e487df1071c8a41cb90478757cb66536962edb3782a5a6b55",
    ),
    "nonconv3-a3-inner-step": (
        {**NONCONV3_A3, "c0": 2.0, "c_max": 64.0,
         "inner": {"alpha": 0.03, "eps0": 1.0e-2, "gamma": 0.5, "max_iter": 20000}},
        "cc643f2d314475224d684cb58b1e34f76dc8ae0453c3b545e972b2547197bf2c",
        "fa7dab7da5250ea119e9f19fe53834d19ee6295e1dd60a820c3edc14896526db",
    ),
}


@pytest.mark.parametrize("name", sorted(DIVERGING_RUNS))
def test_diverging_run_digests(tmp_path, name):
    cfg, trace_sha256, summary_sha256 = DIVERGING_RUNS[name]
    assert run_experiment(cfg, tmp_path).status == "diverged"
    assert artifact_digests.digest(tmp_path / "trace.csv") == trace_sha256
    assert artifact_digests.digest(tmp_path / "summary.json") == summary_sha256


# trace.csv and summary.json sha256 of tp-nonconv3 under a3 with every
# inner solve stopped at inner.max_iter = 5: pins the rows of inner solves
# that end unconverged
A3_INNER_CAP_SHA256 = (
    "af475f8d9c49a6415fd9e3a141540e1712b42ccb994a414a003fe13629e87205",
    "5392a172fa15fd35dacc718aafa221e2b339ae098209a632cf81236b278c2afa",
)


def test_a3_inner_cap_digests(tmp_path):
    cfg = {**NONCONV3_A3, "inner": {"eps0": 1.0e-2, "gamma": 0.5, "max_iter": 5},
           "outer": {"max_iter": 8}}
    outcome = run_experiment(cfg, tmp_path)
    assert outcome.status == "iteration-cap"
    assert outcome.trace.inner_iters.tolist() == [5] * 8
    assert (artifact_digests.digest(tmp_path / "trace.csv"),
            artifact_digests.digest(tmp_path / "summary.json")) == A3_INNER_CAP_SHA256


CUSTOM_PATH2 = {
    "custom": {
        "dim": 1,
        "agents": [{"f": [[0.5, [2]], [1.0]]}, {"f": [[0.5, [2]]]}],
    }
}


def a3_config(**overrides):
    cfg = base_config(algorithm="a3", **overrides)
    cfg.pop("alpha")
    return cfg


def custom_term(term):
    """A custom problem on one edge whose second agent's f is the one ``term``."""
    return base_config(problem={"custom": {"dim": 1, "agents": [{"f": [[0.5, [2]]]},
                                                                {"f": [term]}]}},
                       graph={"num_agents": 2, "edges": [[1, 2, 1.0]]})


# One bad input per row: each must exit 2 naming the key, before any
# output directory exists.
BAD_INPUTS = [
    (base_config(init="zeros"), "init"),
    (base_config(init={"mode": "explicit", "x": [1, 2, 3]}), "init.x"),
    (base_config(seed=-1), "seed"),
    (base_config(init={"mode": "oracle-perturb", "radius": -0.5}), "init.radius"),
    (base_config(problem=CUSTOM_PATH2, graph={"num_agents": 2, "edges": [[1, 2, 1.0]]}),
     "problem.custom.agents[0]"),
    (base_config(graph={"num_agents": 2, "edges": [[1, "a", 1.0]]}), "graph.edges[0]"),
    (base_config(graph={"num_agents": 2, "edges": [[1, 2, 10**400]]}), "graph.edges[0]"),
    (base_config(graph={"num_agents": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]]}), "graph"),
    (a3_config(inner={"schedule": {"a": 1, "b": 0}}), "inner.schedule.b"),
    (a3_config(inner={"alpha": -0.5}), "inner.alpha"),
    (base_config(problem={"name": "tp-path2", **CUSTOM_PATH2}), "problem"),
    (base_config(max_iters=3), "max_iters"),
    (base_config(alpha=-1), "alpha"),
    (a3_config(outer={"max_iter": 0}), "outer.max_iter"),
    (a3_config(inner={"max_iter": 0}), "inner.max_iter"),
    (base_config(problem={"custom": {**CUSTOM_PATH2["custom"], "dim": 0}},
                 graph={"num_agents": 2, "edges": [[1, 2, 1.0]]}), "problem.custom.dim"),
    (base_config(c=2), "c"),
    (base_config(graph={"num_agents": 2, "edges": [[1, 2, 1.0e+200]]}), "graph.edges"),
    (base_config(graph={"num_agents": 0, "edges": []}), "graph.num_agents"),
    # an exponent is an int and a coefficient a finite int or float; a bool is neither
    (custom_term([1.0, [2.7]]), "problem.custom.agents[1]"),
    (custom_term([1.0, [True]]), "problem.custom.agents[1]"),
    (custom_term([1.0, ["3"]]), "problem.custom.agents[1]"),
    (custom_term([True, [2]]), "problem.custom.agents[1]"),
    (custom_term(["1.5", [2]]), "problem.custom.agents[1]"),
    (custom_term([float("nan"), [2]]), "problem.custom.agents[1]"),
    # NaN fails every comparison, so each range check asks for the good side
    (a3_config(c_max=float("nan")), "c_max"),
    (base_config(tol=float("nan")), "tol"),
    (a3_config(tol=float("nan")), "tol"),
    # an explicit init entry is a finite int or float, as a coefficient is
    (base_config(init={"mode": "explicit", "x": [[0.3], [0.1]], "lam": [["0.3"], [1.0]]}),
     "init.lam"),
    (base_config(init={"mode": "explicit", "x": [[0.3], [0.1]], "mu": [True]}), "init.mu"),
    (base_config(init={"mode": "explicit", "x": [[0.3], [0.1]], "mu": [float("nan")]}),
     "init.mu"),
    # an int is finite when it is at most the largest float, compared exactly
    (base_config(init={"mode": "explicit", "x": [[0.3], [0.1]], "mu": [2 * 10**308]}),
     "init.mu"),
    (base_config(graph={"num_agents": 2, "edges": [[1, 2, 2 * 10**308]]}), "graph.edges[0]"),
]


@pytest.mark.parametrize("cfg, key", BAD_INPUTS, ids=[key for _, key in BAD_INPUTS])
def test_bad_input_exits_2_naming_its_key(tmp_path, capsys, cfg, key):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_a_finite_number_above_1e308_is_a_number(tmp_path, capsys):
    # YAML reads 1.5e+308 as a float (1.5e308, without the sign, as a string)
    start = base_config(init={"mode": "explicit", "x": [[1.5e308], [0.0]]})
    edge = base_config(graph={"num_agents": 2, "edges": [[1, 2, 1.5e308]]})
    term = custom_term([1.5e308, [2]])
    for cfg, code, err in ((start, 1, ""), (edge, 2, "config key 'graph.edges': s_01^2 + s_10^2 "
                                                      "overflows")):
        path = write_config(tmp_path, cfg)
        assert "1.5e+308" in path.read_text()
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == code
        assert err in capsys.readouterr().err
    path = write_config(tmp_path, term)
    assert "1.5e+308" in path.read_text()
    assert build_problem(load_config(path)).problem.agents[1].f_terms == ((1.5e308, (2,)),)


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    undecodable = tmp_path / "latin.yaml"
    undecodable.write_bytes(b"seed: 1\nalgorithm: \xff\xfe a1\n")
    for path in (tmp_path / "missing.yaml", undecodable):
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config key '<file>'" in capsys.readouterr().err


A3_HEADER = "k,agent,err_x,err_mu,dist_lambda,kkt_stat,kkt_h,kkt_cons,objective,c_k,eps_k,inner_iters"


def test_a3_inner_divergence_is_a_status(tmp_path):
    # tp-nonconv3 at the default c0 = 1 is below c_bar ~ 3.7: the first
    # inner solve diverges
    cfg = {"seed": 1, "problem": {"name": "tp-nonconv3"}, "algorithm": "a3"}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["status"], summary["iterations"], summary["final"]) == ("diverged", 0, None)
    assert (out / "trace.csv").read_text().splitlines() == [A3_HEADER]
    rows = sweep(cfg, "c", [1.0], tmp_path / "sweep")
    assert rows[0][1] == "diverged" and np.isnan(rows[0][2])


@pytest.mark.parametrize("flag, argv", [
    ("--grid", ["sweep", "--param", "alpha", "--grid", "0.1,x", "--out", "s"]),
    ("--samples", ["check-gradients", "--samples", "0"]),
])
def test_bad_cli_flag_exits_2_naming_it(tmp_path, capsys, flag, argv):
    path = write_config(tmp_path, base_config())
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + ["--config", str(path)] + argv[1:])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, out", [
    ("run", "afile"), ("run", "afile/sub"), ("sweep", "afile"),
    ("certify", "missing/dir/x.json"), ("certify", "."),
])
def test_unusable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, out):
    (tmp_path / "afile").touch()

    def refuse(path):
        raise AssertionError("the config was read before --out was checked")

    monkeypatch.setattr(harness, "load_config", refuse)
    grid = ["--param", "alpha", "--grid", "0.1"] if command == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", "unused.yaml", "--out", str(tmp_path / out)] + grid)
    assert exc.value.code == 2
    assert "argument --out" in capsys.readouterr().err
    assert [q.name for q in tmp_path.iterdir()] == ["afile"]


@pytest.mark.parametrize("param, grid, key", [
    ("alpha", "-1", "alpha"), ("alpha", "0.1,-1", "alpha"), ("c", "0,1", "c"),
])
def test_sweep_checks_every_grid_value_before_any_row(tmp_path, capsys, param, grid, key):
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(CONFIGS / "path2_a1.yaml"), "--param", param,
            "--grid", grid, "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_a_yaml_date_in_a_term_list_exits_2_under_run_and_sweep(tmp_path, capsys):
    # YAML reads 2020-01-01 as a date; a sweep copies its rows without
    # serializing them, so it reports the date as run does
    path = write_config(tmp_path, custom_term([datetime.date(2020, 1, 1), [2]]))
    assert "2020-01-01" in path.read_text()
    for command, grid in (("run", []), ("sweep", ["--param", "alpha", "--grid", "0.1"])):
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(path), "--out", str(out)] + grid) == 2
        assert ("config key 'problem.custom.agents[1]': coefficient datetime.date(2020, 1, 1) "
                "is not a finite number") in capsys.readouterr().err
        assert not out.exists()


def test_a_disconnected_custom_graph_exits_2_naming_the_graph(tmp_path, capsys):
    # the rank test of S names the graph under problem.custom as it does
    # under a fixture
    cfg = base_config(problem={"custom": {"dim": 1, "agents": [{"f": [[0.5, [2]]]}
                                                               for _ in range(3)]}},
                      graph={"num_agents": 3, "edges": [[1, 2, 1.0]]})
    path, out = write_config(tmp_path, cfg), tmp_path / "o"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert ("config key 'graph': communication graph must be connected: rank S = 1, "
            "not N - 1 = 2") in capsys.readouterr().err
    assert not out.exists()


def test_a_huge_gradient_raises_no_floating_point_warning(tmp_path, capsys):
    # f = 1e200 x^2 on agent 0: the oracle's residual norm from a perturbed
    # start overflows, and a plain norm of the gradient check would too
    agents = [{"f": [[1.0e200, [2]]]}, {"f": [[1.0, [2]]]}]
    cfg = base_config(problem={"custom": {"dim": 1, "agents": agents}},
                      graph={"num_agents": 2, "edges": [[1, 2, 1.0]]}, certify=True)
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command, code in (("run", 1), ("certify", 0), ("oracle", 0),
                              ("check-gradients", 0)):
            out = ["--out", str(tmp_path / "o")] if command == "run" else []
            assert cli.main([command, "--config", str(path)] + out) == code
            captured = capsys.readouterr()
            assert "Warning" not in captured.err
    assert json.loads(captured.out)["max_rel_error"] <= 1e-8  # nan with a plain norm


# alpha is read only by a1 and a2, c_max only by a3: a sweep over the other
# would write rows that are all the same run
@pytest.mark.parametrize("config, param", [
    ("path2_a3", "alpha"), ("path2_a1", "c_max"), ("nonconv3_a2", "c_max"),
])
def test_sweep_over_a_parameter_the_algorithm_never_reads_exits_2(tmp_path, capsys,
                                                                   monkeypatch, config, param):
    def refuse(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(harness, "_sweep_row", refuse)
    cfg, out = load_config(CONFIGS / f"{config}.yaml"), tmp_path / "o"
    argv = ["sweep", "--config", str(CONFIGS / f"{config}.yaml"), "--param", param,
            "--grid", "0.1,0.2", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"config key 'sweep': {cfg['algorithm']} never reads {param}" in err
    assert not out.exists()
    with pytest.raises(ConfigError) as exc:
        sweep(cfg, param, [0.1, 0.2], tmp_path / "s")
    assert exc.value.path == "sweep"


def test_shipped_configs_and_readme_match_the_key_table():
    for path in sorted(CONFIGS.glob("*.yaml")):
        validate_config(load_config(path))
    readme = (CONFIGS.parent / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        validate_config(yaml.safe_load(block))


KEY_PATHS = {path for path, _ in key_paths()}
UNKNOWN_PATHS = ["max_iters", "inner.foo", "graph.weights", "init.seed", "outer.tol"]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(),
    st.sampled_from(["", "a2", "a3", "zeros", "explicit", "tp-nonconv3"]), st.text(max_size=4),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "x", "mode", "name"]), SCALARS, max_size=2),
)


def set_path(cfg, path, value):
    *parents, leaf = path.split(".")
    node = cfg
    for part in parents:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[leaf] = value


@settings(max_examples=250)
@given(path=st.sampled_from(sorted(KEY_PATHS) + UNKNOWN_PATHS), value=VALUES)
@example(path="seed", value=-1)
@example(path="init.radius", value=float("inf"))
@example(path="max_iters", value=3)
def test_any_value_at_any_key_ends_in_an_exit_code(path, value):
    cfg = base_config(max_iter=50)
    set_path(cfg, path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), cfg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    if path not in KEY_PATHS:
        assert code == 2
    if code == 2:
        named = re.search(r"config key '([^']*)'", err.getvalue()).group(1)
        named = re.sub(r"\[\d+\]", "", named)
        assert named in KEY_PATHS | {"<file>"} or (named + ".").startswith(path + ".")


# --- trace.csv writer -------------------------------------------------------------

# every field the reference writes specially: -0.0, nan, infinities,
# subnormals, and the float extremes
SPECIAL_FIELDS = [-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                  1.7976931348623157e308]
FIELDS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FIELDS))


def make_trace(rows, agents, fields, a3=False, c=None, inner_iters=None) -> Trace:
    values = iter(fields)

    def column(*shape):
        return np.array([next(values) for _ in range(math.prod(shape))], dtype=float).reshape(shape)

    outer = {}
    if a3:
        outer = dict(c=column(rows) if c is None else np.asarray(c), eps=column(rows),
                     inner_iters=np.asarray(inner_iters, dtype=int))
    return Trace(k=np.arange(rows), err_x=column(rows, agents), err_mu=column(rows),
                 dist_lambda=column(rows), kkt=column(rows, 3), objective=column(rows),
                 **outer)


@st.composite
def traces(draw):
    rows, agents, a3 = draw(st.integers(0, 6)), draw(st.integers(1, 4)), draw(st.booleans())
    size = rows * (agents + 6 + 2 * a3)
    fields = draw(st.lists(FIELDS, min_size=size, max_size=size))
    c = inner_iters = None
    if a3:
        inner_iters = draw(st.lists(st.integers(0, 10**9), min_size=rows, max_size=rows))
        if draw(st.booleans()):  # an integer penalty column stays integer
            c = np.array(draw(st.lists(st.integers(1, 64), min_size=rows, max_size=rows)),
                         dtype=int)
    return make_trace(rows, agents, fields, a3, c, inner_iters)


def chunk_fields(size) -> list:
    """``size`` trace fields: normal draws with every seventh a special field."""
    fields = np.random.default_rng(size).standard_normal(size).tolist()
    for i in range(0, size, 7):
        fields[i] = SPECIAL_FIELDS[i // 7 % len(SPECIAL_FIELDS)]
    return fields


# the writer formats and writes CHUNK_ROWS rows (CHUNK_LINES lines) at a time
# for 3 agents; the chunked examples below span chunk boundaries at any budget
CHUNK_LINES = harness.TRACE_CHUNK_LINES
CHUNK_ROWS = CHUNK_LINES // 3
WIDE = CHUNK_LINES // 3 + 1  # agents: two rows a chunk, and CHUNK_LINES % WIDE > 0


@settings(max_examples=300)
@given(trace=traces())
@example(trace=make_trace(0, 3, []))
@example(trace=make_trace(0, 3, [], a3=True, inner_iters=[]))
@example(trace=make_trace(2, 1, SPECIAL_FIELDS + [-0.0] * 6 + [0.5, 2.0, 1e-2, 5e-3],
                          a3=True, inner_iters=[7, 0]))
@example(trace=make_trace(2 * CHUNK_ROWS + 7, 3, chunk_fields((2 * CHUNK_ROWS + 7) * 9)))
@example(trace=make_trace(5, WIDE, chunk_fields(5 * (WIDE + 6))))
@example(trace=make_trace(3, CHUNK_LINES + 1, chunk_fields(3 * (CHUNK_LINES + 7))))
@example(trace=make_trace(CHUNK_LINES // 2 + 3, 2, chunk_fields((CHUNK_LINES // 2 + 3) * 9),
                          a3=True, c=np.arange(CHUNK_LINES // 2 + 3) % 5 + 8,
                          inner_iters=np.arange(CHUNK_LINES // 2 + 3) * 37))
def test_trace_writer_matches_row_reference(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == reference_trace_csv(trace)


def test_trace_writer_memory_does_not_grow_with_the_run(tmp_path):
    # a writer that builds the whole file peaks near five times the file
    # (10.6 MB at 5,000 rows, 42.7 MB at 20,000); a chunked one near 0.6 MB
    path = tmp_path / "trace.csv"
    short, long = (bench_record.writer_peak(bench_record.synthetic_trace(rows), path)
                   for rows in (5_000, 20_000))
    assert long <= 1.1 * short


# --- one agent, no edges ------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["a1", "a2", "a3"])
def test_single_agent_run_writes_every_artifact(tmp_path, capsys, algorithm):
    cfg = {
        "seed": 0,
        "problem": {"custom": {"dim": 1, "agents": [{"f": [[0.5, [2]], [-1.0, [1]]]}]}},
        "graph": {"num_agents": 1, "edges": []},
        "algorithm": algorithm,
        "tol": 1e-9,
        "certify": True,
    }
    if algorithm == "a1":
        cfg.update(alpha=0.5, max_iter=200)
    elif algorithm == "a2":
        cfg.update(alpha=0.5, c=1.0, max_iter=200)
    else:
        cfg.update(c0=1.0, beta=2.0, c_max=4.0, outer={"max_iter": 30})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["status"] == "converged"
    assert json.loads((out / "certificate.json").read_text())["verdict"] is True
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) >= 2
    assert all(line.split(",")[4] == "0.0" for line in lines[1:])  # dist_lambda


# --- failed hypotheses -------------------------------------------------------------

QUARTIC_PAIR = {
    "seed": 0,
    "problem": {"custom": {"dim": 1, "agents": [{"f": [[1.0, [4]]]}, {"f": [[1.0, [4]]]}]}},
    "graph": {"num_agents": 2, "edges": [[1, 2, 1.0]]},
    "tol": 1e-9,
    "certify": True,
}


# f = x^4 on both agents: the Hessian vanishes at x* = 0, so the tangent-cone
# curvature (a2, a3) and the restricted spectrum (a1) fail their tests
@pytest.mark.parametrize("algorithm, keys, matrix, reason", [
    ("a1", {"alpha": 0.1, "max_iter": 50}, "B", "no step size can make the iteration"),
    ("a2", {"alpha": 0.1, "c": 1.0, "max_iter": 50}, "B_c", "tangent-cone curvature"),
    ("a3", {"c0": 1.0, "beta": 2.0, "c_max": 4.0, "outer": {"max_iter": 5}}, "N_c",
     "tangent-cone curvature"),
], ids=["a1", "a2", "a3"])
def test_failed_hypothesis_is_a_failure_certificate(tmp_path, capsys, algorithm, keys,
                                                    matrix, reason):
    path = write_config(tmp_path, {**QUARTIC_PAIR, "algorithm": algorithm, **keys})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"trace.csv", "summary.json", "certificate.json"}
    written = json.loads((out / "certificate.json").read_text())
    capsys.readouterr()
    assert cli.main(["certify", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == written
    assert written["verdict"] is False and written["matrix"] == matrix
    assert reason in written["reason"] and "c_bar" not in written


# a penalty so large that the dense matrices of the certificate overflow
@pytest.mark.parametrize("cfg, matrix", [
    *((base_config(algorithm="a2", c=c), "B_c") for c in (np.inf, 1.0e308)),
    *((a3_config(c_max=c), "N_c") for c in (np.inf, 1.0e308)),
], ids=["a2-inf", "a2-1e308", "a3-inf", "a3-1e308"])
@pytest.mark.filterwarnings("error")
def test_huge_penalty_is_a_failure_certificate(tmp_path, capsys, cfg, matrix):
    assert cli.main(["certify", "--config", str(write_config(tmp_path, cfg))]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] is False and cert["matrix"] == matrix
    assert "non-finite entries" in cert["reason"]


# ill-scaled inputs: directed weights 1e6 and one coefficient 1e12.  What
# `lagnet certify` reports for them, pinned; the two numbers in a reason (an
# eigenvalue and the zero tolerance 1e-10 max(||Bq||_2, 1)) are compared to
# 1e-3
ILL_SCALED = {
    "seed": 0,
    "problem": {"custom": {"dim": 2, "agents": [
        {"f": [[1.0e12, [2, 0]], [1.0, [0, 2]], [-1.0, [1, 0]]],
         "h": [[1.0, [1, 0]], [1.0, [0, 1]], [-1.0, [0, 0]]]},
        {"f": [[1.0, [2, 0]], [1.0, [0, 2]], [-1.0, [0, 1]]]},
        {"f": [[0.5, [2, 0]], [0.5, [0, 2]]]},
    ]}},
    "graph": {"num_agents": 3, "symmetric_weights": False,
              "edges": [[1, 2, 1.0e6], [2, 1, 1.0e6], [2, 3, 1.0e6], [3, 2, 1.0e6]]},
    "tol": 1e-9,
    "certify": True,
}
NO_CONTRACTION = "restricted iteration matrix has min Re eig = {:.3e}, not above " \
                 "1e-10 max(||Bq||_2, 1) = {:.3e}; no step size can make the iteration contract"
NO_CONTRACTION_RE = r"min Re eig = (\S+), not above 1e-10 max\(\|\|Bq\|\|_2, 1\) = (\S+);"

# the same layout with h scaled by 1e-6 and agent 3 at f = 0.5 x^2 - 1.5 y^2:
# S (x) I_n (entries 1e6) and grad h (entries 1e-6) are 1e12 apart, so the
# lifted count of Null([grad h, S']') by the rank rule at 1e-10 reads 2, not
# n - m = 1.  The unlifted checks pass: c_bar, far below 0.5, is computed,
# and the step size certificate fails on its zero test of a numerically zero
# eigenvalue
ILL_SCALED_SMALL_H = {**ILL_SCALED, "problem": {"custom": {"dim": 2, "agents": [
    {"f": [[1.0e12, [2, 0]], [1.0, [0, 2]], [-1.0, [1, 0]]],
     "h": [[1.0e-6, [1, 0]], [1.0e-6, [0, 1]], [-1.0e-6, [0, 0]]]},
    {"f": [[1.0, [2, 0]], [1.0, [0, 2]], [-1.0, [0, 1]]]},
    {"f": [[0.5, [2, 0]], [-1.5, [0, 2]]]},
]}}}


@pytest.mark.parametrize("keys, matrix, c_bar, reason, eig", [
    ({"algorithm": "a1", "alpha": 1e-13, "max_iter": 10}, "B", None, NO_CONTRACTION,
     (0.2324, 200.0)),
    ({"algorithm": "a2", "alpha": 1e-13, "c": 1.0, "max_iter": 10}, "B_c", 0.0,
     NO_CONTRACTION, (0.1833, 649.4)),
    # a3 certificates, issued: their rate_bound max |e / (c + e)| is near
    # 5/9 on ILL_SCALED and 1 - 1.6e-11 on ILL_SCALED_SMALL_H (c_bar = 7.4e-12),
    # whose largest effective eigenvalues e are 4.9999999999885 and
    # 999999999999.5000905 by 60-digit mpmath eigenvalues of their pencils'
    # float64 H_0 and M
    ({"algorithm": "a3", "c0": 1.0, "c_max": 4.0}, "N_c", 0.0, None,
     (0.5555555555553828, 4.9999999999885)),
    ({**ILL_SCALED_SMALL_H, "algorithm": "a3", "c0": 1.0, "c_max": 16.0}, "N_c",
     pytest.approx(7.405124837953e-12, rel=1e-6, abs=0.0), None,
     (0.999999999984, 999999999999.5000905)),
], ids=["a1", "a2", "a3", "a3-small-h"])
def test_ill_scaled_certificates_are_pinned(tmp_path, capsys, keys, matrix, c_bar, reason, eig):
    path = write_config(tmp_path, {**ILL_SCALED, **keys})
    assert cli.main(["certify", "--config", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert (cert["verdict"], cert["matrix"], cert.get("c_bar")) == (reason is None, matrix, c_bar)
    if reason is None:  # eig is the rate bound and the largest e
        assert cert["rate_bound"] == eig[0] and cert["admissible"] is True
        assert cert["effective_eigenvalues"][-1] == pytest.approx(eig[1], rel=1e-11, abs=0.0)
        return
    found = [float(v) for v in re.search(NO_CONTRACTION_RE, cert["reason"]).groups()]
    assert found == pytest.approx(list(eig), rel=1e-3)
    assert cert["reason"] == reason.format(*found)


def test_ill_scaled_cone_is_checked_unlifted(tmp_path, capsys):
    path = write_config(tmp_path, {**ILL_SCALED_SMALL_H, "algorithm": "a2", "alpha": 1e-13,
                                   "c": 1.0, "max_iter": 10})
    assert cli.main(["certify", "--config", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert (cert["verdict"], cert["matrix"]) == (False, "B_c")
    assert cert["c_bar"] == pytest.approx(7.405124837953e-12, rel=1e-6, abs=0.0)  # a 60-digit root
    eig, tol = (float(v) for v in re.search(NO_CONTRACTION_RE, cert["reason"]).groups())
    assert abs(eig) <= 1e-6 and tol == pytest.approx(649.4, rel=1e-3)
    assert cert["reason"] == NO_CONTRACTION.format(eig, tol)
    assert cli.main(["oracle", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tangent_cone_pd"] is True
    p = harness.build_problem(ILL_SCALED_SMALL_H).problem
    assert lifted_cone(p, report["x_star"], report["mu_star"]).dimension == 2


# tp-nonconv3's 2 c_bar = 7.40512 lies between 7.4 and 7.4055, and
# ILL_SCALED_SMALL_H's 2 c_bar = 1.48e-11 below 1e-10, although there the
# float64 pencil's least e reads -3.06e-5 (the 60-digit one is -c_bar)
A3_CERTIFIED = [{**base_config(problem={"name": name}), "algorithm": "a3"}
                for name in lagnet.fixtures.FIXTURES] + [
    load_config(CONFIGS / f"{name}.yaml") for name in ("custom_quadratic", "path2_a3")] + [
    {**ILL_SCALED_SMALL_H, "algorithm": "a3"}]


@pytest.mark.parametrize("cfg", A3_CERTIFIED, ids=[*lagnet.fixtures.FIXTURES, "custom_quadratic",
                                                   "path2_a3", "ill-scaled-small-h"])
def test_a3_certificate_is_admissible_exactly_above_twice_cbar(cfg):
    # the certificate's admissibility test reads the c_bar it reports beside
    # it, not the effective eigenvalues
    for c in (1e-10, 0.5, 2.0, 7.4, 7.4055, 7.406, 7.5, 16.0):
        cert = harness.certificate_report({**cfg, "c0": c, "c_max": c})
        assert cert["admissible"] == (c > 2.0 * cert["c_bar"]), c


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def test_a_singular_penalty_is_a_failure_certificate(tmp_path, capsys):
    # hess L_c is singular at c = -e for an effective eigenvalue e, where
    # e / (c + e) would divide by zero: copied from a certificate (repr
    # round-trips it), such a penalty gives a failure naming it, in strict
    # JSON.  c_bar is -min e only to rounding: there the certificate is
    # finite and inadmissible
    cfg = a3_config(problem={"name": "tp-nonconv3"})
    e = harness.certificate_report({**cfg, "c0": 8.0, "c_max": 8.0})["effective_eigenvalues"]
    c = -min(e)
    path = write_config(tmp_path, {**cfg, "c0": c, "c_max": c})
    assert cli.main(["certify", "--config", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out, parse_constant=_reject)
    assert (cert["verdict"], cert["matrix"], cert["eigenvalues"]) == (False, "N_c", [])
    assert f"singular at the penalty c = {c!r}," in cert["reason"]
    c_bar = cert["c_bar"]
    assert c_bar != c
    at_cbar = harness.certificate_report({**cfg, "c0": c_bar, "c_max": c_bar})
    json.loads(json.dumps(at_cbar), parse_constant=_reject)
    assert (at_cbar["verdict"], at_cbar["admissible"]) == (False, False)
    assert 1.0 < at_cbar["rate_bound"] < np.inf


@pytest.mark.parametrize("error", [
    analysis.NotStationaryError, analysis.HypothesisViolatedError,
    analysis.AnalysisError, analysis.Assumption2Error,
])
def test_every_analysis_error_is_a_failure_certificate(monkeypatch, error):
    assert issubclass(analysis.CertificationError, analysis.AnalysisError)
    assert issubclass(error, analysis.AnalysisError)

    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(analysis, "find_cbar", fail)
    cert = harness.certificate_report(base_config(algorithm="a2", c=1.0))
    cert.pop("problem_hash")
    assert cert == {"matrix": "B_c", "eigenvalues": [], "verdict": False, "reason": "injected"}


# --- import path --------------------------------------------------------------------


def test_cli_import_and_run_load_no_scipy(tmp_path):
    # an a2 run of a fixture and an a3 run of a custom problem, and the
    # commands that certify, solve centrally and check gradients
    calls = [[command, "--config", str(CONFIGS / f"{name}.yaml")] + out
             for name in ("nonconv3_a2", "custom_quadratic")
             for command, out in (("run", ["--out", str(tmp_path / name)]), ("certify", []),
                                  ("oracle", []), ("check-gradients", []))]
    code = "\n".join([
        "import sys",
        "import lagnet.cli",
        "assert 'scipy' not in sys.modules, 'import lagnet.cli loads scipy'",
        f"for argv in {calls!r}:",
        "    assert lagnet.cli.main(argv) == 0, argv",
        "    assert 'scipy' not in sys.modules, f'lagnet {argv[0]} loads scipy'",
    ])
    src = str(Path(lagnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "nonconv3_a2" / "trace.csv").exists()
    assert (tmp_path / "custom_quadratic" / "trace.csv").exists()


def test_every_public_name_of_the_package_serves_the_package():
    # a public top-level function or class that nothing in src/lagnet uses,
    # outside its own definition, and that lagnet does not export, is test
    # code: it belongs in tests/.  harness.build_problem is the entry point
    # of perfbench and scripts/
    package = Path(lagnet.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    uses = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = [
        f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in lagnet.__all__
        and not any(name == node.name and not (at == module
                                               and node.lineno <= line <= node.end_lineno)
                    for at, line, name in uses)
    ]
    assert [name for name in unused if name != "harness.build_problem"] == []


# --- random problems through the command line ------------------------------------

COEFFS = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
                   st.floats(-3.0, 3.0, allow_nan=False))
WEIGHTS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 100.0))


@st.composite
def custom_problems(draw):
    """A custom polynomial problem on a connected graph: N in 1..4, n in
    1..3, up to four terms per polynomial with exponents up to 4, and a
    constraint on a random subset of the agents (more than n of them is a
    config error)."""
    N, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    terms = st.lists(st.tuples(COEFFS, st.lists(st.integers(0, 4), min_size=n, max_size=n))
                     .map(list), min_size=1, max_size=4)
    agents = []
    for _ in range(N):
        agent = {"f": draw(terms)}
        if draw(st.integers(0, 3)) == 0:
            agent["h"] = draw(terms)
        agents.append(agent)
    edges = [[draw(st.integers(1, j - 1)), j, draw(WEIGHTS)] for j in range(2, N + 1)]
    for _ in range(draw(st.integers(0, N))):  # chords; a repeated pair is a config error
        i, j = draw(st.integers(1, N)), draw(st.integers(1, N))
        if i != j:
            edges.append([i, j, draw(WEIGHTS)])
    return {
        "seed": draw(st.integers(0, 3)),
        "problem": {"custom": {"dim": n, "agents": agents}},
        "graph": {"num_agents": N, "symmetric_weights": draw(st.booleans()), "edges": edges},
        "tol": 1e-9,
        "certify": True,
    }


def run_and_certify(cfg):
    """``lagnet run`` and ``lagnet certify`` of one config; returns both exit
    codes after checking the artifacts each exit code promises.  Any warning
    is an error: an exit code comes without one."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = write_config(Path(tmp), cfg), Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            run_code = cli.main(["run", "--config", str(config), "--out", str(out)])
            certify_code = cli.main(["certify", "--config", str(config)])
        written = {q.name for q in out.iterdir()} if out.exists() else set()
        assert run_code in (0, 1, 2) and certify_code in (0, 1, 2)
        if run_code == 2 or (run_code == 1 and not written):  # a config or oracle error
            assert not out.exists()
            assert err.getvalue().startswith("error: ")
        else:
            assert written == {"trace.csv", "summary.json", "certificate.json"}
            status = json.loads((out / "summary.json").read_text())["status"]
            assert (status == "diverged") == (run_code == 1)
    return run_code, certify_code


@settings(max_examples=20)
@given(problem=custom_problems(), algorithm=st.sampled_from(["a1", "a2"]),
       alpha=st.sampled_from([0.01, 0.1, 0.5, 2.0]), c=st.sampled_from([0.5, 4.0, 50.0]))
def test_random_first_order_problem_ends_in_an_exit_code(problem, algorithm, alpha, c):
    cfg = {**problem, "algorithm": algorithm, "alpha": alpha, "max_iter": 40}
    if algorithm == "a2":
        cfg["c"] = c
    run_and_certify(cfg)


@settings(max_examples=20)
@given(problem=custom_problems(), c0=st.sampled_from([0.5, 2.0, 8.0]),
       c_max=st.sampled_from([8.0, 32.0]), inner=st.sampled_from([
           {"max_iter": 50},
           {"max_iter": 50, "alpha": 0.05},
           {"max_iter": 50, "schedule": {"a": 1.0, "b": 2.0}},
       ]))
def test_random_a3_problem_ends_in_an_exit_code(problem, c0, c_max, inner):
    cfg = {**problem, "algorithm": "a3", "c0": c0, "beta": 2.0, "c_max": c_max,
           "inner": inner, "outer": {"max_iter": 4}}
    run_and_certify(cfg)

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagnet import cli
from lagnet.harness import (
    ConfigError,
    HashMismatchError,
    build_problem,
    compare_to_oracle,
    key_paths,
    load_config,
    run_experiment,
    sweep,
    validate_config,
)
from lagnet.solvers import FirstOrderConfig, run_first_order


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
    for c, observed in zip(grid, contractions):
        predicted = analysis.rate_bound_mom(path2.problem, path2.point, c).rate_bound
        assert observed == pytest.approx(predicted, abs=0.02)


def test_sweep_empty_grid_rejected(tmp_path):
    with pytest.raises(ConfigError):
        sweep(base_config(), "alpha", [], tmp_path / "s")


def test_sweep_unknown_parameter_rejected(tmp_path):
    with pytest.raises(ConfigError):
        sweep(base_config(), "beta", [1.0], tmp_path / "s")


def test_compare_to_oracle_fills_and_checks_hash(path2):
    p = path2.problem
    cfg = FirstOrderConfig(
        algorithm="a1", alpha=0.15, init=p.zero_state(), max_iter=50, tol=0.0
    )
    result = run_first_order(p, cfg, keep_states=True, problem_hash="abc")
    assert np.all(np.isnan(result.trace.err_mu))
    enriched = compare_to_oracle(result.trace, path2.point, p, "abc")
    assert np.all(np.isfinite(enriched.err_mu))
    assert enriched.err_mu[0] == pytest.approx(1.0)  # mu0 = 0, mu* = -1
    with pytest.raises(HashMismatchError):
        compare_to_oracle(result.trace, path2.point, p, "other")


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


# sha256 of trace.csv from `lagnet run` on the shipped configs: a1, a3 with
# its outer columns, and a3 with the Hessian-sized inner step.  Pins the
# CSV format and the iterates across code changes, which repeated runs of
# one build (criterion 12) cannot.
TRACE_SHA256 = {
    "path2_a1": "7457530e1a7da9fca33866d23818f94f73f4c4ea459e88424ac3456f0bc541f5",
    "path2_a3": "054f5415dc29504044bfc951886b9df09e8ec680ab691a1c5f2293de73a6a76b",
    "custom_quadratic": "2a727bd52a73481da1cd7acc659a48664a32fd8e2e5efda5420440c48e38d8fe",
}


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_shipped_config_trace_digest(tmp_path, name):
    run_experiment(load_config(CONFIGS / f"{name}.yaml"), tmp_path)
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == TRACE_SHA256[name]


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
    (base_config(c=2), "c"),
]


@pytest.mark.parametrize("cfg, key", BAD_INPUTS, ids=[key for _, key in BAD_INPUTS])
def test_bad_input_exits_2_naming_its_key(tmp_path, capsys, cfg, key):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.yaml")
    assert cli.main(["run", "--config", missing, "--out", str(tmp_path / "out")]) == 2
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


@settings(max_examples=250, deadline=None, derandomize=True)
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

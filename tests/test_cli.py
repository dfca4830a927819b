import inspect
import json
import pydoc
import re

import pytest
from helpers import BAD_LOSS_SPECS

import dcvs.cli
from dcvs import (
    SolverConfig,
    generate_instance,
    rpr_map,
    solve,
    spectral_init,
    write_trace,
)
from dcvs.cli import main
from dcvs.losses import loss_from_spec


def test_solve_command(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    assert main([
        "solve", "--d", "10", "--n", "60", "--p-fail", "0.2", "--s", "1.0",
        "--seed", "5",
        "--loss", json.dumps({"name": "trimmed_l1", "K_over_n": 0.2}),
        "--trace", str(trace_path), "--max-iters", "200",
    ]) == 0
    out = capsys.readouterr().out
    assert "rel_error=" in out
    header = trace_path.read_text(encoding="utf-8").split("\n", 1)[0]
    assert header == "k,mu,F_k,grad_norm,gamma,backtracks,true_cost,roundoff"


def test_solve_trace_is_the_seeded_in_process_solve(tmp_path):
    # dcvs solve solves generate_instance(..., seed) from spectral_init(A, b, seed)
    spec = {"name": "mcp", "beta": 1000}
    config = SolverConfig(max_iters=300, time_cap_seconds=None)
    inst = generate_instance(12, 72, 0.3, 2.0, outlier_kind="uniform",
                             noise_variance=1e-4, seed=9)
    record = solve(loss_from_spec(spec, 72), rpr_map(inst.A, inst.b),
                   spectral_init(inst.A, inst.b, 9), config)
    write_trace(record, tmp_path / "expected.csv")
    assert main([
        "solve", "--d", "12", "--n", "72", "--p-fail", "0.3", "--s", "2.0",
        "--outlier-kind", "uniform", "--noise-variance", "1e-4", "--seed", "9",
        "--loss", json.dumps(spec), "--max-iters", "300", "--time-cap", "0",
        "--trace", str(tmp_path / "cli.csv"),
    ]) == 0
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_solve_defaults_are_solver_config_defaults(monkeypatch):
    real_solve, seen = dcvs.cli.solve, []

    def recording_solve(loss, smooth_map, x1, config):
        seen.append(config)
        return real_solve(loss, smooth_map, x1, config)

    monkeypatch.setattr(dcvs.cli, "solve", recording_solve)
    assert main(["solve", "--d", "5", "--n", "30",
                 "--loss", json.dumps({"name": "l1"})]) == 0
    assert seen == [SolverConfig()]


@pytest.mark.parametrize("spec", BAD_LOSS_SPECS, ids=json.dumps)
def test_solve_rejects_bad_loss_spec(spec):
    with pytest.raises(ValueError):
        main(["solve", "--d", "5", "--n", "20", "--loss", json.dumps(spec)])


def test_solve_rejects_nan_time_cap():
    with pytest.raises(ValueError):
        main(["solve", "--d", "5", "--n", "20", "--loss", json.dumps({"name": "l1"}),
              "--time-cap", "nan"])


def test_sweep_command(tmp_path, capsys):
    config = {
        "d": 8,
        "n_over_d": [5],
        "p_fail": [0.0],
        "s": [1.0],
        "losses": [{"name": "l1"}],
        "trials": 2,
        "base_seed": 1,
        "solver": {"max_iters": 60, "time_cap_seconds": None},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "heatmap_l1.csv").exists()
    assert "success_rate=" in capsys.readouterr().out


def test_sweep_requires_output_dir(tmp_path, capsys):
    # --out is the one way to name the output directory
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "d": 8, "n_over_d": [5], "p_fail": [0.0], "losses": [{"name": "l1"}],
        "trials": 1,
    }), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_package_declares_its_public_names_once():
    # dcvs.__all__ is the package's one declared surface: star imports bind
    # it, and pydoc documents only the imported names it lists
    public = {name for name, value in vars(dcvs).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(dcvs.__all__) == sorted(public)
    namespace = {}
    exec("from dcvs import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
    doc = pydoc.render_doc(dcvs, renderer=pydoc.plaintext)
    assert [name for name in dcvs.__all__
            if not re.search(rf"^ +(class )?{name}\(", doc, re.M)] == []

import json

import numpy as np
import pytest
from helpers import BAD_LOSS_SPECS

import dcvs.cli
from dcvs import SolverConfig, load_instance
from dcvs.cli import main


def test_gen_and_solve_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "inst.npz"
    assert main([
        "gen", "--d", "10", "--n", "60", "--p-fail", "0.2", "--s", "1.0",
        "--seed", "5", "--out", str(inst_path),
    ]) == 0
    inst = load_instance(inst_path)
    assert inst.b.shape == (60,)
    assert inst.outlier_idx.size == 12

    trace_path = tmp_path / "trace.csv"
    assert main([
        "solve", "--instance", str(inst_path),
        "--loss", json.dumps({"name": "trimmed_l1", "K_over_n": 0.2}),
        "--trace", str(trace_path), "--max-iters", "200",
    ]) == 0
    out = capsys.readouterr().out
    assert "rel_error=" in out
    header = trace_path.read_text(encoding="utf-8").split("\n", 1)[0]
    assert header == "k,mu,F_k,grad_norm,gamma,backtracks,true_cost"


def test_solve_defaults_are_solver_config_defaults(tmp_path, monkeypatch):
    inst_path = tmp_path / "inst.npz"
    assert main(["gen", "--d", "5", "--n", "30", "--out", str(inst_path)]) == 0
    real_solve, seen = dcvs.cli.solve, []

    def recording_solve(loss, smooth_map, x1, config):
        seen.append(config)
        return real_solve(loss, smooth_map, x1, config)

    monkeypatch.setattr(dcvs.cli, "solve", recording_solve)
    assert main(["solve", "--instance", str(inst_path),
                 "--loss", json.dumps({"name": "l1"})]) == 0
    assert seen == [SolverConfig()]


@pytest.mark.parametrize("spec", BAD_LOSS_SPECS, ids=json.dumps)
def test_solve_rejects_bad_loss_spec(tmp_path, spec):
    inst_path = tmp_path / "inst.npz"
    assert main(["gen", "--d", "5", "--n", "20", "--out", str(inst_path)]) == 0
    with pytest.raises(ValueError):
        main(["solve", "--instance", str(inst_path), "--loss", json.dumps(spec)])


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
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "d": 8, "n_over_d": [5], "p_fail": [0.0], "losses": [{"name": "l1"}],
        "trials": 1,
    }), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == 2

import csv
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from helpers import BAD_LOSS_SPECS, sweep_cells

import dcvs.solver
from dcvs.bench import (
    SweepConfig,
    SweepResult,
    emit_outputs,
    run_sweep,
    seeded_problem,
    sweep_config_from_dict,
)
from dcvs.losses import loss_from_spec, loss_label
from dcvs.solver import SolverConfig, SolverError


def tiny_config(**overrides):
    base = dict(
        d=8,
        n_over_d=[5],
        p_fail=[0.2],
        s=[1.0],
        losses=[{"name": "l1"}, {"name": "trimmed_l1", "K_over_n": 0.2}],
        trials=2,
        base_seed=7,
        solver=SolverConfig(max_iters=40, time_cap_seconds=None),
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_loss_from_spec_and_labels():
    loss = loss_from_spec({"name": "trimmed_l1", "K_over_n": 0.4}, 10)
    assert loss.params["K"] == 4
    assert loss_label({"name": "trimmed_l1", "K_over_n": 0.4}) == "trimmed_l1_Kn0.4"
    assert loss_label({"name": "mcp", "lambda": 1, "beta": 1000}) == "mcp_lam1_beta1000"
    assert loss_label({"name": "capped_l1", "beta": 100}) == "capped_l1_beta100"
    assert loss_label({"name": "l1"}) == "l1"
    # lambda is optional for mcp and defaults to 1
    assert loss_from_spec({"name": "mcp", "beta": 2}, 10).params == {"lam": 1.0, "beta": 2.0}
    assert loss_from_spec({"name": "mcp", "lambda": 5, "beta": 2}, 10).params["lam"] == 5.0


def minimal_raw(**overrides):
    raw = {"d": 10, "n_over_d": [5], "p_fail": [0.1], "losses": [{"name": "l1"}]}
    raw.update(overrides)
    return raw


@pytest.mark.parametrize("spec", BAD_LOSS_SPECS, ids=json.dumps)
def test_bad_loss_spec_rejected(spec):
    with pytest.raises(ValueError):
        loss_from_spec(spec, 100)
    with pytest.raises(ValueError):
        loss_label(spec)
    with pytest.raises(ValueError):
        sweep_config_from_dict(minimal_raw(losses=[spec]))


def test_sweep_config_keys():
    with pytest.raises(ValueError):
        sweep_config_from_dict(minimal_raw(solver={"gamma_init_rule": "constant"}))
    with pytest.raises(ValueError):
        sweep_config_from_dict(minimal_raw(trails=3))
    # store_iterates is no SolverConfig field: a record determines its iterates
    with pytest.raises(ValueError, match=r"unknown keys \[.store_iterates.\]"):
        sweep_config_from_dict(minimal_raw(solver={"store_iterates": True}))
    # the solver block is an object of SolverConfig fields
    for bad in (None, 5, [["rho", 0.5]]):
        with pytest.raises(ValueError, match="^solver must be"):
            sweep_config_from_dict(minimal_raw(solver=bad))
    with pytest.raises(ValueError):
        sweep_config_from_dict({"d": 10, "n_over_d": [5], "p_fail": [0.1]})
    # so is the config itself: a JSON list or string has no keys
    for bad in ([1, 2], "x"):
        with pytest.raises(ValueError, match="^sweep config must be an object"):
            sweep_config_from_dict(bad)
    # a schedule above the smoothing cap fails at load, not in the first solve
    with pytest.raises(ValueError):
        sweep_config_from_dict(minimal_raw(solver={"eta": 0.25}))
    # so does one whose scale underflows to 0 (JSON's Infinity, as json reads it)
    with pytest.raises(ValueError, match="^eta must"):
        sweep_config_from_dict(minimal_raw(solver=json.loads('{"eta": Infinity}')))
    # "_" keys are comments; the solver block takes any SolverConfig field
    cfg = sweep_config_from_dict(minimal_raw(
        _comment="ignored", solver={"rho": 0.5, "time_cap_seconds": None},
    ))
    assert cfg.solver.rho == 0.5
    assert cfg.solver.time_cap_seconds is None


def test_every_shipped_config_loads():
    # a config under configs/ that no longer builds would only fail when run
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert configs
    for path in configs:
        sweep_config_from_dict(json.loads(path.read_text(encoding="utf-8")))


def test_readme_lists_every_config_field():
    # README's sweep-config field table and its list of solver-block keys
    # name exactly the dataclass fields, so a field added or removed in the
    # code shows up here until README follows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Sweep configs", 1)[1]
    table = section.split("```", 2)[1]
    listed = sorted(line.split()[0] for line in table.splitlines() if line.strip())
    assert listed == sorted(f.name for f in fields(SweepConfig))
    solver = re.search(r"The `solver` block takes `SolverConfig` field names \(([^)]*)\)",
                       section)
    assert solver is not None, "README lost its list of solver-block keys"
    listed = sorted(re.findall(r"`(\w+)`", solver.group(1)))
    assert listed == sorted(f.name for f in fields(SolverConfig))


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        tiny_config(p_fail=[])
    with pytest.raises(ValueError):
        tiny_config(losses=[{"name": "capped_l1"}])  # missing beta
    # counts must be integral (JSON's Infinity and NaN are not), and the
    # base seed nonnegative; each error names its field
    for bad in ({"trials": 2.5}, {"d": 8.7}, {"n_over_d": [5.5]},
                {"base_seed": 1.5}, {"base_seed": -1},
                {"trials": float("inf")}, {"d": float("nan")},
                {"n_over_d": [5, float("inf")]}, {"base_seed": float("nan")}):
        with pytest.raises(ValueError, match=rf"^{next(iter(bad))} must be"):
            tiny_config(**bad)
    # a bool is no number: JSON true would read as 1 and false as 0; nor is
    # a numeric string or null
    for bad in ({"d": True}, {"n_over_d": [True]}, {"trials": True},
                {"base_seed": True}, {"p_fail": [0.2, False]}, {"s": [True]},
                {"noise_variance": True},
                {"p_fail": ["0.1"]}, {"s": ["1"]}, {"noise_variance": "1e-6"},
                {"n_over_d": ["5"]}, {"d": None}, {"trials": None},
                {"noise_variance": None}, {"p_fail": [None]}):
        with pytest.raises(ValueError, match=rf"^{next(iter(bad))} must be a number"):
            tiny_config(**bad)
    # a grid or the loss list must be a list: a string would be read one
    # character at a time, and a dict by its keys
    for bad in ({"p_fail": "0"}, {"s": "1"}, {"n_over_d": 5},
                {"losses": {"name": "l1"}}):
        with pytest.raises(ValueError, match=rf"^{next(iter(bad))} must be a list"):
            tiny_config(**bad)
    # the solver block is a SolverConfig; a dict would fail in the first
    # trial, and None would be a second spelling of the defaults
    for bad in ({"max_iters": 5}, None):
        with pytest.raises(ValueError, match="SolverConfig"):
            tiny_config(solver=bad)
    cfg = tiny_config(d=8.0, n_over_d=[5.0], trials=2.0, base_seed=7.0)
    assert [type(v) for v in (cfg.d, *cfg.n_over_d, cfg.trials, cfg.base_seed)] == [int] * 4
    # instance arguments are checked for every cell (n = 40 here)
    for bad in ({"p_fail": [0.2, 1.5]}, {"s": [0.0]}, {"noise_variance": -1},
                {"outlier_kind": "gauss"}, {"p_fail": [0.99]},
                {"noise_variance": float("nan")}, {"noise_variance": float("inf")},
                {"s": [1.0, float("inf")]},
                {"s": [float("nan")]}):
        with pytest.raises(ValueError):
            tiny_config(**bad)
    # a name that keys an output row, column or file may not repeat: both
    # capped_l1 specs are labelled capped_l1_beta1000, both scales write _s1
    for bad in ({"losses": [{"name": "capped_l1", "beta": 1000},
                            {"name": "capped_l1", "beta": 1000.0001}]},
                {"losses": [{"name": "l1"}, {"name": "l1"}]},
                {"n_over_d": [5, 6, 5]}, {"n_over_d": [5, 5.0]},
                {"p_fail": [0.2, 0.0, 0.2]}, {"s": [1.0, 1.0000001]}):
        with pytest.raises(ValueError, match="repeated"):
            tiny_config(**bad)


def test_seeded_problem_reads_a_float_seed():
    # 5.0 is seed 5 for the instance and for the spectral start alike
    (inst, x1, _), (inst5, x15, _) = (
        seeded_problem(5, 20, 0.1, 1.0, "cauchy", 1e-6, seed) for seed in (5.0, 5))
    assert np.array_equal(inst.b, inst5.b) and np.array_equal(inst.A, inst5.A)
    assert np.array_equal(x1, x15)


def test_loss_specs_checked_at_every_n():
    # K = round(0.999 * n) is valid at n = 1500 but equals n at n = 500
    raw = {"d": 100, "n_over_d": [5, 15], "p_fail": [0.1],
           "losses": [{"name": "trimmed_l1", "K_over_n": 0.999}]}
    with pytest.raises(ValueError):
        sweep_config_from_dict(raw)
    sweep_config_from_dict({**raw, "n_over_d": [15]})


def test_direct_and_loaded_configs_write_the_same_csvs(tmp_path):
    # SweepConfig normalises numbers itself: p_fail=[0] writes 0.0 however
    # the config was built, and a loss spec's params column holds its
    # normalised parameters, so beta=1000 and beta=1000.0 write one cell
    raw = {"d": 8, "n_over_d": [5], "p_fail": [0, 0.2], "trials": 1,
           "base_seed": 7,
           "losses": [{"name": "l1"}, {"name": "capped_l1", "beta": 1000}],
           "solver": {"max_iters": 40, "time_cap_seconds": None}}
    direct = SweepConfig(**{**raw, "solver": SolverConfig(**raw["solver"]),
                            "losses": [{"name": "l1"},
                                       {"name": "capped_l1", "beta": 1000.0}]})
    for tag, cfg in (("direct", direct), ("loaded", sweep_config_from_dict(raw))):
        emit_outputs(run_sweep(cfg, workers=1), tmp_path / tag)
    names = sorted(p.name for p in (tmp_path / "direct").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "loaded").iterdir())
    for name in names:
        direct, loaded = (sweep_cells(tmp_path / tag / name) for tag in ("direct", "loaded"))
        assert direct == loaded, name
    heat = (tmp_path / "direct" / "heatmap_l1.csv").read_text(encoding="utf-8")
    assert heat.split("\n")[1].startswith("0.0,")


def test_sweep_bookkeeping():
    cfg = tiny_config()
    result = run_sweep(cfg, workers=1)
    # 1x1 grid, 2 losses, 2 trials -> 2 rows per loss
    assert len(result.trial_rows) == 4
    for spec in cfg.losses:
        rows = [r for r in result.trial_rows if r["loss"] == loss_label(spec)]
        assert [r["trial"] for r in rows] == [0, 1]
        assert [r["seed"] for r in rows] == [7, 8]
    assert len(result.summary_rows) == 2
    for row in result.summary_rows:
        assert 0.0 <= row["success_rate"] <= 1.0


def test_sweep_rows_in_config_order():
    # cells in cells() order, then losses as configured, then trials; the
    # rows are laid out by position, so each order is pinned here
    cfg = tiny_config(n_over_d=[5, 6], p_fail=[0.0, 0.2])
    cells = [(nd, p_fail) for nd, p_fail, _ in cfg.cells()]
    labels = [loss_label(spec) for spec in cfg.losses]
    for workers in (1, 2):
        result = run_sweep(cfg, workers=workers)
        assert [(r["n_over_d"], r["p_fail"], r["loss"], r["trial"])
                for r in result.trial_rows] == [
            (*cell, label, t) for cell in cells for label in labels for t in range(2)]
        assert [(r["n_over_d"], r["p_fail"], r["loss"]) for r in result.summary_rows] == [
            (*cell, label) for cell in cells for label in labels]


def test_sweep_deterministic_across_workers(tmp_path):
    # mcp's params cell holds a comma, so the CSV writer quotes it
    cfg = tiny_config(losses=[{"name": "l1"}, {"name": "trimmed_l1", "K_over_n": 0.2},
                              {"name": "mcp", "beta": 2.0}])
    res1 = run_sweep(cfg, workers=1)
    res2 = run_sweep(cfg, workers=2)
    emit_outputs(res1, tmp_path / "w1")
    emit_outputs(res2, tmp_path / "w2")
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "w2").iterdir())
    assert len(names) == 5
    for name in names:
        assert sweep_cells(tmp_path / "w1" / name) == sweep_cells(tmp_path / "w2" / name), name


def test_run_sweep_rejects_negative_workers():
    # serial has one spelling, workers=1; 0, None and True are errors, not serial
    for bad in (-1, 0, None, 1.0, "2", True):
        with pytest.raises(ValueError):
            run_sweep(tiny_config(), workers=bad)
    assert len(run_sweep(tiny_config(trials=1), workers=np.int64(1)).trial_rows) == 2


def test_sweep_grid_permutation_leaves_trials_unchanged():
    cfg_a = tiny_config(p_fail=[0.0, 0.2], trials=2)
    cfg_b = tiny_config(p_fail=[0.2, 0.0], trials=2)
    res_a = run_sweep(cfg_a, workers=1)
    res_b = run_sweep(cfg_b, workers=1)

    def key(rows):
        return {
            (r["p_fail"], r["loss"], r["trial"]): (r["rel_error"], r["iterations"])
            for r in rows
        }

    assert key(res_a.trial_rows) == key(res_b.trial_rows)


def test_sweep_solver_error_recorded_not_raised(monkeypatch):
    # a serial sweep runs in this process, so the patched cap applies
    monkeypatch.setattr(dcvs.solver, "MAX_BACKTRACKS", 0)
    cfg = tiny_config(
        losses=[{"name": "l1"}],
        solver=SolverConfig(max_iters=10, time_cap_seconds=None),
    )
    result = run_sweep(cfg, workers=1)
    assert all(r["termination"] == "error" for r in result.trial_rows)
    assert all(r["success"] == 0 for r in result.trial_rows)
    assert all(r["error"] for r in result.trial_rows)
    assert result.summary_rows[0]["success_rate"] == 0.0


def test_sweep_solver_error_records_steps_and_time(monkeypatch):
    # fail inside the fifth step of the one solve: its row keeps the four
    # completed steps and the time spent, not 0 and 0.0
    real_backtrack = dcvs.solver.backtrack
    calls = []

    def backtrack_failing_in_step_5(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise SolverError("injected line-search failure")
        return real_backtrack(*args, **kwargs)

    monkeypatch.setattr(dcvs.solver, "backtrack", backtrack_failing_in_step_5)
    cfg = tiny_config(losses=[{"name": "l1"}], trials=1)
    (row,) = run_sweep(cfg, workers=1).trial_rows
    assert row["termination"] == "error"
    assert row["error"] == "injected line-search failure"
    assert row["iterations"] == 4
    assert row["seconds"] > 0.0


def test_emit_outputs_shapes(tmp_path):
    cfg = tiny_config(n_over_d=[5, 6], p_fail=[0.0, 0.2], trials=1,
                      losses=[{"name": "l1"}])
    result = run_sweep(cfg, workers=1)
    emit_outputs(result, tmp_path)
    heat = (tmp_path / "heatmap_l1.csv").read_text(encoding="utf-8").strip().split("\n")
    assert heat[0] == "p_fail\\n_over_d,5,6"
    assert len(heat) == 3
    assert heat[1].startswith("0.0,")
    assert heat[2].startswith("0.2,")
    summary = (tmp_path / "summary.csv").read_text(encoding="utf-8").strip().split("\n")
    assert summary[0].startswith("d,n,n_over_d,p_fail,s,loss,params,success_rate")
    assert len(summary) == 1 + 4


def test_emit_outputs_one_heatmap_per_loss_and_scale(tmp_path):
    cfg = tiny_config(n_over_d=[5, 6], p_fail=[0.0, 0.2], s=[1.0, 2.5], trials=1)
    written = emit_outputs(run_sweep(cfg), tmp_path)
    labels = [loss_label(spec) for spec in cfg.losses]
    heatmaps = [f"heatmap_{label}_s{tag}.csv" for label in labels for tag in ("1", "2.5")]
    assert [Path(p).name for p in written] == ["summary.csv", "trials.csv", *heatmaps]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(Path(p).name for p in written)
    with open(tmp_path / "summary.csv", encoding="utf-8", newline="") as fh:
        summary = list(csv.DictReader(fh))
    rate = {(r["loss"], r["s"], r["p_fail"], r["n_over_d"]): r["success_rate"]
            for r in summary}
    for label in labels:
        for s_val, tag in (("1.0", "1"), ("2.5", "2.5")):
            with open(tmp_path / f"heatmap_{label}_s{tag}.csv", encoding="utf-8",
                      newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header == ["p_fail\\n_over_d", "5", "6"]
            assert rows == [[p_fail, *(rate[(label, s_val, p_fail, nd)] for nd in ("5", "6"))]
                            for p_fail in ("0.0", "0.2")]


def test_emit_outputs_quote_multi_key_params(tmp_path):
    # an mcp spec has two parameters, so its JSON params cell holds a comma
    cfg = tiny_config(trials=1, losses=[{"name": "mcp", "lambda": 1, "beta": 1000}])
    emit_outputs(run_sweep(cfg, workers=1), tmp_path)
    for name in ("trials.csv", "summary.csv"):
        with open(tmp_path / name, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows
        for row in rows:
            assert len(row) == len(header)
            params = json.loads(row[header.index("params")])
            assert params == {"beta": 1000, "lambda": 1}


def test_emit_outputs_empty_result(tmp_path):
    cfg = tiny_config()
    result = SweepResult(config=cfg, trial_rows=[], summary_rows=[])
    emit_outputs(result, tmp_path)
    for name in ("summary.csv", "trials.csv", "heatmap_l1.csv"):
        text = (tmp_path / name).read_text(encoding="utf-8").strip()
        assert len(text.split("\n")) == 1


def test_success_rate_round_trips_exactly():
    cfg = tiny_config(trials=3, losses=[{"name": "l1"}])
    result = run_sweep(cfg, workers=1)
    row = result.summary_rows[0]
    successes = sum(r["success"] for r in result.trial_rows)
    assert float(repr(row["success_rate"])) == successes / 3


def test_sweep_outlier_free_exact_recovery():
    cfg = SweepConfig(
        d=50,
        n_over_d=[10],
        p_fail=[0.0],
        s=[1.0],
        losses=[{"name": "l1"}],
        trials=10,
        base_seed=0,
        solver=SolverConfig(time_cap_seconds=None),
    )
    result = run_sweep(cfg, workers=1)
    assert result.summary_rows[0]["success_rate"] == 1.0


def test_sweep_config_from_dict_defaults():
    raw = {
        "d": 10,
        "n_over_d": [5],
        "p_fail": [0.1],
        "losses": [{"name": "l1"}],
    }
    cfg = sweep_config_from_dict(raw)
    assert cfg.trials == 50
    assert cfg.s == [1.0]
    assert cfg.solver.rho == 0.8
    assert cfg.solver.c == 1e-4
    assert cfg.solver.alpha == 3.0
    assert cfg.solver.rel_tol == 1e-7
    assert cfg.solver.max_iters == 10000
    assert cfg.solver.time_cap_seconds == 30.0

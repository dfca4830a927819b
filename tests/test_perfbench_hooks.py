"""Tier-1 guards the benchmark by running it: one toy-size traced pass of
``perfbench/run.py`` per kind of workload, in process.  ``--trace 1`` runs
each workload untraced and then traced, so every library call the
benchmark makes is executed, the sweep through a forked pool.  A ``dcvs``
change that breaks a benchmark run, loses a per-layer metric or lets a
call slip past perfbench's hooks fails here."""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
# instance seeds 2 and 3 solve in under 400 steps with every loss; the
# sweep's 60-step budget ends some solves and its stopping test the rest
TOY_SOLVE = {"solve-d100": {"d": 10, "n": 120, "p_fail": 0.2, "seeds": 2}}
TOY_SWEEP = {"d": 8, "n_over_d": [10], "p_fail": [0.1, 0.3], "max_iters": 60}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: the exit code, the last JSON line, and the written
    span arrays and per-solve records."""
    out = tmp_path_factory.mktemp("perfbench_out")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        mp.delenv("DCVS_WORKERS", raising=False)  # run.main pops it; the context restores it
        import run
        import workloads

        sweep = dict(workloads.REDUCED_SWEEP, **TOY_SWEEP)
        sweep["solver"] = dict(sweep["solver"], max_iters=sweep.pop("max_iters"))
        mp.setattr(run, "OUT", str(out))
        mp.setattr(workloads, "SOLVE_WORKLOADS", TOY_SOLVE)
        mp.setattr(workloads, "REDUCED_SWEEP", sweep)
        mp.setattr(workloads, "SWEEP_TRIALS", 2)
        mp.setattr(workloads, "REFERENCE_SAMPLES", 1)
        results = {}
        for name in ("solve-d100", "sweep-reduced"):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = run.main(["--workload", name, "--seed", str(SEED), "--trace", "1"])
            stem = out / f"{name}-seed{SEED}-spans"
            results[name] = (code, json.loads(stdout.getvalue().splitlines()[-1]),
                             dict(np.load(f"{stem}.npz")),
                             json.loads(Path(f"{stem}-solves.json").read_text()))
    # perfbench's modules have generic top-level names: no later import may find them
    for module in ("run", "workloads", "tracing"):
        sys.modules.pop(module, None)
    return results


def test_traced_runs_report_every_per_layer_metric(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [metric["name"] for metric in spec["per_layer"]]
    for name, (code, result, _, _) in runs.items():
        assert (code, result["correct"]) == (0, True), name
        assert list(result["metrics"]) == wanted, name


def test_span_counts_match_each_solves_record(runs):
    # per solve, with J its jt_vec spans, S its steps and B its backtracks:
    # one surrogate per evaluated iterate and per Armijo trial, and the
    # true cost f - g one more value call per evaluated iterate
    for name, (_, _, spans, solves) in runs.items():
        kinds, code, sid = list(spans["names"]), spans["name"], spans["solve"]
        count = {kind: np.bincount(sid[(code == k) & (sid >= 0)], minlength=len(solves))
                 for k, kind in enumerate(kinds)}
        S, B = (np.array([s[key] for s in solves]) for key in ("steps", "backtracks"))
        J = count["maps.jt_vec"]
        # a solve that stops on its test evaluates one iterate more than it steps
        assert set(J - S) == ({0, 1} if name == "sweep-reduced" else {1}), name
        expected = {"maps.eval": 1, "solver.solve": 1, "solver.backtrack": S,
                    "losses.surrogate": J + S + B, "prox.f": J + S + B, "prox.g": J + S + B,
                    "losses.f_value": 2 * J + S + B, "losses.g_value": 2 * J + S + B}
        recorded = {kinds[k] for k in np.unique(code)}
        for kind in recorded & expected.keys():
            assert np.all(count[kind] == expected[kind]), (name, kind)
        instances = len(solves) // len({s["loss"] for s in solves})
        for kind in recorded & {"retrieval.generate", "retrieval.spectral_init"}:
            assert np.sum(code == kinds.index(kind)) == instances, (name, kind)

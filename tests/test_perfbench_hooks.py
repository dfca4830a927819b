"""The benchmark's traced run hooks library names from outside; a rename
in ``dcvs`` would silently turn its per-layer metrics into "missing".
This guard keeps those names alive without running the benchmark."""

import dataclasses
import importlib.util
from pathlib import Path

import dcvs.bench
import dcvs.solver
from dcvs import DcLoss, SmoothMap

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_hook_targets_exist():
    tracing = load_tracing()
    assert [a for a in tracing.SOLVER_HOOKS if not hasattr(dcvs.solver, a)] == []
    assert [a for a in tracing.SWEEP_HOOKS if not hasattr(dcvs.bench, a)] == []
    loss_fields = {f.name for f in dataclasses.fields(DcLoss)}
    assert set(tracing.LOSS_FIELDS) <= loss_fields
    map_fields = {f.name for f in dataclasses.fields(SmoothMap)}
    assert set(tracing.MAP_FIELDS) <= map_fields

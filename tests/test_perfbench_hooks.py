"""The benchmark's traced run hooks library names from outside; a rename
in ``dcvs`` would silently turn its per-layer metrics into "missing".
Its workloads call the library by name too, and a rename there breaks
every benchmark run.  These guards keep those names alive without
running the benchmark."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import dcvs.bench
import dcvs.solver
from dcvs import DcLoss, SmoothMap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def test_perfbench_workload_calls_exist():
    # workloads.py reaches the library as ``dcvs.<name>`` and, after
    # ``from dcvs import bench``, as ``bench.<name>``
    roots = {"dcvs": dcvs, "bench": dcvs.bench}
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in roots}
    assert {("dcvs", "make_loss"), ("bench", "loss_label"),
            ("bench", "sweep_config_from_dict"), ("bench", "run_sweep"),
            ("bench", "emit_outputs")} <= used
    assert [f"{root}.{attr}" for root, attr in sorted(used)
            if not hasattr(roots[root], attr)] == []

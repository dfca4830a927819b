"""The benchmark's traced run hooks library names from outside; a rename
in ``dcvs`` would silently turn its per-layer metrics into "missing".
Its workloads call the library by name too, and a rename there breaks
every benchmark run.  These guards keep those names alive without
running the benchmark."""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

from helpers import catalog_losses, small_instance

import dcvs.bench
import dcvs.solver
from dcvs import DcLoss, SmoothMap, SolverConfig, make_loss, solve, spectral_init

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


def test_perfbench_solver_hooks_are_reached(monkeypatch):
    # the traced run rebinds these dcvs.solver globals; solve must look them
    # up at call time, or an alias bound at import would run untraced
    tracing = load_tracing()
    calls = dict.fromkeys(tracing.SOLVER_HOOKS, 0)
    for attr in calls:
        def counted(*args, _attr=attr, _fn=getattr(dcvs.solver, attr), **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dcvs.solver, attr, counted)
    inst, m = small_instance(seed=4, d=12, n=72, p_fail=0.3)
    rec = solve(make_loss("trimmed_l1", 72, K=21), m, spectral_init(inst.A, inst.b, 4),
                SolverConfig(max_iters=400, time_cap_seconds=None))
    backtracks = int(rec.backtrack_counts.sum())
    assert rec.iterations > 0 and backtracks > 0
    assert calls == {"backtrack": rec.iterations,
                     "surrogate_at_residual": rec.mus.size + rec.iterations + backtracks}


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
    # each call, direct or through a local alias such as ``generate, init =
    # dcvs.generate_instance, dcvs.spectral_init``, must bind its positional
    # count and keyword names: a renamed keyword breaks only a benchmark run
    def library(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in roots):
            return getattr(roots[node.value.id], node.attr, None)
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            names, values = node.targets[0], node.value
            if isinstance(names, ast.Tuple) and isinstance(values, ast.Tuple):
                pairs = zip(names.elts, values.elts)
            else:
                pairs = [(names, values)]
            aliases.update((name.id, library(value)) for name, value in pairs
                           if isinstance(name, ast.Name) and library(value) is not None)
    bound, unbound = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = library(node.func)
        if fn is None and isinstance(node.func, ast.Name):
            fn = aliases.get(node.func.id)
        if fn is None:
            continue
        try:
            inspect.signature(fn).bind_partial(*[None] * len(node.args),
                                               **{k.arg: None for k in node.keywords})
            bound.add(fn.__name__)
        except TypeError as err:
            unbound.append(f"workloads.py:{node.lineno} {fn.__name__}: {err}")
    assert unbound == []
    assert {"generate_instance", "spectral_init", "make_loss", "SolverConfig",
            "solve", "run_sweep"} <= bound


def test_loss_fields_carry_every_evaluation():
    # the traced run times prox.* and losses.* by wrapping these DcLoss
    # fields; a surrogate that bypassed them would zero those metrics
    inst, m = small_instance(seed=4, d=12, n=72, p_fail=0.3)
    x1 = spectral_init(inst.A, inst.b, 4)
    cfg = SolverConfig(max_iters=400, time_cap_seconds=None)
    backtracked, ends = 0, set()
    for loss in catalog_losses(72):
        calls = dict.fromkeys(("f_prox", "g_prox", "f_value", "g_value"), 0)

        def counted(field, fn):
            def call(*args):
                calls[field] += 1
                return fn(*args)
            return call

        rec = solve(dataclasses.replace(
            loss, **{f: counted(f, getattr(loss, f)) for f in calls}), m, x1, cfg)
        # one surrogate per evaluated iterate and per line-search trial; the
        # true cost phi = f - g adds one value call per evaluated iterate
        evaluations = rec.mus.size + rec.iterations + int(rec.backtrack_counts.sum())
        assert calls == {"f_prox": evaluations, "g_prox": evaluations,
                         "f_value": evaluations + rec.mus.size,
                         "g_value": evaluations + rec.mus.size}, loss.name
        backtracked += int(rec.backtrack_counts.sum())
        ends.add(rec.termination)
    # runs that end on the stopping test (one more evaluation than steps)
    # and on the budget are both counted
    assert backtracked > 0 and ends == {"rel_tol", "max_iters"}


def test_perfbench_sweep_hooks_are_reached(monkeypatch):
    # the traced sweep rebinds these dcvs.bench globals; a trial must look
    # them up at call time, or a name bound at import would run untraced
    # (_run_trial, the work item itself, is left out here)
    tracing = load_tracing()
    config = dcvs.bench.SweepConfig(
        d=8, n_over_d=[5], p_fail=[0.2], trials=2,
        losses=[{"name": "l1"}, {"name": "capped_l1", "beta": 2.0}],
        solver=SolverConfig(max_iters=30, time_cap_seconds=None))
    calls = dict.fromkeys((a for a in tracing.SWEEP_HOOKS if a != "_run_trial"), 0)
    for attr in calls:
        def counted(*args, _attr=attr, _fn=getattr(dcvs.bench, attr), **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dcvs.bench, attr, counted)
    result = dcvs.bench.run_sweep(config, workers=1)
    assert len(result.trial_rows) == 4
    assert calls == {"generate_instance": 2, "spectral_init": 2, "rpr_map": 2,
                     "loss_from_spec": 4, "solve": 4}

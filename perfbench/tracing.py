"""Span tracing for the benchmark's traced run, hooked in from outside.

The library is not edited.  The traced run wraps the callables that
cross a layer boundary:

* ``eval``/``jt_vec`` of the ``SmoothMap`` that ``rpr_map`` returns
  (layer ``maps``),
* ``f_prox``/``g_prox``/``f_value``/``g_value`` of the ``DcLoss``, via
  ``dataclasses.replace`` (layers ``prox`` and ``losses``),
* ``dcvs.solver.backtrack`` and ``dcvs.solver.surrogate_at_residual``,
  rebound for the traced run only (layers ``solver`` and ``losses``),
* for the sweep, the names ``dcvs.bench`` looks up inside a work item
  (``generate_instance``, ``spectral_init``, ``rpr_map``,
  ``loss_from_spec``, ``solve`` and ``_run_trial``).

Every span has a name, a start, an end, a parent span and a solve id.
Spans live in plain lists while the run lasts and are written once at
the end.  A hook whose target no longer exists is skipped and the
metrics that need it are reported as missing.
"""

import dataclasses
import time

import numpy as np

import dcvs.bench
import dcvs.solver

SPAN_NAMES = (
    "solver.solve",
    "solver.backtrack",
    "losses.surrogate",
    "maps.eval",
    "maps.jt_vec",
    "prox.f",
    "prox.g",
    "losses.f_value",
    "losses.g_value",
    "retrieval.generate",
    "retrieval.spectral_init",
    "bench.trial",
)
CODE = {name: i for i, name in enumerate(SPAN_NAMES)}

MAP_FIELDS = {"eval": "maps.eval", "jt_vec": "maps.jt_vec"}
LOSS_FIELDS = {
    "f_prox": "prox.f",
    "g_prox": "prox.g",
    "f_value": "losses.f_value",
    "g_value": "losses.g_value",
}
SOLVER_HOOKS = {"backtrack": "solver.backtrack",
                "surrogate_at_residual": "losses.surrogate"}
SWEEP_HOOKS = ("generate_instance", "spectral_init", "rpr_map",
               "loss_from_spec", "solve", "_run_trial")


def roundoff_limited_steps(record, c):
    """Steps whose Armijo decrease ``c*gamma*||grad||^2`` is below the
    rounding error ``eps*|F_k|`` of the surrogate value it is compared
    against; None when the record lacks the needed arrays."""
    try:
        k = record.iterations
        gammas = np.asarray(record.gammas)
        grad_norms = np.asarray(record.grad_norms)[:k]
        values = np.asarray(record.surrogate_values)[:k]
    except AttributeError:
        return None
    decrease = c * gammas * grad_norms**2
    return int(np.sum(decrease < np.finfo(float).eps * np.abs(values)))


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.missing = set()
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.solve_ids = [], []
        self.solves = []  # per-solve metadata, indexed by solve id
        self._stack = [-1]
        self._solve = -1

    def __len__(self):
        return len(self.starts)

    def wrap(self, name, fn):
        """Return ``fn`` recording one span named ``name`` per call."""
        code = CODE[name]
        names, starts, ends = self.names, self.starts, self.ends
        parents, solve_ids, stack = self.parents, self.solve_ids, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(code)
            parents.append(stack[-1])
            solve_ids.append(self._solve)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _replace(self, obj, fields):
        changes = {}
        for attr, name in fields.items():
            if hasattr(obj, attr):
                changes[attr] = self.wrap(name, getattr(obj, attr))
            else:
                self.missing.add(name)
        try:
            return dataclasses.replace(obj, **changes)
        except (TypeError, ValueError):
            self.missing.update(fields.values())
            return obj

    def wrap_map(self, smooth_map):
        return self._replace(smooth_map, MAP_FIELDS)

    def wrap_loss(self, loss):
        return self._replace(loss, LOSS_FIELDS)

    def traced_solve(self, solve):
        """Wrap a ``solve(loss, smooth_map, x1, config)`` callable so each
        call opens a solve id and records its counts from the RunRecord."""
        span = self.wrap("solver.solve", solve)

        def traced(loss, smooth_map, x1, config=None):
            meta = {"loss": loss.name, "n": smooth_map.out_dim,
                    "d": smooth_map.in_dim, "steps": 0, "backtracks": 0,
                    "roundoff": 0}
            self._solve = len(self.solves)
            self.solves.append(meta)
            try:
                record = span(loss, smooth_map, x1, config)
            finally:
                self._solve = -1
            c = config.c if config is not None else dcvs.solver.SolverConfig().c
            meta["steps"] = record.iterations
            meta["backtracks"] = int(np.sum(record.backtrack_counts))
            meta["roundoff"] = roundoff_limited_steps(record, c)
            return record

        return traced

    def export(self, start=0, solve_start=0):
        """Spans from index ``start`` on (and solves from ``solve_start``
        on) as arrays, with parents and solve ids rebased to them."""
        parents = np.asarray(self.parents[start:], dtype=np.int64)
        parents[parents >= 0] -= start
        solve_ids = np.asarray(self.solve_ids[start:], dtype=np.int64)
        solve_ids[solve_ids >= 0] -= solve_start
        return {
            "name": np.asarray(self.names[start:], dtype=np.int64),
            "start": np.asarray(self.starts[start:], dtype=float),
            "end": np.asarray(self.ends[start:], dtype=float),
            "parent": parents,
            "solve": solve_ids,
            "solves": self.solves[solve_start:],
        }

    def truncate(self, start, solve_start):
        for lst in (self.names, self.starts, self.ends, self.parents,
                    self.solve_ids):
            del lst[start:]
        del self.solves[solve_start:]


def merge(parts):
    """Concatenate exported span sets, rebasing parents and solve ids."""
    out = {key: [] for key in ("name", "start", "end", "parent", "solve")}
    solves = []
    offset = 0
    for part in parts:
        parent = part["parent"].copy()
        parent[parent >= 0] += offset
        solve = part["solve"].copy()
        solve[solve >= 0] += len(solves)
        out["parent"].append(parent)
        out["solve"].append(solve)
        for key in ("name", "start", "end"):
            out[key].append(part[key])
        solves.extend(part["solves"])
        offset += part["name"].size
    merged = {key: np.concatenate(val) for key, val in out.items()}
    merged["solves"] = solves
    return merged


# Pool workers receive their work function by import path, so the traced
# work item reaches its tracer through this module rather than a closure.
_active = {}


def _traced_run_trial(args):
    tracer = _active["tracer"]
    mark, solve_mark = len(tracer), len(tracer.solves)
    rows = tracer.wrap("bench.trial", _active["run_trial"])(args)
    if rows:
        rows[0]["_spans"] = tracer.export(mark, solve_mark)
    tracer.truncate(mark, solve_mark)
    return rows


class Hooks:
    """Rebinds library names to traced wrappers; ``restore`` undoes it."""

    def __init__(self, tracer, sweep=False):
        self.tracer = tracer
        self._saved = []
        for attr, name in SOLVER_HOOKS.items():
            if hasattr(dcvs.solver, attr):
                self._bind(dcvs.solver, attr,
                           tracer.wrap(name, getattr(dcvs.solver, attr)))
            else:
                tracer.missing.add(name)
        if sweep:
            self._hook_sweep()

    def _bind(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _hook_sweep(self):
        tracer, bench = self.tracer, dcvs.bench
        absent = [attr for attr in SWEEP_HOOKS if not hasattr(bench, attr)]
        if absent:
            tracer.missing.update(f"bench.{attr}" for attr in absent)
            return
        rpr_map, loss_from_spec = bench.rpr_map, bench.loss_from_spec
        self._bind(bench, "generate_instance",
                   tracer.wrap("retrieval.generate", bench.generate_instance))
        self._bind(bench, "spectral_init",
                   tracer.wrap("retrieval.spectral_init", bench.spectral_init))
        self._bind(bench, "rpr_map", lambda A, b: tracer.wrap_map(rpr_map(A, b)))
        self._bind(bench, "loss_from_spec",
                   lambda spec, n: tracer.wrap_loss(loss_from_spec(spec, n)))
        self._bind(bench, "solve", tracer.traced_solve(bench.solve))
        _active.update(tracer=tracer, run_trial=bench._run_trial)
        self._bind(bench, "_run_trial", _traced_run_trial)

    def restore(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        _active.clear()


SHARE_LAYERS = {
    "maps": ("maps.eval", "maps.jt_vec"),
    "prox.f": ("prox.f",),
    "prox.g": ("prox.g",),
    "losses.value": ("losses.f_value", "losses.g_value"),
    "losses.envelope": ("losses.surrogate",),
    "solver": ("solver.solve", "solver.backtrack"),
}


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    dur = spans["end"] - spans["start"]
    child = np.bincount(spans["parent"] + 1, weights=dur,
                        minlength=dur.size + 1)[1:]
    return dur - child


def loss_shares(spans, losses):
    """Per loss, the share of solve time each layer spends in its own
    code; the layers partition the solve, so each row sums to one."""
    name, self_t = spans["name"], self_times(spans)
    loss_of = np.asarray([s["loss"] for s in spans["solves"]] + [""])[spans["solve"]]
    table = {}
    for loss in losses:
        in_loss = loss_of == loss
        total = float(self_t[in_loss].sum())
        if total:
            table[loss] = {
                layer: float(self_t[in_loss & np.isin(name, [CODE[n] for n in names])].sum()) / total
                for layer, names in SHARE_LAYERS.items()
            }
    return table


def layer_metrics(spans, losses, extra_missing=()):
    """Per-layer metrics from merged spans.

    Returns ``(metrics, missing)``: metric name -> (value, unit), and the
    names of metrics whose hook is absent or recorded nothing.
    """
    name, solves = spans["name"], spans["solves"]
    dur = spans["end"] - spans["start"]
    self_t = self_times(spans)
    loss_of = np.asarray([s["loss"] for s in solves] + [""])[spans["solve"]]
    steps = sum(s["steps"] for s in solves)
    missing = set(extra_missing)
    m = {}

    def mask(*names):
        return np.isin(name, [CODE[n] for n in names])

    def count(*names):
        return int(np.sum(mask(*names)))

    def ms(values, *names, where=True):
        return 1000.0 * float(values[mask(*names) & where].sum())

    def per(total):
        return total / steps if steps else 0.0

    def put(key, value, unit, *needs):
        if all(count(n) for n in needs) and not missing.intersection(needs):
            m[key] = (value, unit)
        else:
            missing.add(key)

    maps = ("maps.eval", "maps.jt_vec")
    evals, jts = count("maps.eval"), count("maps.jt_vec")
    solve_ms, maps_ms = ms(dur, "solver.solve"), ms(self_t, *maps)
    put("maps.eval_per_iter", per(evals), "count", "maps.eval")
    put("maps.jt_vec_per_iter", per(jts), "count", "maps.jt_vec")
    put("maps.matvecs_per_iter", per(evals + 2 * jts), "count", *maps)
    if solves and all(count(n) for n in maps):
        sid = spans["solve"]
        products = (np.bincount(sid[mask("maps.eval") & (sid >= 0)], minlength=len(solves))
                    + 2 * np.bincount(sid[mask("maps.jt_vec") & (sid >= 0)],
                                      minlength=len(solves)))
        size = np.asarray([s["n"] * s["d"] for s in solves], dtype=float)
        # bytes of A a product reads, computed: n*d float64 entries
        put("maps.mb_per_iter", per(8.0 * float(np.dot(products, size)) / 1e6),
            "MB", *maps)
    else:
        missing.add("maps.mb_per_iter")
    put("maps.ms_per_iter", per(maps_ms), "ms", *maps)
    put("maps.share", maps_ms / solve_ms if solve_ms else 0.0, "ratio",
        *maps, "solver.solve")

    put("prox.f_ms_per_iter", per(ms(dur, "prox.f")), "ms", "prox.f")
    put("prox.g_ms_per_iter", per(ms(dur, "prox.g")), "ms", "prox.g")
    put("prox.calls_per_iter", per(count("prox.f", "prox.g")), "count",
        "prox.f", "prox.g")
    put("losses.value_ms_per_iter",
        per(ms(self_t, "losses.f_value", "losses.g_value")), "ms",
        "losses.f_value", "losses.g_value")
    put("losses.envelope_self_ms_per_iter", per(ms(self_t, "losses.surrogate")),
        "ms", "losses.surrogate")

    for loss in losses:
        in_loss = loss_of == loss
        loss_ms = ms(dur, "solver.solve", where=in_loss)

        def share(part):
            return part / loss_ms if loss_ms else 0.0

        put(f"maps.share.{loss}", share(ms(self_t, *maps, where=in_loss)),
            "ratio", *maps, "solver.solve")
        put(f"prox.g_share.{loss}", share(ms(dur, "prox.g", where=in_loss)),
            "ratio", "prox.g", "solver.solve")
        put(f"solver.iterations.{loss}",
            sum(s["steps"] for s in solves if s["loss"] == loss), "count",
            "solver.solve")

    put("solver.backtracks_per_iter", per(sum(s["backtracks"] for s in solves)),
        "count", "solver.solve")
    put("solver.evals_per_iter", per(count("losses.surrogate")), "count",
        "losses.surrogate")
    roundoff = [s["roundoff"] for s in solves]
    if solves and None not in roundoff:
        put("solver.roundoff_limited_steps", sum(roundoff), "count", "solver.solve")
    else:
        missing.add("solver.roundoff_limited_steps")
    put("solver.line_search_ms_per_iter", per(ms(dur, "solver.backtrack")), "ms",
        "solver.backtrack")
    put("solver.self_ms_per_iter", per(ms(self_t, "solver.solve")), "ms",
        "solver.solve")

    for key, span in (("retrieval.generate_ms", "retrieval.generate"),
                      ("retrieval.spectral_init_ms", "retrieval.spectral_init")):
        calls = count(span)
        put(key, ms(dur, span) / calls if calls else 0.0, "ms", span)
    return m, missing

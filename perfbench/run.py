"""Benchmark of the dcvs solver and sweep, run from the repository root:

    python3 perfbench/run.py --workload solve-d100 --seed 0 --seconds 30 --trace 0

Workloads: solve-d100, solve-d400, sweep-reduced (see perfbench/README.md).
``--trace 0`` times repeated untraced passes and reports the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer split.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Thread pools numpy's BLAS may start; iteration counts differ between
# one and two BLAS threads, so every process of the benchmark uses one.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBES = 4
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import dcvs; "
                "print(time.perf_counter() - t)")
WORKLOAD_NAMES = ("solve-d100", "solve-d400", "sweep-reduced")


def pin_environment():
    """One BLAS thread for this process and its children, and no
    ``DCVS_WORKERS`` override of the sweep's worker count.  Must run
    before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DCVS_WORKERS", None)


def probe_import_seconds():
    """Time ``import dcvs`` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                             capture_output=True, text=True, check=True,
                             cwd=ROOT, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest finished child
    (a pool worker), as getrusage reports them."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            path = os.path.join(base, entry)
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def environment(workers):
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps["blas"].get(key)
                for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "caches": cache_sizes(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def check_passes(passes, fingerprint):
    """Failed solves across passes, plus one per pass whose fingerprint
    differs from the first pass's."""
    prints = [fingerprint(p.outcomes) for p in passes]
    failures = [f"{o.loss} n={o.n} p_fail={o.p_fail} seed={o.seed}: {o.failure}"
                for p in passes for o in p.outcomes if o.failure]
    failures += [f"pass {i} fingerprint {fp} != {prints[0]}"
                 for i, fp in enumerate(prints) if fp != prints[0]]
    return prints[0], failures


def per_loss_lines(outcomes):
    by_loss = {}
    for o in outcomes:
        it, ok, k = by_loss.get(o.loss, (0, 0, 0))
        by_loss[o.loss] = (it + o.iterations, ok + o.success, k + 1)
    return [f"  {loss}: iterations {it}, success {ok}/{k}"
            for loss, (it, ok, k) in by_loss.items()]


def run_timed(wl, workloads, seconds, import_s):
    clock = time.perf_counter
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        wl.setup()
        setup_times.append(clock() - t0)

    passes, start, last = [], clock(), 0.0
    while not passes or clock() - start + last <= seconds:
        t0 = clock()
        passes.append(wl.run_pass())
        last = clock() - t0
    rss = peak_rss_mb()
    imports = [import_s] + probe_import_seconds()

    fp, failures = check_passes(passes, workloads.fingerprint)
    first = passes[0].outcomes
    attempted = sum(len(p.outcomes) for p in passes)
    # every pass repeats the same solves, so their samples are pooled
    step_ms = workloads.ms_per_iter([o for p in passes for o in p.outcomes])
    reference_ms = statistics.median(t for p in passes for t in p.reference_ms)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "ms_per_iter": (step_ms, "ms"),
        "ms_per_iter_rel": (step_ms / reference_ms, "ratio"),
        "reference_ms": (reference_ms, "ms"),
        "success_rate": (sum(o.success for o in first) / len(first), "ratio"),
        "failed_share": (len(failures) / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [f"passes {len(passes)}, solves per pass {len(first)}, "
             f"steps per pass {sum(o.iterations for o in first)}",
             f"fingerprint {fp}",
             "pass wall_s " + " ".join(f"{p.wall_s:.4f}" for p in passes),
             "pass ms_per_iter " + " ".join(
                 f"{workloads.ms_per_iter(p.outcomes):.4f}" for p in passes),
             "pass reference_ms " + " ".join(
                 f"{statistics.median(p.reference_ms):.4f}" for p in passes),
             ] + per_loss_lines(first)
    return metrics, lines, failures, attempted


def bench_metrics(untraced):
    """Layer ``bench`` from the untraced pass: how well the workers were
    kept busy and which work item held the result back."""
    outcomes = untraced.outcomes
    items = {}
    for o in outcomes:
        key = (o.n, o.p_fail, o.seed)
        items[key] = items.get(key, 0.0) + o.seconds
    busy = sum(o.seconds for o in outcomes)
    return {
        "bench.pool_efficiency": (busy / (untraced.workers * untraced.wall_s), "ratio"),
        "bench.straggler_s": (max(items.values()), "s"),
        "bench.emit_ms": (1000.0 * untraced.emit_s, "ms"),
        "bench.trials": (len(outcomes), "count"),
        "bench.failed": (sum(1 for o in outcomes if o.failure), "count"),
    }


def run_traced(wl, workloads, name, seed):
    import numpy as np

    import tracing

    tracer = tracing.Tracer()
    sweep = name == "sweep-reduced"
    wl.setup(None if sweep else tracer)
    untraced = wl.run_pass()
    hooks = tracing.Hooks(tracer, sweep=sweep)
    try:
        traced = wl.run_pass(None if sweep else tracer)
    finally:
        hooks.restore()
    spans = tracing.merge([tracer.export()] + traced.trial_spans)

    metrics, missing = tracing.layer_metrics(spans, workloads.LOSSES, tracer.missing)
    metrics.update(bench_metrics(untraced))
    metrics["trace.overhead"] = (traced.wall_s / untraced.wall_s - 1.0, "ratio")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-spans")
    np.savez(stem + ".npz", names=np.asarray(tracing.SPAN_NAMES),
             **{k: v for k, v in spans.items() if k != "solves"})
    with open(stem + "-solves.json", "w", encoding="utf-8") as fh:
        json.dump(spans["solves"], fh)

    fp, failures = check_passes([untraced, traced], workloads.fingerprint)
    sid = spans["solve"]
    counts = {
        "steps": sum(s["steps"] for s in spans["solves"]),
        "maps.eval_calls": int(np.sum((spans["name"] == tracing.CODE["maps.eval"]) & (sid >= 0))),
        "maps.jt_vec_calls": int(np.sum((spans["name"] == tracing.CODE["maps.jt_vec"]) & (sid >= 0))),
        "spans": int(spans["name"].size),
    }
    lines = [f"fingerprint {fp}",
             f"untraced wall_s {untraced.wall_s:.4f} s, traced wall_s {traced.wall_s:.4f} s",
             "counts " + json.dumps(counts, sort_keys=True),
             f"spans written to {os.path.relpath(stem, ROOT)}.npz"]
    lines += per_loss_lines(untraced.outcomes)
    for loss, shares in tracing.loss_shares(spans, workloads.LOSSES).items():
        lines.append(f"  {loss} layer shares: " + ", ".join(
            f"{layer} {share:.3f}" for layer, share in shares.items()))
    if missing:
        lines.append("missing (hook absent or never reached): " + ", ".join(sorted(missing)))
    attempted = len(untraced.outcomes) + len(traced.outcomes)
    return metrics, lines, failures, attempted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "dcvs", "__init__.py")):
        print(f"perfbench: no dcvs sources under {SRC}", file=sys.stderr)
        return 2

    pin_environment()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import dcvs  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0
    import workloads

    workers = len(os.sched_getaffinity(0))
    env = environment(workers)
    print("env " + json.dumps(env, sort_keys=True))
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    wl = workloads.make_workload(args.workload, args.seed, out_dir, workers)
    if args.trace:
        metrics, lines, failures, attempted = run_traced(wl, workloads, args.workload, args.seed)
    else:
        metrics, lines, failures, attempted = run_timed(wl, workloads, args.seconds, import_s)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    for failure in failures:
        print("FAILED " + failure)

    # The JSON carries the metrics BENCHMARK.json lists; wall_s and
    # success_rate stay printed above, and failed_share is failed/attempted.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["end_to_end" if not args.trace else "per_layer"]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": metrics[key][0], "unit": metrics[key][1]}
                    for key in wanted if key in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark's exact counts.  Run from the repository
root (they take about a minute):

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
EXACT = ("maps.matvecs_per_iter", "maps.eval_per_iter", "maps.jt_vec_per_iter",
         "solver.roundoff_limited_steps", "solver.backtracks_per_iter",
         "solver.evals_per_iter", "prox.calls_per_iter")


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    fields = dict(line.split(" ", 1) for line in lines[:-1] if " " in line)
    return json.loads(lines[-1]), fields


@pytest.fixture(scope="module")
def traced_d100():
    return [parse(run_bench("solve-d100", 0, 1)) for _ in range(2)]


def test_same_seed_gives_identical_counts(traced_d100):
    (first, first_fields), (second, second_fields) = traced_d100
    assert first["correct"] and second["correct"]
    assert first_fields["fingerprint"] == second_fields["fingerprint"]
    assert first_fields["counts"] == second_fields["counts"]
    keys = [k for k in first["metrics"]
            if k.startswith("solver.iterations.") or k in EXACT]
    assert len(keys) == 4 + len(EXACT)
    for key in keys:
        assert first["metrics"][key] == second["metrics"][key], key


def test_matvecs_per_iter_matches_call_counts(traced_d100):
    result, fields = traced_d100[0]
    counts = json.loads(fields["counts"])
    expected = (counts["maps.eval_calls"] + 2 * counts["maps.jt_vec_calls"]) / counts["steps"]
    assert result["metrics"]["maps.matvecs_per_iter"]["value"] == expected
    steps = sum(result["metrics"][f"solver.iterations.{loss}"]["value"]
                for loss in ("l1", "mcp", "capped_l1", "trimmed_l1"))
    assert steps == counts["steps"]


def test_roundoff_counter_sees_the_known_defect(traced_d100):
    # The surrogate difference cancels catastrophically (ROADMAP item 1):
    # at base seed 0 some trimmed_l1 line searches decide below rounding
    # error.  When that fix lands this expectation becomes zero.
    result, _ = traced_d100[0]
    assert result["metrics"]["solver.roundoff_limited_steps"]["value"] > 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench("solve-d100", 0, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

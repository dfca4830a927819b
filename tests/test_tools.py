"""The scripts in tools/ run to completion and print what their docstrings
promise: each change's bit-identity check and roundoff band rest on
yardstick.py."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
LOSSES = ("l1", "mcp", "capped_l1", "trimmed_l1")


def run_tool(name, *args, cwd):
    proc = subprocess.run([sys.executable, str(TOOLS / name), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().split("\n")


def test_yardstick_block_is_repeatable(tmp_path):
    # d=200 puts spectral_init's form in three panels; d=8 builds it in
    # one product
    for d, n in ((8, 40), (200, 1000)):
        runs = [run_tool("yardstick.py", "--d", d, "--n", n, "--seeds", 1, cwd=tmp_path)
                for _ in range(2)]
        lines = runs[0]
        assert lines[0] == f"d={d} n={n} p_fail=0.4 seeds 0-0, shipped start and 0 one-ulp starts"
        assert [line.split()[:2] for line in lines[2:6]] == [[loss, "shipped"] for loss in LOSSES]
        assert re.fullmatch(r"sha256 [0-9a-f]{16}", lines[6])
        assert len(lines) == 7
        assert runs[1] == runs[0]


def test_yardstick_keeps_the_solve_bits(tmp_path):
    # the hash lines of two blocks: like the panel edges of
    # test_spectral_form_panels_keep_the_single_product_bits, they belong
    # to OpenBLAS's SkylakeX core on one thread (the count yardstick.py
    # pins), and a change declared to move the numbers updates them
    for args, digest in ((("--seeds", 4), "632745d83b099f06"),
                         (("--d", 400, "--n", 4000, "--seeds", 1), "8dce35a6135ed729")):
        assert run_tool("yardstick.py", *args, cwd=tmp_path)[-1] == f"sha256 {digest}"


def test_yardstick_rejects_an_empty_block(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOLS / "yardstick.py"), "--seeds", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "--seeds must be at least 1" in proc.stderr


def test_yardstick_rejects_a_workerless_sweep(tmp_path):
    # refused while parsing, before the config loads: the path does not exist
    proc = subprocess.run([sys.executable, str(TOOLS / "yardstick.py"), "--sweep",
                           "absent.json", "--workers", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "--workers must be at least 1" in proc.stderr


def test_yardstick_rejects_sweep_flags_without_a_sweep(tmp_path):
    # a block run would ignore them: no DIR written, absent.csv never read
    proc = subprocess.run([sys.executable, str(TOOLS / "yardstick.py"), "--d", "8", "--n", "40",
                           "--seeds", "1", "--compare", "absent.csv", "--out", "DIR",
                           "--start", "3"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "--start, --out, --compare apply only with --sweep" in proc.stderr
    assert not (tmp_path / "DIR").exists()


def test_yardstick_sweep_workers_agree(tmp_path):
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "d": 8, "n_over_d": [5], "p_fail": [0.2], "trials": 2, "base_seed": 7,
        "losses": [{"name": "l1"}], "solver": {"max_iters": 40},
    }), encoding="utf-8")
    serial, pooled = (run_tool("yardstick.py", "--sweep", config, "--workers", workers,
                               cwd=tmp_path) for workers in (1, 2))
    assert serial[0] == "sweep toy.json, time cap off, start shipped"
    assert [line.split()[-1] for line in serial[2:]] == ["summary.csv", "trials.csv",
                                                         "heatmap_l1.csv"]
    assert all(re.fullmatch(r"sha256 [0-9a-f]{16}  \S+", line) for line in serial[2:])
    assert pooled[2:] == serial[2:]


def test_code_lines_prints_a_total(tmp_path):
    lines = run_tool("code_lines.py", ROOT / "src" / "dcvs", cwd=tmp_path)
    count, label = lines[-1].split()
    assert label == "total" and int(count) > 0
    assert len(lines) == 1 + len(list((ROOT / "src" / "dcvs").rglob("*.py")))


def test_yardstick_block_prints_a_band(tmp_path):
    lines = run_tool("yardstick.py", "--d", 8, "--n", 40, "--seeds", 1, "--starts", 2,
                     cwd=tmp_path)
    assert lines[0] == "d=8 n=40 p_fail=0.4 seeds 0-0, shipped start and 2 one-ulp starts"
    assert lines[1].split() == ["loss", "start", "successes", "iterations", "roundoff",
                                "floor", "rel_tol", "stationary", "max_iters", "time_cap"]
    rows = [line.split() for line in lines[2:-1]]
    assert re.fullmatch(r"sha256 [0-9a-f]{16}", lines[-1])
    assert [row[:2] for row in rows] == [[loss, start] for loss in LOSSES
                                         for start in ("shipped", "band")]
    for shipped, band in zip(rows[::2], rows[1::2]):
        # one solve per loss and start: its termination counts sum to 1
        assert sum(int(cell) for cell in shipped[6:]) == 1
        for cell in band[2:]:
            low, high = map(int, re.fullmatch(r"(\d+)-(\d+)", cell).groups())
            assert low <= high


def test_yardstick_sweep_counts_flips(tmp_path):
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "d": 8, "n_over_d": [5], "p_fail": [0.1], "trials": 3, "base_seed": 3,
        "losses": [{"name": "l1"}, {"name": "capped_l1", "beta": 10}],
        "solver": {"max_iters": 300},
    }), encoding="utf-8")
    shipped = run_tool("yardstick.py", "--sweep", config, "--out", tmp_path / "shipped",
                       cwd=tmp_path)
    assert shipped[0] == "sweep toy.json, time cap off, start shipped"
    assert (tmp_path / "shipped" / "trials.csv").is_file()
    again = run_tool("yardstick.py", "--sweep", config, "--workers", 1, "--compare",
                     tmp_path / "shipped" / "trials.csv", cwd=tmp_path)
    # the same start at another worker count flips nothing and writes the
    # same cells; lines 1-2 are the two labels, the digest lines follow
    assert again[1:] and [line.split(", seconds")[0] for line in again[1:]] == \
        [line.split(", seconds")[0] for line in shipped[1:]]
    assert all(line.endswith(", flips +0/-0") for line in again[1:3])
    # one worker: a perturbed start reaches pool workers only where they fork
    moved = run_tool("yardstick.py", "--sweep", config, "--start", 0, "--workers", 1,
                     "--compare", tmp_path / "shipped" / "trials.csv", cwd=tmp_path)
    assert moved[0] == "sweep toy.json, time cap off, start 0"
    assert [line.split(":")[0] for line in moved[1:3]] == ["l1", "capped_l1_beta10"]
    assert all(re.search(r", flips \+\d+/-\d+$", line) for line in moved[1:3])


def test_yardstick_compare_may_name_the_trials_that_out_overwrites(tmp_path):
    def sweep(max_iters, *args, check=True):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({
            "d": 8, "n_over_d": [8], "p_fail": [0.0], "trials": 3, "base_seed": 3,
            "losses": [{"name": "l1"}], "solver": {"max_iters": max_iters},
        }), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(TOOLS / "yardstick.py"), "--sweep", config,
                               "--workers", "1", *map(str, args)],
                              cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0 or not check, proc.stderr
        return proc

    trials = tmp_path / "record" / "trials.csv"
    sweep(2, "--out", trials.parent)
    header, *rows = trials.read_text(encoding="utf-8").splitlines()
    # two steps succeed nowhere and 2000 everywhere: the flips show only if
    # the record is read before the second sweep overwrites it
    assert sweep(2000, "--out", trials.parent, "--compare", trials).stdout.split("\n")[1] \
        .endswith(", flips +3/-0")
    short = tmp_path / "short.csv"
    short.write_text("\n".join([header, *rows[:2]]) + "\n", encoding="utf-8")
    lacking = sweep(2, "--compare", short, check=False)
    assert lacking.returncode == 1
    assert "short.csv lacks this sweep's row n=64, p_fail=0.0" in lacking.stderr
    assert "loss=l1, trial=2" in lacking.stderr
    # a missing record fails before the sweep writes anything
    missing = sweep(2, "--out", tmp_path / "never", "--compare", tmp_path / "absent.csv",
                    check=False)
    assert missing.returncode == 1 and "absent.csv" in missing.stderr
    assert not (tmp_path / "never").exists()

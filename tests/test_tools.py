"""The scripts in tools/ run to completion and print what their docstrings
promise: each change's bit-identity check rests on record_hash.py."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def run_tool(name, *args, cwd):
    proc = subprocess.run([sys.executable, str(TOOLS / name), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().split("\n")


def test_record_hash_block_is_repeatable(tmp_path):
    # d=200 puts spectral_init's form in two row blocks; d=100, the
    # default, builds it in one product
    for d, n in ((8, 40), (200, 1000)):
        runs = [run_tool("record_hash.py", "--d", d, "--n", n, "--seeds", 1, cwd=tmp_path)
                for _ in range(2)]
        lines = runs[0]
        assert lines[0] == f"d={d} n={n} p_fail=0.4 seeds 0-0"
        assert [line.split()[0] for line in lines[1:5]] == ["l1", "mcp", "capped_l1",
                                                            "trimmed_l1"]
        assert all(" iterations " in line for line in lines[1:5])
        assert re.fullmatch(r"sha256 [0-9a-f]{16}", lines[5])
        assert len(lines) == 6
        assert runs[1] == runs[0]


def test_record_hash_sweep_workers_agree(tmp_path):
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "d": 8, "n_over_d": [5], "p_fail": [0.2], "trials": 2, "base_seed": 7,
        "losses": [{"name": "l1"}], "solver": {"max_iters": 40},
    }), encoding="utf-8")
    lines = run_tool("record_hash.py", "--sweep", config, cwd=tmp_path)
    assert lines[0] == "sweep toy.json, time cap off: workers 1 and 2 agree"
    assert [line.split()[-1] for line in lines[1:]] == ["summary.csv", "trials.csv",
                                                        "heatmap_l1.csv"]
    assert all(re.fullmatch(r"sha256 [0-9a-f]{16}  \S+", line) for line in lines[1:])


def test_code_lines_prints_a_total(tmp_path):
    lines = run_tool("code_lines.py", ROOT / "src" / "dcvs", cwd=tmp_path)
    count, label = lines[-1].split()
    assert label == "total" and int(count) > 0
    assert len(lines) == 1 + len(list((ROOT / "src" / "dcvs").rglob("*.py")))

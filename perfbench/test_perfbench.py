"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SMALL = [
    ["signchanges", "--seeds", "4", "--x-max", "20000"],
    ["simulate", "--seed", "3", "--x-max", "20000"],
    ["concentration", "--trials", "200", "--prime-limit", "2000", "--ell-max", "3"],
    ["chaining", "--seeds", "3", "--ells", "3", "--prime-limit", "10000", "--r-max", "6"],
    ["sup-scan", "--seed", "1", "--sigma-grid", "0.7", "--prime-limit", "10000"],
    ["verify", "constants", "--n-primes", "20000", "--claim1-n", "100000",
     "--chebyshev-limit", "100000"],
    ["prime-sums", "--claim1-n", "100000", "--prime-limit", "100000"],
]
COUNTERS = ("rmf.hash_count", "rmf.trace_values", "chaining.grid_cells", "rmf.sup_scan_cells",
            "prime_series.terms", "primes.sieved", "concentration.hash_per_sign")

TRACED_PASS = """
import json, sys
from pathlib import Path
sys.path.insert(0, {here!r})
import worker
from tracer import Tracer
result = worker.run_pass({cmds!r}, Path({out!r}), seed=1, tracer=Tracer())
print(json.dumps(result["layers"]))
"""


def traced_layers(out: Path) -> dict:
    """Layer metrics of the small commands, traced in a fresh interpreter."""
    code = TRACED_PASS.format(here=str(HERE), cmds=SMALL, out=str(out))
    env = dict(os.environ, RMFLAB_THREADS="2", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_counters_repeat_exactly(tmp_path):
    first, second = traced_layers(tmp_path / "a"), traced_layers(tmp_path / "b")
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}
    assert first["concentration.hash_per_sign"] == 3.0  # ells 1..3 rehash one matrix
    assert first["rmf.trace_values"] == 4 * 20000 + 20000
    assert first["chaining.grid_cells"] == (2**6 + 1) * 1229  # pi(10^4) = 1229
    # verify and prime-sums each sum the 50-sigma grid; pi(10^5) = 9592
    assert first["prime_series.terms"] == 20000 + 2 * 50 * 9592
    assert first["rmf.hash_count"] > 0 and first["primes.sieved"] > 0
    assert 0.0 < first["primes.cache_hit_ratio"] < 1.0
    assert 0.0 < first["trace.coverage"] <= 1.0
    assert all(first[f"cli.{c}_s"] > 0.0 for c in workloads.CHECKS)


def _write_run(directory: Path, command: str, config: dict, files: dict[str, str]) -> None:
    directory.mkdir()
    (directory / f"{command}-config-0123456789ab.json").write_text(json.dumps(config))
    for kind, text in files.items():
        (directory / f"{command}-{kind.replace('.', '-0123456789ab.', 1)}").write_text(text)


def test_reference_check_accepts_reference_and_rejects_changes(tmp_path):
    ref = {p.name[len("simulate-"):]: p.read_text()
           for p in workloads.REF_DIR.glob("simulate-*")}
    config = {"x_max": 10**6, "seed": 0}
    _write_run(tmp_path / "same", "simulate", config, ref)
    assert workloads.check_command("simulate", 0, tmp_path / "same", 0, {}) == []

    changed = dict(ref, **{"summary.json": ref["summary.json"].replace("640", "642")})
    _write_run(tmp_path / "changed", "simulate", config, changed)
    bad = workloads.check_command("simulate", 0, tmp_path / "changed", 0, {})
    assert "summary.json differs from reference" in bad
    # Off the reference seed only the predicates apply; 642 still has the right parity.
    assert workloads.check_command("simulate", 0, tmp_path / "changed", 5, {}) == []
    assert workloads.check_command("simulate", 1, tmp_path / "same", 5, {}) == ["exit code 1"]


def test_same_value_tolerance():
    assert workloads.same_value(1.0, 1.0 + 1e-15)
    assert not workloads.same_value(1.0, 1.0 + 1e-9)
    assert not workloads.same_value(1, True)
    assert workloads.same_value({"a": 1, "seconds": 2.0}, {"a": 1, "seconds": 9.0})
    assert workloads.num("np.float64(2.5)") == 2.5


def test_squarefree_count():
    assert [workloads.squarefree_count(n) for n in (1, 10, 100)] == [1, 7, 61]
    assert workloads.squarefree_count(10**6) == 607926


def _run_bench(root: Path, **env) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "certify",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=root, env=dict(os.environ, **env), capture_output=True,
                          text=True, timeout=120)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


@pytest.mark.parametrize("var", ["RMFLAB_THREADS", "OPENBLAS_NUM_THREADS"])
def test_refuses_thread_count_above_nproc(var):
    proc = _run_bench(ROOT, **{var: str(len(os.sched_getaffinity(0)) + 1)})
    assert proc.returncode != 0 and proc.stdout.strip() == ""
    assert "nproc" in proc.stderr

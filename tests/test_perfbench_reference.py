"""`prime-sums` at its default config, `verify constants` and the commands of every workload at
seed 0 must reproduce the benchmark's seed-0 reference files `perfbench/ref/seed0/` under the
benchmark's own comparison (`perfbench/workloads.same_file`: integers, booleans and strings
exactly, floats to a relative 1e-12), so a change to the certified sums, the sign hash, the
multiplicative extension or the batched prime-sum, chaining and sup-scan kernels that moves a
published value further than that fails here, not only in a benchmark run.  Nothing under
`perfbench/` is written.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rmflab import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def assert_matches_reference(command: str, out: Path) -> None:
    files = workloads.result_files(command, out)
    refs = sorted(workloads.REF_DIR.glob(f"{command}-*"))
    assert refs
    for ref in refs:
        kind = ref.name[len(command) + 1:]
        assert kind in files and workloads.same_file(files[kind], ref), kind


def test_prime_sums_match_the_benchmark_reference(tmp_path):
    assert cli.main(["prime-sums", "--output-dir", str(tmp_path)]) == 0
    assert [r.name for r in sorted(workloads.REF_DIR.glob("prime-sums-*"))] == [
        f"prime-sums-{k}" for k in ("logsq-grid.csv", "prime-zeta.csv", "zetaasym.csv")]
    assert_matches_reference("prime-sums", tmp_path)


def test_certify_sums_its_grid_once_and_matches_the_benchmark_reference(tmp_path, monkeypatch):
    # The workload's commands in its order in one process: c02 sums the 50-sigma grid and
    # `prime-sums` writes the kept one, each sigma's term built once.
    assert workloads.commands("certify", 0) == [["verify", "constants"], ["prime-sums"]]
    summed, term = [], cli.prime_series._prime_power_term

    def spy(s, table, log_squared=False):
        summed.append((s, log_squared))
        return term(s, table, log_squared)

    monkeypatch.setattr(cli.prime_series, "_prime_power_term", spy)
    monkeypatch.setattr(cli.prime_series, "_grid", None)
    for args in workloads.commands("certify", 0):
        assert cli.main([*args, "--output-dir", str(tmp_path / args[0])]) == 0
        assert_matches_reference(args[0], tmp_path / args[0])
    grid = sorted(s for s, log_squared in summed if log_squared)
    assert grid == [2.0 * round(0.51 + 0.01 * i, 2) for i in range(50)]


@pytest.mark.parametrize("args", workloads.commands("sweep", 0), ids=lambda args: args[0])
def test_sweep_matches_the_benchmark_reference(args, tmp_path):
    assert cli.main([*args, "--output-dir", str(tmp_path)]) == 0
    assert_matches_reference(args[0], tmp_path)


@pytest.mark.parametrize("args", [*workloads.commands("dense", 0), ["verify", "constants"]],
                         ids=lambda args: args[0])
def test_dense_and_constants_match_the_benchmark_reference(args, tmp_path):
    argv = [*args, "--output-dir", str(tmp_path)]
    if args[0] == "chaining":  # its gemm's bits follow the BLAS threads; the reference used 2
        src = str(Path(cli.__file__).resolve().parents[1])
        env_path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        subprocess.run([sys.executable, "-m", "rmflab.cli", *argv], check=True,
                       capture_output=True, timeout=300,
                       env=dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=env_path))
    else:
        assert cli.main(argv) == 0
    assert_matches_reference(args[0], tmp_path)

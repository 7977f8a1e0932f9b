"""`prime-sums` at its default config and the `sweep` workload's commands at seed 0 must
reproduce the benchmark's seed-0 reference files `perfbench/ref/seed0/` under the benchmark's
own comparison (`perfbench/workloads.same_file`: integers, booleans and strings exactly, floats
to a relative 1e-12), so a change to the certified sums or to the sign hash and multiplicative
extension that moves a published value further than that fails here, not only in a benchmark
run.  Nothing under `perfbench/` is written.
"""

import importlib.util
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


@pytest.mark.parametrize("args", workloads.commands("sweep", 0), ids=lambda args: args[0])
def test_sweep_matches_the_benchmark_reference(args, tmp_path):
    assert cli.main([*args, "--output-dir", str(tmp_path)]) == 0
    assert_matches_reference(args[0], tmp_path)

"""`prime-sums` at its default config must reproduce the benchmark's seed-0 reference files
`perfbench/ref/seed0/prime-sums-*.csv` under the benchmark's own comparison
(`perfbench/workloads.same_file`: integers, booleans and strings exactly, floats to a
relative 1e-12), so a change to the certified sums that moves a published value further
than that fails here, not only in a benchmark run.  Nothing under `perfbench/` is written.
"""

import importlib.util
from pathlib import Path

from rmflab import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_prime_sums_match_the_benchmark_reference(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert cli.main(["prime-sums", "--output-dir", str(tmp_path)]) == 0
    files = workloads.result_files("prime-sums", tmp_path)
    refs = sorted(workloads.REF_DIR.glob("prime-sums-*.csv"))
    assert [r.name for r in refs] == [f"prime-sums-{k}" for k in
                                      ("logsq-grid.csv", "prime-zeta.csv", "zetaasym.csv")]
    for ref in refs:
        kind = ref.name[len("prime-sums-"):]
        assert workloads.same_file(files[kind], ref), kind

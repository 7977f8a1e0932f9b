import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from rmflab import cli


def run(argv):
    return cli.main(argv)


def read_bytes_map(directory, pattern):
    return {p.name: p.read_bytes() for p in directory.glob(pattern)}


def test_simulate_writes_deterministic_results(tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--seed", "0", "--x-max", "20000", "--output-dir", str(out)]) == 0
    first = read_bytes_map(out, "simulate-*.csv") | read_bytes_map(out, "simulate-*.json")
    assert run(["simulate", "--seed", "0", "--x-max", "20000", "--output-dir", str(out)]) == 0
    second = read_bytes_map(out, "simulate-*.csv") | read_bytes_map(out, "simulate-*.json")
    assert first and first == second
    # two manifests appended, results overwritten byte-identically
    assert len(list(out.glob("manifest-*.json"))) == 2


def test_simulate_trace_and_changes_files(tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--seed", "3", "--x-max", "5000", "--output-dir", str(out)]) == 0
    trace = next(out.glob("simulate-trace-*.csv")).read_text().splitlines()
    assert trace[0] == "n,M"
    assert trace[1] == "1,1"
    assert len(trace) == 5001
    changes = next(out.glob("simulate-changes-*.csv")).read_text().splitlines()
    assert changes[0] == "index,sign_before,sign_after"
    if len(changes) > 1:
        first_change = changes[1].split(",")
        assert first_change[1] == "1" and first_change[2] == "-1"


def test_simulate_trace_lists_every_n_to_1e5_and_every_2_16th_beyond(tmp_path):
    out = tmp_path / "out"
    for x_max in (100000, 100001):
        assert run(["simulate", "--seed", "0", "--x-max", str(x_max),
                    "--output-dir", str(out / str(x_max))]) == 0
    every = next((out / "100000").glob("simulate-trace-*.csv")).read_text().splitlines()
    strided = next((out / "100001").glob("simulate-trace-*.csv")).read_text().splitlines()
    assert len(every) == 100_001 and every[65_536].startswith("65536,")
    assert strided == ["n,M", every[65_536]]


# sha256 of each result file of `simulate --x-max 100000 --seed 3`, whose trace lists every n.
SIMULATE_SEED3_SHA256 = {
    "changes.csv": "9b1b94aaa01abba0fdfdb4a8b4e88a48d4433458f9a5bafe25f64af50b961aeb",
    "summary.json": "90ce8efa551a436443354f2ce74cb693e1354a56d107e05f2cb2ea514d6b3350",
    "trace.csv": "eec92192b81f0e0e20cda0658b04a35306a8780dcf49976b9ec568266b64aa4d",
    "vf.csv": "25cd87faf074a9d94edcf4966e1b037d85af8476f8070653343d00d2e9627750",
}


def test_simulate_at_stride_one_keeps_its_result_bytes(tmp_path):
    assert run(["simulate", "--x-max", "100000", "--seed", "3", "--output-dir", str(tmp_path)]) == 0
    for kind, digest in SIMULATE_SEED3_SHA256.items():
        name, ext = kind.split(".")
        [path] = tmp_path.glob(f"simulate-{name}-*.{ext}")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, kind


def test_empty_output_dir_rejected(tmp_path, capsys):
    assert run(["simulate", "--seed", "0", "--x-max", "100", "--output-dir", ""]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x_max": 1000, "seed": 5, "output_dir": str(tmp_path / "a")}))
    assert run(["simulate", "--config", str(cfg), "--x-max", "2000"]) == 0
    summary = json.loads(next((tmp_path / "a").glob("simulate-summary-*.json")).read_text())
    assert summary["x_max"] == 2000  # flag wins
    assert summary["seed"] == 5  # file value survives


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2


def test_config_round_trip_lossless():
    base = cli.ExperimentConfig(command="simulate").to_dict()
    rebuilt = json.loads(json.dumps(base))
    assert rebuilt == base


def test_signchanges_and_report(tmp_path):
    out = tmp_path / "out"
    for _ in range(2):  # the second run rewrites the same table and adds a manifest
        assert run(
            ["signchanges", "--seeds", "8", "--x-max", "20000", "--output-dir", str(out)]
        ) == 0
    table = next(out.glob("signchanges-table-*.csv")).read_text().splitlines()
    assert table[0] == "seed,V_f,final_M"
    assert len(table) == 9
    assert run(["report", "--output-dir", str(out)]) == 0
    summary = json.loads((out / "report-summary.json").read_text())
    assert summary["headline"]["signchanges"]["count"] == 8
    assert (out / "report-signchanges.csv").exists()


def test_signchanges_thread_count_independent(tmp_path, monkeypatch):
    out1 = tmp_path / "a"
    monkeypatch.setenv("RMFLAB_THREADS", "1")
    assert run(["signchanges", "--seeds", "6", "--x-max", "10000", "--output-dir", str(out1)]) == 0
    t1 = next(out1.glob("signchanges-table-*.csv")).read_bytes()
    out2 = tmp_path / "b"
    monkeypatch.setenv("RMFLAB_THREADS", "4")
    assert run(["signchanges", "--seeds", "6", "--x-max", "10000", "--output-dir", str(out2)]) == 0
    t2 = next(out2.glob("signchanges-table-*.csv")).read_bytes()
    assert t1 == t2


def test_quantiles_equal_numpys_median_and_percentile():
    rng = np.random.default_rng(35)
    for n in range(1, 400):
        for top in (2, 300, 10**6):
            sample = rng.integers(0, top, n)
            q = cli._quantiles(sample)
            values = sample.astype(np.float64)
            assert q["median"] == float(np.median(values))
            assert (q["q1"], q["q3"]) == (float(np.percentile(values, 25)),
                                          float(np.percentile(values, 75)))
            assert (q["min"], q["max"]) == (float(values.min()), float(values.max()))


def test_signchanges_leaves_numpy_ma_unimported(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env_path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import sys; from rmflab import cli; "
            "assert cli.main(['signchanges', '--seeds', '3', '--x-max', '10000', "
            "'--output-dir', 'out']) == 0; print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, check=True,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=env_path))
    assert done.stdout.splitlines()[-1] == "False"


# Small runs of the commands whose BLAS products or thread pool could make
# their bytes follow the thread count.  70 seeds make two chunks for the pool; prime-sums'
# 50 sigma at 10^6 take two chunks each, summed on one thread or two.  verify constants walks
# c01's 10^6 primes in 8 segments and sieves c02's and c04's 10^7 in 5, inline on one thread and
# pipelined on two; its timings go to the manifest, which no case compares.
THREAD_RUNS = {
    "signchanges": ["--seeds", "70", "--x-max", "20000"],
    "sup-scan": ["--sigma-grid", "0.7,0.6", "--prime-limit", "100000"],
    "concentration": ["--trials", "200", "--prime-limit", "10000", "--ell-max", "3"],
    "chaining": ["--seeds", "4", "--ells", "3", "--prime-limit", "100000", "--r-max", "8"],
    "prime-sums": ["--claim1-n", "1000000", "--prime-limit", "100000"],
    "verify": ["constants", "--n-primes", "1000000", "--claim1-n", "10000000",
               "--chebyshev-limit", "10000000"],
}
CHAINING_GEMM = pytest.mark.xfail(
    len(os.sched_getaffinity(0)) > 1, strict=True, raises=AssertionError,
    reason="chaining's gemm bits follow OPENBLAS_NUM_THREADS (CHANGES.md; ROADMAP item 3); "
           "the row-wise fix moves max_osc past perfbench's 1e-12 and needs a reference recapture",
)


@pytest.mark.parametrize("command", [
    "signchanges", "sup-scan", "concentration", pytest.param("chaining", marks=CHAINING_GEMM),
    "prime-sums", "verify",
])
def test_thread_count_independent_across_processes(tmp_path, command):
    # The same --output-dir name under two parents gives the same config
    # digest, hence the same file names.
    src = str(Path(cli.__file__).resolve().parents[1])
    env_path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    results = []
    for threads in ("1", "2"):
        parent = tmp_path / f"threads{threads}"
        parent.mkdir()
        subprocess.run(
            [sys.executable, "-m", "rmflab.cli", command, *THREAD_RUNS[command],
             "--output-dir", "out"],
            cwd=parent, check=True, capture_output=True, timeout=300,
            env=dict(os.environ, RMFLAB_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                     PYTHONPATH=env_path),
        )
        results.append({p.name: p.read_bytes() for p in (parent / "out").glob(f"{command}-*")})
    assert len(results[0]) >= 2  # the config echo and at least one result file
    assert results[0] == results[1]


def test_simulate_after_signchanges_writes_the_files_of_a_fresh_process(tmp_path, monkeypatch):
    # signchanges leaves its factor table to 10^6 in the process; simulate reads a prefix of it,
    # and must write the bytes that simulate writes from a fresh interpreter's own table.
    src = str(Path(cli.__file__).resolve().parents[1])
    env_path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    argv = ["simulate", "--seed", "5", "--x-max", "200003", "--output-dir", "out"]
    for parent in ("fresh", "after"):
        (tmp_path / parent).mkdir()
    subprocess.run([sys.executable, "-m", "rmflab.cli", *argv], cwd=tmp_path / "fresh", check=True,
                   capture_output=True, timeout=300, env=dict(os.environ, PYTHONPATH=env_path))
    monkeypatch.chdir(tmp_path / "after")
    monkeypatch.setattr(cli.rmf, "_factors", None)
    assert run(["signchanges", "--seeds", "2", "--output-dir", "out"]) == 0
    assert run(argv) == 0 and cli.rmf._factors[0] == 10**6
    fresh, after = ({p.name: p.read_bytes() for p in (tmp_path / parent / "out").glob("simulate-*")}
                    for parent in ("fresh", "after"))
    assert len(fresh) == 5 and fresh == after  # the config echo and four result files


def test_report_without_manifests(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run(["report", "--output-dir", str(empty)]) == 2


def test_verify_constants_scaled_down(tmp_path):
    # k_max is read only by `verify all`, so `verify constants` ignores a bad one.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_max": 0}))
    out = tmp_path / "v"
    argv = [
        "verify",
        "constants",
        "--config", str(cfg),
        "--n-primes", "1000000",
        "--claim1-n", "1000000",
        "--chebyshev-limit", "1000000",
        "--output-dir", str(out),
    ]
    assert run(argv) == 0
    first = read_bytes_map(out, "verify-*")
    checks = json.loads(next(out.glob("verify-checks-*.json")).read_text())["checks"]
    assert [c["name"] for c in checks] == [
        "euler-tail-constant",
        "log-weighted-bound-grid",
        "zeta-asymptotic-ratio",
        "chebyshev-two-over-log",
    ]
    assert all(c["passed"] for c in checks)
    # A second run rewrites byte-identical result files; wall times go to the manifests.
    assert run(argv) == 0
    assert len(first) == 3 and read_bytes_map(out, "verify-*") == first
    for manifest in out.glob("manifest-*.json"):
        assert sorted(json.loads(manifest.read_text())["seconds"]) == sorted(
            c["name"] for c in checks)


# verify all at scaled-down sizes, from a config file.
SCALED_VERIFY_ALL = {
    "n_primes": 10**6, "claim1_n": 10**6, "chebyshev_limit": 10**6, "trials": 2000,
    "x_max": 20000, "seeds": 10, "prime_limit": 10**5, "ells": [3], "r_max": 8,
}


def run_scaled_verify_all(tmp_path, **overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SCALED_VERIFY_ALL | overrides))
    out = tmp_path / "va"
    code = run(["verify", "all", "--config", str(cfg), "--output-dir", str(out)])
    return code, json.loads(next(out.glob("verify-checks-*.json")).read_text())["checks"]


def test_verify_all_scaled_down(tmp_path):
    code, checks = run_scaled_verify_all(tmp_path)
    assert code == 0
    assert [c["name"] for c in checks] == list(cli.VERIFY_CHECKS)
    assert len(checks) == 13
    assert all(c["passed"] for c in checks)


def test_verify_all_gates_borel_cantelli_as_the_acceptance_test_does(tmp_path):
    # At gamma = 0.1 the step-2 series converges slowly: |S800 - S400| = 1.05e-8
    # and tail_400 = 1.06e-8, so c09's Cauchy test at 1e-10 fails.
    code, checks = run_scaled_verify_all(tmp_path, gamma=0.1)
    assert code == 1
    assert len(checks) == 13
    bc = next(c for c in checks if c["name"] == "borel-cantelli-series")
    assert bc["passed"] is False
    assert 1e-10 < bc["detail"]["tail_400"] < 1e-7
    assert [c["name"] for c in checks if not c["passed"]] == ["borel-cantelli-series"]


def test_verify_fails_with_too_few_primes(tmp_path):
    # With only 100 primes the certified upper bound exceeds the target window.
    out = tmp_path / "v"
    code = run(
        [
            "verify",
            "constants",
            "--n-primes", "100",
            "--claim1-n", "1000000",
            "--chebyshev-limit", "1000000",
            "--output-dir", str(out),
        ]
    )
    assert code == 1


# A dict stands for a config file with that content: ell_min > ell_max leaves c07
# no rows, ell_min = 0 has no sigma_ell, c13 needs seeds, c12 an ell >= 2 and
# c05 and c13 an x_max >= 1.  The last seven used to be refused only inside the check
# that reads them, after c01 had run: c06 and c12 read prime_limit, c07 and c09 epsilon
# and gamma, c11 c, a0 and a1.
@pytest.mark.parametrize("extra", [["--trials", "10"], {"ell_min": 9}, {"ell_min": 0},
                                   {"seeds": 0}, {"ells": [1]}, {"x_max": 0},
                                   {"prime_limit": 1}, {"epsilon": 3.0}, {"gamma": -1.0},
                                   {"gamma": math.nan}, {"c": 1.5}, {"a0": 0.5}, {"a1": 0.5}])
def test_verify_all_rejects_too_few_trials_before_any_check(extra, tmp_path, monkeypatch, capsys):
    ran = []
    for name in cli.VERIFY_CHECKS:
        monkeypatch.setitem(cli.VERIFY_CHECKS, name, lambda cfg, name=name: ran.append(name) or (True, {}))
    if isinstance(extra, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(extra))
        extra = ["--config", str(cfg)]
    out = tmp_path / "v"
    assert run(["verify", "all", *extra, "--output-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


# Each bad value used to surface only inside its check, after c01 had sieved to
# 1.69e8; claim1_n below e^(1/0.51) fails c02's tail bound.
@pytest.mark.parametrize("target", ["constants", "all"])
@pytest.mark.parametrize("flag, value", [("--n-primes", "0"), ("--claim1-n", "7"),
                                         ("--chebyshev-limit", "1")])
def test_verify_rejects_a_bad_constant_size_before_any_check(
        target, flag, value, tmp_path, monkeypatch, capsys):
    ran = []
    for name in cli.VERIFY_CHECKS:
        monkeypatch.setitem(cli.VERIFY_CHECKS, name, lambda cfg, name=name: ran.append(name) or (True, {}))
    out = tmp_path / "v"
    assert run(["verify", target, flag, value, "--output-dir", str(out)]) == 2
    assert f"must be >= {int(value) + 1}, got {value}" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


# A command at small sizes, and the float fields it reads.
NAN_FIELD_COMMANDS = [
    (["sequences", "--k-max", "2"], ("c", "a0", "a1")),
    (["concentration", "--trials", "100", "--prime-limit", "1000", "--ell-max", "2"],
     ("epsilon", "gamma")),
    (["sup-scan", "--prime-limit", "1000"], ("sigma_grid", "grid_step", "c0", "c1", "c2")),
]


@pytest.mark.parametrize("key", [key for key, (kind, _) in cli._KINDS.items() if kind is float])
def test_a_nan_float_field_is_refused_with_exit_2(key, tmp_path, capsys):
    [argv] = [argv for argv, keys in NAN_FIELD_COMMANDS if key in keys]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: [math.nan] if cli._KINDS[key][1] else math.nan}))
    out = tmp_path / "out"
    assert run([*argv, "--config", str(cfg), "--output-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_sequences_command(tmp_path):
    out = tmp_path / "s"
    assert run(["sequences", "--k-max", "6", "--output-dir", str(out)]) == 0
    rows = next(out.glob("sequences-table-*.csv")).read_text().splitlines()
    assert rows[0].startswith("k,sigma_k")
    assert len(rows) == 7
    assert all(r.endswith("True") for r in rows[1:])


def test_sequences_table_text(tmp_path):
    # k = 1 has loglog y_1 < 0 (printed as log y_1 with @d1) and is not disjoint
    # from k = 2; sigma_2 prints as 0.5 although its gap has not underflowed.
    out = tmp_path / "s"
    argv = ["sequences", "--k-max", "3", "--c", "2.5", "--a1", "5", "--output-dir", str(out)]
    assert run(argv) == 0
    assert next(out.glob("sequences-table-*.csv")).read_text() == (
        "k,sigma_k,sigma_underflow,y_k_mantissa,X_k_mantissa,disjoint_with_next\n"
        "1,0.5659880358453125,False,0.008842622201811725@d1,5.4365636569180902@d2,False\n"
        "2,0.5,False,0.34040513797742378@d2,572.49352770878647@d2,True\n"
        "3,0.5,True,588739.91554012336@d2,11776357.156529279@d2,True\n"
    )


@pytest.mark.parametrize("argv", [["--c", "250"], ["--c", "1000", "--k-max", "3"]])
def test_sequences_where_k_to_the_c_passes_the_float_range(argv, tmp_path):
    # k^c passes the float range at k = 20 for c >= 237 and at k = 3 for c = 1000.
    out = tmp_path / "s"
    assert run(["sequences", *argv, "--output-dir", str(out)]) == 0
    rows = next(out.glob("sequences-table-*.csv")).read_text().splitlines()
    assert rows[-1].split(",")[1:3] == ["0.5", "True"]


def test_sup_scan_command(tmp_path):
    out = tmp_path / "scan"
    assert run(
        [
            "sup-scan",
            "--seed", "0",
            "--prime-limit", "20000",
            "--sigma-grid", "0.7,0.6",
            "--output-dir", str(out),
        ]
    ) == 0
    rows = next(out.glob("sup-scan-scan-*.csv")).read_text().splitlines()
    assert len(rows) == 3
    assert rows[0].split(",")[:3] == ["sigma", "t_max", "sup_cos"]


def test_chaining_command(tmp_path):
    out = tmp_path / "ch"
    assert run(
        [
            "chaining",
            "--seeds", "2",
            "--ells", "3,4",
            "--prime-limit", "20000",
            "--r-max", "6",
            "--output-dir", str(out),
        ]
    ) == 0
    rows = next(out.glob("chaining-oscillation-*.csv")).read_text().splitlines()
    assert len(rows) == 5


def stub_chaining_work(monkeypatch) -> list:
    """Record, instead of doing, what oscillation_batch does after its grid check."""
    calls = []
    monkeypatch.setattr(cli.chaining.primes_mod, "cached_primes", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.chaining.rmf_mod, "sign_matrix", lambda *a, **kw: calls.append(a))
    return calls


def test_chaining_rejects_a_late_bad_ell_before_any_work(tmp_path, monkeypatch, capsys):
    calls = stub_chaining_work(monkeypatch)
    out = tmp_path / "ch"
    assert run(["chaining", "--ells", "5,1", "--seeds", "20", "--prime-limit", "1000000",
                "--output-dir", str(out)]) == 2
    assert "ell must be >= 2, got 1" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_chaining_refuses_a_grid_beyond_memory_with_exit_3(tmp_path, monkeypatch, capsys):
    calls = stub_chaining_work(monkeypatch)
    out = tmp_path / "ch"
    assert run(["chaining", "--r-max", "30", "--seeds", "20", "--ells", "3",
                "--prime-limit", "1000", "--output-dir", str(out)]) == 3
    assert "resource error: r_max=30, 20 seeds" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


# Each run would build a factor table of 12.5 MB at the default x_max = 10^6, on a machine
# stubbed to 1 MB of RAM.
@pytest.mark.parametrize("argv", [["simulate"], ["signchanges", "--seeds", "2"], ["verify", "all"]])
def test_extension_beyond_memory_is_refused_with_exit_3_before_any_sieve(
        argv, tmp_path, monkeypatch, capsys):
    stub_ram(monkeypatch, 2**20)
    calls = []
    monkeypatch.setattr(cli.primes, "cached_primes", lambda *a: calls.append(a))
    for name in cli.VERIFY_CHECKS:
        monkeypatch.setitem(cli.VERIFY_CHECKS, name, lambda cfg: calls.append(cfg) or (True, {}))
    out = tmp_path / "big"
    assert run(argv + ["--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "resource error: x_max=1000000 factor table and sign hash: " in err
    assert "B > physical RAM" in err
    assert calls == []
    assert not out.exists()


def stub_ram(monkeypatch, ram: int) -> None:
    """Make os.sysconf report `ram` bytes of physical memory."""
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: ram // sysconf("SC_PAGE_SIZE")
                        if name == "SC_PHYS_PAGES" else sysconf(name))


def prime_sum_bytes(n_seeds: int, limit: int, n_sigmas: int) -> int:
    """The bytes of rmf.prime_sum_need, read with its memory check stubbed out."""
    with mock.patch.object(cli.rmf, "check_memory", lambda need, what: None):
        return cli.rmf.prime_sum_need(n_seeds, limit, n_sigmas)


def test_signchanges_counts_each_threads_sign_hash_before_any_sieve(tmp_path, monkeypatch, capsys):
    # 128 seeds on 2 threads share one factor table, built first at 12.5 MB; each hashes 64
    # seeds into four uint64 arrays per prime (salted primes, hash, shift temporary and packed
    # words), keeps the words of the squarefree n <= 5 * 10^5, and then holds one block's
    # buffers and 64 KiB of pool, lists and array headers.  24 MiB of RAM holds the table and
    # one pass, 22.6 MB, but not both passes' 32.7 MB.
    monkeypatch.setenv("RMFLAB_THREADS", "2")
    monkeypatch.setattr(cli.rmf, "_factors", None)
    stub_ram(monkeypatch, 24 * 2**20)
    calls = []
    monkeypatch.setattr(cli.primes, "cached_primes", lambda *a: calls.append(a))
    out = tmp_path / "big"
    assert run(["signchanges", "--seeds", "128", "--output-dir", str(out)]) == 3
    x, primes, block = 10**6, cli.primes.prime_count_bound(10**6), cli.rmf.TRACE_SEGMENT
    table = 4 * x + 8 * (x - x // 4 + 1) + 4 * primes + 32 * block
    one = 32 * primes + 8 * (x // 2 - x // 8 + 1) + 63 * block + 2**16
    need = table + 2 * one
    assert need == 32_663_244
    assert f"sign hash: {need} B > physical RAM" in capsys.readouterr().err
    assert table + one < 24 * 2**20 < need
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("x_max, seeds", [(1, 1), (2, 64), (1000, 64), (1000, 128), (2**16, 1),
                                          (2**16, 64), (10**6, 1), (10**6, 64)])
def test_extension_size_bounds_the_traced_peak_of_sign_change_counts(x_max, seeds):
    need = cli.rmf.extension_need(x_max, seeds, x_max + 1)
    cli.primes.cached_primes(10**6)  # the prime table exists before the call
    tracemalloc.start()
    try:
        cli.rmf.partial_sum_trace(range(seeds), x_max, x_max + 1)  # signchanges' call
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


@pytest.mark.parametrize("x_max, stride", [(10**5, 1), (10**6, 1 << 16)])
def test_extension_size_bounds_the_traced_peak_of_simulate_traces(x_max, stride):
    # simulate's two strides: every n up to 10^5, every 2^16-th n beyond.
    need = cli.rmf.extension_need(x_max, 1, stride)  # with the factor table if it is not kept
    cli.primes.cached_primes(10**6)  # the prime table exists before the call
    tracemalloc.start()
    try:
        cli.rmf.partial_sum_trace([0], x_max, stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


@pytest.mark.parametrize("x_max", [10**5, 10**6])
def test_abel_bytes_bound_the_traced_peak_of_c05(x_max):
    cli.primes.cached_primes(x_max)  # the prime table exists before the call
    tracemalloc.start()
    try:
        passed, _ = cli._check_abel_identity(cli.ExperimentConfig(x_max=x_max))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed
    assert peak <= cli._abel_need(cli.ExperimentConfig(x_max=x_max))


def test_verify_all_refuses_c05_beyond_memory_before_any_check(tmp_path, monkeypatch, capsys):
    # At x_max = 10^6 c05 holds 20 int8 rows of f and one (x, sigma) pair's two float64 weight
    # arrays, 52.2 MB with its temporaries and the factor table, above the 32.7 MB of the table's
    # build and the two threads' extension passes.
    monkeypatch.setenv("RMFLAB_THREADS", "2")
    need = cli._abel_need(cli.ExperimentConfig())
    assert cli.rmf.extension_need(10**6, 100, 10**6 + 1) < 32 * 2**20 < need
    stub_ram(monkeypatch, 32 * 2**20)
    calls = []
    monkeypatch.setattr(cli.primes, "cached_primes", lambda *a: calls.append(a))
    for name in cli.VERIFY_CHECKS:
        monkeypatch.setitem(cli.VERIFY_CHECKS, name, lambda cfg: calls.append(cfg) or (True, {}))
    config = tmp_path / "small-grid.json"  # c12's grid fits in 32 MB
    config.write_text(json.dumps({"r_max": 4, "prime_limit": 1000}))
    out = tmp_path / "c05"
    assert run(["verify", "all", "--config", str(config), "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"resource error: abel identity rows at x_max=1000000: {need} B > physical RAM" in err
    assert calls == []
    assert not out.exists()


def test_c05_refuses_beyond_memory_before_any_sieve(monkeypatch):
    # c05 called on its own holds the same 52.2 MB, and refuses it in its own need.
    need = cli._abel_need(cli.ExperimentConfig())
    stub_ram(monkeypatch, 32 * 2**20)
    calls = []
    monkeypatch.setattr(cli.primes, "cached_primes", lambda *a: calls.append(a))
    with pytest.raises(cli.ResourceLimitError,
                       match=f"abel identity rows at x_max=1000000: {need} B > physical RAM"):
        cli._check_abel_identity(cli.ExperimentConfig())
    assert calls == []


def test_verify_all_refuses_c07_beyond_memory_before_any_check(tmp_path, monkeypatch, capsys):
    # 2e9 trials of c07's step-2 sums over pi(10^5) primes at its 8 ells need 160 GB, which
    # used to be refused only once the seven checks before c07 had run.
    monkeypatch.setenv("RMFLAB_THREADS", "2")
    stub_ram(monkeypatch, 32 * 2**20)
    ran = []
    for name, check in cli.VERIFY_CHECKS.items():
        monkeypatch.setitem(cli.VERIFY_CHECKS, name,
                            lambda cfg, name=name, check=check: ran.append(name) or check(cfg))
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"n_primes": 1000, "claim1_n": 10**4, "chebyshev_limit": 10**4,
                                  "x_max": 10**4, "prime_limit": 10**4, "seeds": 4, "r_max": 6}))
    out = tmp_path / "c07"
    assert run(["verify", "all", "--config", str(config), "--trials", "2000000000",
                "--output-dir", str(out)]) == 3
    need = prime_sum_bytes(2 * 10**9, 10**5, 8)
    err = capsys.readouterr().err
    assert f"resource error: prime sums of 2000000000 seeds at 8 sigmas: {need} B > physical" in err
    assert ran == []
    assert not out.exists()


def test_an_ell_range_too_long_for_len_is_refused_by_its_memory(tmp_path, monkeypatch, capsys):
    # 10^20 ells are more than len() takes; the step-2 need counts them from the range's ends and
    # refuses their sums, where len() raised OverflowError.  The CLI refuses an ell_max past int64
    # with exit 2, so there the longest range, 2^63 - 1 ells, is refused with exit 3.
    calls = []
    monkeypatch.setattr(cli.primes, "cached_primes", lambda *a: calls.append(a))
    for name in cli.VERIFY_CHECKS:
        monkeypatch.setitem(cli.VERIFY_CHECKS, name, lambda cfg: calls.append(cfg) or (True, {}))
    need = prime_sum_bytes(100, 1000, 10**20)
    with pytest.raises(cli.ResourceLimitError, match=f"seeds at {10**20} sigmas: {need} B > "):
        cli.concentration.step2_need(1.0, 100, range(1, 10**20 + 1), 1000)
    ell_max = 2**63 - 1
    config = tmp_path / "ells.json"
    config.write_text(json.dumps({"ell_max": ell_max, "x_max": 10**4, "prime_limit": 1000,
                                  "r_max": 4}))
    for argv, trials, limit in (
            (["concentration", "--ell-max", str(ell_max), "--trials", "100",
              "--prime-limit", "1000"], 100, 1000),
            (["verify", "all", "--config", str(config)], 10**4, cli.HOEFFDING_PRIMES)):
        out = tmp_path / argv[0]
        assert run(argv + ["--output-dir", str(out)]) == 3
        need = prime_sum_bytes(trials, limit, ell_max)
        assert f"prime sums of {trials} seeds at {ell_max} sigmas: {need} B > " in (
            capsys.readouterr().err)
        assert not out.exists()
    assert calls == []


def test_verify_all_refuses_c06_beyond_memory_before_any_check(tmp_path, monkeypatch, capsys):
    # On 8 threads c06's 2000 seeds at 3 sigma over pi(10^5) primes need 73.5 MB, above a
    # machine stubbed to 64 MiB, while every other need of the preflight fits: c12's is the
    # largest, 47.2 MB.  c06 used to be refused only once c01-c05 had run.
    monkeypatch.setenv("RMFLAB_THREADS", "8")
    stub_ram(monkeypatch, 64 * 2**20)
    need = prime_sum_bytes(2000, 10**5, 3)
    assert cli.chaining.check_grid([3, 4, 5], 4, 20, 10**5) == 47_184_656 < 64 * 2**20
    assert need == 73_504_112
    ran = []
    for name, check in cli.VERIFY_CHECKS.items():
        monkeypatch.setitem(cli.VERIFY_CHECKS, name,
                            lambda cfg, name=name, check=check: ran.append(name) or check(cfg))
    config = tmp_path / "c06.json"
    config.write_text(json.dumps({"prime_limit": 100000, "x_max": 10000, "trials": 100,
                                  "seeds": 4, "r_max": 4}))
    out = tmp_path / "c06"
    assert run(["verify", "all", "--config", str(config), "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"resource error: prime sums of 2000 seeds at 3 sigmas: {need} B > physical RAM" in err
    assert ran == []
    assert not out.exists()


def test_c03_decides_on_the_certified_intervals_of_p(monkeypatch):
    # At x = 1.01 the estimate's gap, 0.0657, is below x = 1.1's 0.0841, but an interval whose
    # lower end reads 0.03 lower in the ratio leaves room for a gap of 0.096: the strict
    # decrease is not certified.  The reported estimates do not change.
    prime_zeta, cv = cli.prime_series.prime_zeta, cli.prime_series.CertifiedValue
    passed, detail = cli._check_zeta_asymptotic_ratio(cli.ExperimentConfig())
    assert passed

    def widened(x):
        v = prime_zeta(x)
        if x != 1.01:
            return v
        return cv(estimate=v.estimate, upper=v.upper, lower=v.lower - 0.03 * math.log(100.0))

    monkeypatch.setattr(cli.prime_series, "prime_zeta", widened)
    assert cli._check_zeta_asymptotic_ratio(cli.ExperimentConfig()) == (False, detail)


def test_sup_scan_grid_beyond_memory_is_refused_before_any_hash(tmp_path, monkeypatch, capsys):
    # sigma = 1/2 + 1e-7 scans t up to 2 log^2(10^7) = 519.6: at most 51,860 rows of
    # 24 float64 values; 30 values and five 32-row tables for each of pi(1000) <= 182
    # primes; and six 2^20-cell buffers of the estimate, 60.6 MB.
    stub_ram(monkeypatch, 2**20)
    calls = []
    monkeypatch.setattr(cli.primes, "cached_primes", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.rmf, "sample_signs", lambda *a: calls.append(a))
    out = tmp_path / "scan"
    assert run(["sup-scan", "--sigma-grid", "0.7,0.5000001", "--prime-limit", "1000",
                "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "resource error: sup-scan t grid of 51860 rows: 60565408 B > physical RAM" in err
    assert calls == []
    assert not out.exists()


def test_prime_sums_beyond_memory_are_refused_before_any_sieve_or_hash(
        tmp_path, monkeypatch, capsys):
    # concentration's 10^4 trials x 8 sigma over pi(10^6) <= 90,845 primes on 2 threads:
    # 10 float64 per prime and per trial and 64 KiB, and per thread an 11-row float64 block,
    # its salted primes, a one-row shift temporary and two 8192-element ufunc buffers,
    # 27.3 MB; c06 and c07 hold 2000 seeds at 10^6 and 10^4 at 10^5.
    monkeypatch.setenv("RMFLAB_THREADS", "2")
    stub_ram(monkeypatch, 2**20)
    calls = []
    monkeypatch.setattr(cli.primes, "cached_primes", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.rmf, "sign_matrix", lambda *a, **kw: calls.append(a))
    out = tmp_path / "cc"
    assert run(["concentration", "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "resource error: prime sums of 10000 seeds at 8 sigmas: 27291040 B > physical RAM" in err
    for check in (cli._check_variance_match, cli._check_hoeffding):
        with pytest.raises(cli.ResourceLimitError, match="B > physical RAM"):
            check(cli.ExperimentConfig())
    assert calls == []
    assert not out.exists()


# The prime table to a limit takes 4 B per prime_count_bound(limit) prime (the one array its
# segments are written into), two flag buffers of a segment (2^20 flags and a 15,015-flag period
# each: on two threads the walk strikes one segment while it extracts another), 12 B for each of
# at most 288,147 primes of a segment, and four 2^16-value float64 buffers on each of two threads:
# 12,893,914 B at 10^7 (778,666 primes) and 511,505,926 B at the int32 cap (125,431,669), above a
# 1 MiB machine.
# `verify constants` refuses it before c01 walks; `prime-sums` refuses it in the sieve.
@pytest.mark.parametrize("argv, limit, need", [
    (["verify", "constants"], 10**7, 12_893_914),
    (["verify", "constants", "--chebyshev-limit", "2147483647"], 2**31 - 1, 511_505_926),
    (["prime-sums"], 10**7, 12_893_914),
])
def test_prime_tables_beyond_memory_are_refused_with_exit_3_before_any_sieve(
        argv, limit, need, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RMFLAB_THREADS", "2")
    monkeypatch.setattr(cli.primes, "_largest", None)
    stub_ram(monkeypatch, 2**20)
    calls = []
    monkeypatch.setattr(cli.primes, "segments", lambda *a: calls.append(a))
    out = tmp_path / "t"
    assert run(argv + ["--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"resource error: prime table to {limit}: {need} B > physical RAM" in err
    with pytest.raises(cli.ResourceLimitError, match=f"prime table to {limit}: {need} B > "):
        cli.primes.sieve_primes(limit)
    assert calls == []
    assert not out.exists()


def test_verify_refuses_a_table_past_the_int32_cap_before_any_check(tmp_path, monkeypatch, capsys):
    ran = []
    for name in cli.VERIFY_CHECKS:
        monkeypatch.setitem(cli.VERIFY_CHECKS, name, lambda cfg: ran.append(cfg) or (True, {}))
    out = tmp_path / "v"
    argv = ["verify", "constants", "--chebyshev-limit", str(2**31), "--output-dir", str(out)]
    assert run(argv) == 2
    assert "within the int32 cap 2^31 - 1, got 2147483648" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


def test_the_prime_table_need_bounds_the_traced_peak_of_its_sieve_and_passes(monkeypatch):
    # Sieving 10^7 afresh, then c04's check and the 50-sigma grid on two threads over the table.
    monkeypatch.setenv("RMFLAB_THREADS", "2")
    monkeypatch.setattr(cli.primes, "_largest", None)
    tracemalloc.start()
    try:
        cli._check_chebyshev(cli.ExperimentConfig())
        cli._check_log_weighted_bound_grid(cli.ExperimentConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cli.primes.table_need(10**7)


def test_the_prime_sum_kernels_refuse_beyond_memory_before_any_sieve_or_hash(monkeypatch):
    # concentration's 10^4 seeds at 8 sigma over the primes <= 10^6, called on the library.
    monkeypatch.setenv("RMFLAB_THREADS", "2")
    stub_ram(monkeypatch, 2**20)
    calls = []
    monkeypatch.setattr(cli.primes, "cached_primes", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.rmf, "sign_matrix", lambda *a, **kw: calls.append(a))
    seeds, sigmas = np.arange(10**4, dtype=np.uint64), np.linspace(0.6, 1.0, 8)
    for kernel in (lambda: cli.rmf.random_prime_sum_batch(seeds, sigmas, 10**6),
                   lambda: cli.rmf.prime_sum_exceedances(seeds, sigmas, sigmas, 10**6)):
        with pytest.raises(cli.ResourceLimitError,
                           match="prime sums of 10000 seeds at 8 sigmas: 27291040 B > physical"):
            kernel()
    assert calls == []


def test_sup_scan_refuses_a_grid_beyond_memory_before_forming_it(monkeypatch):
    # t_max = 10^12 at step 0.01 is 10^14 rows, 1.9 * 10^16 B: refused by its need before np.arange
    # is asked for 800 TB.
    signs = cli.rmf.sample_signs(0, 1000)
    stub_ram(monkeypatch, 2**20)
    with pytest.raises(cli.ResourceLimitError, match="sup-scan t grid of 99999999999902 rows: "):
        cli.rmf.sup_scan(signs, 0.6, 1e12, 0.01, limit=1000)


def test_step2_preflight_bounds_the_traced_peak_of_the_step2_table(monkeypatch):
    needs = []
    monkeypatch.setattr(cli.rmf, "check_memory", lambda need, what: needs.append(need))
    cli.primes.cached_primes(10**5)  # the prime table exists before the call
    tracemalloc.start()
    try:
        cli._step2_rows(cli.ExperimentConfig(trials=600), 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= needs[0]


# `chaining --seeds 4 --ells 3,4 --r-max 8 --prime-limit 100000 --seed 0` as
# written when every block of the sigma grid was evaluated exactly.  The gemm
# bits of a block depend on the BLAS thread count, so these are one thread's.
GOLDEN_OSCILLATION = (
    b"seed,ell,sigma_ell,max_osc,paper_C,first_violation_r,truncation_std\n"
    b"0,3,0.5884606031588822,0.10718031607490852,7.621218116307781,,0.3717805615213902\n"
    b"1,3,0.5884606031588822,0.21014047973955696,7.621218116307781,,0.3717805615213902\n"
    b"2,3,0.5884606031588822,0.026485671952267826,7.621218116307781,,0.3717805615213902\n"
    b"3,3,0.5884606031588822,0.10264725762139415,7.621218116307781,,0.3717805615213902\n"
    b"0,4,0.5676676416183064,0.06432922650333062,7.621218116307781,,0.5353724148392407\n"
    b"1,4,0.5676676416183064,0.15994079535665784,7.621218116307781,,0.5353724148392407\n"
    b"2,4,0.5676676416183064,0.015212750541839383,7.621218116307781,,0.5353724148392407\n"
    b"3,4,0.5676676416183064,0.07636111954190095,7.621218116307781,,0.5353724148392407\n"
)


def test_chaining_oscillation_bytes_are_pinned(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env_path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    subprocess.run(
        [sys.executable, "-m", "rmflab.cli", "chaining", "--seeds", "4", "--ells", "3,4",
         "--r-max", "8", "--prime-limit", "100000", "--seed", "0", "--output-dir", "out"],
        cwd=tmp_path, env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=env_path),
        check=True, capture_output=True, timeout=300,
    )
    (table,) = (tmp_path / "out").glob("chaining-oscillation-*.csv")
    assert table.read_bytes() == GOLDEN_OSCILLATION


# sha256 of step2.csv from `concentration --trials 2000 --prime-limit 100000` at two seeds
# besides perfbench's seed 0, as the einsum over every trial wrote them.
STEP2_SHA256 = {
    1: "3ed03e254da83e20cb3280dc0524df160825a91fc382835484a3d0c8a1fc62ff",
    2: "9f8dd005ff2ea0d63c28847fa52816cbb4b15f8ed80f0b597b1d707687122806",
}


@pytest.mark.parametrize("seed", sorted(STEP2_SHA256))
def test_concentration_step2_bytes_are_pinned_beyond_seed_0(tmp_path, seed):
    assert run(["concentration", "--trials", "2000", "--prime-limit", "100000", "--seed",
                str(seed), "--output-dir", str(tmp_path)]) == 0
    [path] = tmp_path.glob("concentration-step2-*.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == STEP2_SHA256[seed]


def test_concentration_command(tmp_path):
    out = tmp_path / "cc"
    assert run(
        [
            "concentration",
            "--trials", "300",
            "--prime-limit", "20000",
            "--ell-min", "1",
            "--ell-max", "3",
            "--output-dir", str(out),
        ]
    ) == 0
    rows = next(out.glob("concentration-step2-*.csv")).read_text().splitlines()
    assert len(rows) == 4
    series = json.loads(next(out.glob("concentration-series-*.json")).read_text())
    assert series["bigterm_all_hold"] is True


def test_failing_run_writes_nothing(tmp_path, monkeypatch, capsys):
    # The failure comes after the step-2 table is computed.
    def fail(*args, **kwargs):
        raise ValueError("bigterm series failed")

    monkeypatch.setattr(cli.concentration, "borel_cantelli_bigterm", fail)
    out = tmp_path / "cc"
    assert run(["concentration", "--trials", "100", "--prime-limit", "1000", "--ell-max", "2",
                "--output-dir", str(out)]) == 2
    assert "bigterm series failed" in capsys.readouterr().err
    assert not out.exists()


def test_result_names_do_not_depend_on_output_dir(tmp_path):
    argv = ["chaining", "--seeds", "2", "--ells", "3", "--prime-limit", "20000", "--r-max", "4"]
    results = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(argv + ["--output-dir", str(out)]) == 0
        results.append({p.name: p.read_bytes() for p in out.glob("chaining-*")})
    assert sorted(results[0]) == sorted(results[1])
    assert len(results[0]) == 2  # the oscillation table and the config echo
    for name in results[0]:
        if not name.startswith("chaining-config-"):
            assert results[0][name] == results[1][name]


def test_manifest_contents(tmp_path):
    out = tmp_path / "m"
    assert run(["simulate", "--seed", "1", "--x-max", "1000", "--output-dir", str(out)]) == 0
    manifest = json.loads(next(out.glob("manifest-*.json")).read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 1
    assert manifest["versions"]["rmflab"]
    for name, digest in manifest["results"].items():
        assert (out / name).exists()
        assert len(digest) == 64


def test_signchanges_honours_seed(tmp_path):
    tables = {}
    for seed in ("0", "3"):
        out = tmp_path / seed
        assert run(["signchanges", "--seeds", "4", "--x-max", "5000", "--seed", seed,
                    "--output-dir", str(out)]) == 0
        with open(next(out.glob("signchanges-table-*.csv"))) as fh:
            tables[seed] = list(csv.DictReader(fh))
    assert [r["seed"] for r in tables["0"]] == ["0", "1", "2", "3"]
    assert [r["seed"] for r in tables["3"]] == ["3", "4", "5", "6"]
    assert tables["3"] != tables["0"]


def test_chaining_honours_seed(tmp_path):
    out = tmp_path / "ch"
    assert run(["chaining", "--seeds", "2", "--ells", "3", "--prime-limit", "20000",
                "--r-max", "4", "--seed", "5", "--output-dir", str(out)]) == 0
    with open(next(out.glob("chaining-oscillation-*.csv"))) as fh:
        assert [r["seed"] for r in csv.DictReader(fh)] == ["5", "6"]


@pytest.fixture(scope="module")
def prime_sums_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("ps")
    assert run(["prime-sums", "--claim1-n", "100000", "--prime-limit", "100000",
                "--output-dir", str(out)]) == 0
    return out


def test_prime_sums_logsq_grid(prime_sums_out):
    with open(next(prime_sums_out.glob("prime-sums-logsq-grid-*.csv"))) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sigma", "estimate", "upper", "bound_rhs", "holds"]
    assert [r[0] for r in rows[1:]] == [repr(round(0.51 + 0.01 * i, 2)) for i in range(50)]
    assert all(r[4] == "True" for r in rows[1:])


def _float_cells(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    return [cell for row in rows for cell in row if cell not in ("True", "False")]


def test_csv_float_cells_are_plain_numbers(prime_sums_out, tmp_path):
    out = tmp_path / "cc"
    assert run(["concentration", "--trials", "200", "--prime-limit", "10000", "--ell-max", "3",
                "--output-dir", str(out)]) == 0
    paths = [next(out.glob("concentration-step2-*.csv"))]
    paths += [next(prime_sums_out.glob(f"prime-sums-{kind}-*.csv"))
              for kind in ("prime-zeta", "zetaasym")]
    for path in paths:
        cells = _float_cells(path)
        assert cells
        for cell in cells:
            float(cell)  # a numpy repr such as 'np.float64(1.5)' raises here


HUGE = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["sup-scan", "--sigma-grid", "0.4", "--prime-limit", "1000"],
        ["sup-scan", "--sigma-grid", "0.7,0.5", "--prime-limit", "1000"],
        ["signchanges", "--seeds", "0", "--x-max", "1000"],
        ["chaining", "--seeds", "0", "--prime-limit", "1000", "--r-max", "3"],
        ["simulate", "--x-max", "0"],
        ["signchanges", "--seeds", "2", "--x-max", "0"],
        # A dict stands for a config file with that content, passed as --config.
        ["sup-scan", {"sigma_grid": 0.7}, "--prime-limit", "1000"],
        ["chaining", {"ells": 3}, "--prime-limit", "1000", "--r-max", "3"],
        ["concentration", {"trials": [1]}, "--prime-limit", "1000"],
        ["simulate", {"x_max": "100"}],
        ["chaining", {"ells": []}, "--prime-limit", "1000", "--r-max", "3"],
        ["simulate", {"x_max": True}],
        ["simulate", {"x_max": 1.5}],
        ["simulate", {"seed": None}],
        ["sup-scan", {"sigma_grid": [0.7, False]}, "--prime-limit", "1000"],
        ["sup-scan", {"sigma_grid": ["0.7"]}, "--prime-limit", "1000"],
        ["chaining", {"ells": [3.5]}, "--prime-limit", "1000", "--r-max", "3"],
        ["concentration", {"gamma": "1"}, "--prime-limit", "1000"],
        ["simulate", {"output_dir": 3}],
        ["sup-scan", "--c0", "0.6", "--prime-limit", "1000"],
        ["sup-scan", "--sigma-grid", "1.6", "--prime-limit", "1000"],
        ["sup-scan", "--c1", "0.5", "--prime-limit", "1000"],
        ["sup-scan", "--grid-step", "0.5", "--prime-limit", "1000"],
        ["concentration", "--trials", "10", "--prime-limit", "1000"],
        ["chaining", "--r-max", "31", "--seeds", "1", "--prime-limit", "1000"],
        ["prime-sums", "--prime-limit", "1", "--claim1-n", "100000"],
        ["sequences", "--k-max", "0"],
        ["verify", "all", {"k_max": 0}, "--n-primes", "1000", "--claim1-n", "100000",
         "--chebyshev-limit", "1000", "--trials", "100"],
        ["concentration", "--ell-min", "5", "--ell-max", "3", "--trials", "100",
         "--prime-limit", "1000"],
        # Invalid fields are refused before a step-2 table that memory cannot hold.
        ["concentration", "--trials", "2000000000", "--gamma", "-1"],
        ["concentration", "--trials", "2000000000", "--ell-min", "5", "--ell-max", "3"],
        ["concentration", "--trials", "2000000000", "--ell-min", "0"],
        # The schema refuses a float that is not finite and an int beyond int64 (but the seed).
        ["sup-scan", "--prime-limit", HUGE],
        ["chaining", "--prime-limit", HUGE],
        ["concentration", "--prime-limit", HUGE],
        ["simulate", "--x-max", HUGE],
        ["signchanges", "--x-max", HUGE],
        ["verify", "all", "--n-primes", HUGE],
        ["chaining", "--ells", HUGE],
        ["signchanges", "--seeds", HUGE],
        ["chaining", "--seeds", HUGE],
        ["chaining", "--ells", f"3,{2**63}", "--prime-limit", "1000"],
        ["concentration", "--ell-max", str(10**20), "--trials", "100", "--prime-limit", "1000"],
        ["concentration", {"gamma": math.inf}, "--prime-limit", "1000"],
        # A threshold 2 (1 + gamma) E^epsilon, or a series term, that overflows a float.
        ["concentration", "--gamma", "1e308", "--trials", "100", "--prime-limit", "1000"],
        ["sup-scan", {"c1": math.inf}, "--prime-limit", "1000"],
        ["sequences", {"c": math.inf}],
        ["sequences", {"a1": math.inf}],
        ["sequences", {"a1": 10**400}],
        # A table whose (k_max + 1)^c has more than TABLE_BITS bits: mpmath cannot shift a
        # Python int by the k^c bits of e^(k^c) at c = 10^308, and 20 rows at c = 2000 print
        # endpoints of up to 8,650 bits of k^c, beyond 100 s.
        ["sequences", "--c", "1e308"],
        ["sequences", "--c", "2000"],
        ["verify", "all", {"c": 1e308}],  # c11's table, refused before any check
        # A grid step whose rows overflow a float, or that cannot move t off 1 (sigma = 1.2
        # scans t up to 1 alone), is refused by the sup-scan need.
        ["sup-scan", "--grid-step", "1e-308", "--prime-limit", "1000"],
        ["sup-scan", "--grid-step", "5e-324", "--prime-limit", "1000"],
        ["sup-scan", "--sigma-grid", "1.2", "--grid-step", "1e-17", "--prime-limit", "1000"],
        # Rows whose summed cost the table need bounds: 291 rows at c = 250 took 38 s, and at
        # the default c = 3 an int64 k_max used to pass.
        ["sequences", "--c", "250", "--k-max", "291"],
        ["sequences", "--k-max", str(2**63 - 1)],
    ],
)
def test_invalid_input_exits_2_before_any_work(argv, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.primes, "cached_primes", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.primes, "segments", lambda *a: calls.append(a))
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
            argv = argv[:i] + ["--config", str(cfg)] + argv[i + 1:]
    assert run(argv + ["--output-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_concentration_at_the_largest_gamma_writes_only_finite_numbers(tmp_path):
    out, gamma = tmp_path / "g", cli.concentration.MAX_GAMMA
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warns
        assert run(["concentration", "--gamma", repr(gamma), "--trials", "100", "--prime-limit",
                    "1000", "--output-dir", str(out)]) == 0
    [table] = out.glob("concentration-step2-*.csv")
    rows = list(csv.reader(table.read_text().splitlines()))[1:]
    assert len(rows) == 8 and all(math.isfinite(float(v)) for row in rows for v in row)
    assert min(float(row[3]) for row in rows) > 1e153  # sqrt(2 (1 + gamma) E^epsilon) each
    [series] = out.glob("concentration-series-*.json")
    assert all(math.isfinite(v) for v in json.loads(series.read_text()).values())
    assert run(["concentration", "--gamma", repr(gamma * (1 + 2**-52)), "--trials", "100",
                "--prime-limit", "1000", "--output-dir", str(out)]) == 2


class Sieved(Exception):
    """Raised by the stubbed sieve: the command reached its work."""


@pytest.mark.parametrize("command", [["verify", "all"], ["verify", "constants"]]
                         + [[c] for c in cli.COMMANDS if c not in ("verify", "report")],
                         ids=" ".join)
def test_every_flag_at_an_extreme_value_exits_0_2_or_3(command, tmp_path, monkeypatch, capsys):
    # Each flag alone at 0, -1, +-(2^63 - 1), nan, inf and 1e308 (-inf reads as an option):
    # a valid value reaches the stubbed sieve, which stops the command before any work; the
    # rest exit 2 (argparse's exit too) or 3 with nothing sieved, or 0 (sequences, which
    # sieves nothing, prints its 20 default rows).
    calls = []

    def sieve(*args):
        calls.append(args)
        raise Sieved

    monkeypatch.setattr(cli.primes, "cached_primes", sieve)
    monkeypatch.setattr(cli.primes, "segments", sieve)
    out = str(tmp_path / "out")
    for key in ("seed",) + cli.COMMANDS[command[0]][2]:
        for value in ("0", "-1", str(2**63 - 1), str(1 - 2**63), "nan", "inf", "1e308"):
            argv = command + ["--" + key.replace("_", "-"), value, "--output-dir", out]
            calls.clear()
            try:
                code = run(argv)
            except Sieved:
                continue
            except SystemExit as exc:  # a value argparse's int cannot read
                code = exc.code
            assert code in (0, 2, 3) and (code == 0 or calls == []), argv
            assert code != 0 or command == ["sequences"], argv
    capsys.readouterr()


def test_config_integral_float_for_int_field_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x_max": 1000.0, "seed": 2, "gamma": 1, "ells": [3.0]}))
    assert run(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "a")]) == 0
    summary = json.loads(next((tmp_path / "a").glob("simulate-summary-*.json")).read_text())
    assert summary["x_max"] == 1000 and type(summary["x_max"]) is int
    # The echo keeps the values as given, so the digest is that of the file's spelling.
    echo = json.loads(next((tmp_path / "a").glob("simulate-config-*.json")).read_text())
    assert echo["x_max"] == 1000.0 and type(echo["x_max"]) is float
    assert echo["gamma"] == 1 and type(echo["gamma"]) is int
    # Same run as with the flag spelling of the same values, apart from the digest.
    assert run(["simulate", "--seed", "2", "--x-max", "1000", "--output-dir",
                str(tmp_path / "b")]) == 0
    trace_a = next((tmp_path / "a").glob("simulate-trace-*.csv")).read_bytes()
    trace_b = next((tmp_path / "b").glob("simulate-trace-*.csv")).read_bytes()
    assert trace_a == trace_b


COMMON_FLAGS = ["--config", "--seed", "--output-dir"]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("verify", ["--n-primes", "--claim1-n", "--chebyshev-limit", "--trials"]),
        ("simulate", ["--x-max"]),
        ("signchanges", ["--x-max", "--seeds"]),
        ("prime-sums", ["--claim1-n", "--prime-limit"]),
        ("sup-scan", ["--prime-limit", "--grid-step", "--c0", "--c1", "--c2", "--sigma-grid"]),
        ("chaining", ["--seeds", "--r-max", "--prime-limit", "--epsilon", "--ells"]),
        ("concentration", ["--trials", "--prime-limit", "--ell-min", "--ell-max", "--gamma",
                           "--epsilon"]),
        ("sequences", ["--k-max", "--c", "--a0", "--a1"]),
        ("report", []),
    ],
)
def test_subcommand_flag_sets(command, flags):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    got = [s for a in actions for s in a.option_strings if s not in ("-h", "--help")]
    assert sorted(got) == sorted(COMMON_FLAGS + flags)
    positionals = [a.dest for a in actions if not a.option_strings]
    assert positionals == (["target"] if command == "verify" else [])


def test_flag_types_follow_config_fields():
    parser = cli.build_parser()
    args = parser.parse_args(["sup-scan", "--sigma-grid", "0.7,0.6", "--prime-limit", "1000",
                              "--c1", "3", "--seed", "-2", "--output-dir", "o"])
    assert args.sigma_grid == [0.7, 0.6] and args.prime_limit == 1000 and args.c1 == 3.0
    assert type(args.c1) is float and args.seed == -2 and args.output_dir == "o"
    args = parser.parse_args(["chaining", "--ells", "3,4"])
    assert args.ells == [3, 4] and args.seeds is None
    with pytest.raises(SystemExit):
        parser.parse_args(["simulate", "--x-max", "1.5"])

"""Workload commands and output checks for the rmflab benchmark.

A workload is a fixed list of `rmflab` command lines, built from the workload
seed.  The seed is passed as `--seed` to every command that honours it.
`check_command` looks at the files one pass wrote and returns the failures per
command.  Two kinds of check apply:

- Predicates hold for every seed.  They include the acceptance criteria:
  c01 in (2.10, 2.1121], the (log p)^2 bound on all 50 sigma, Chebyshev, and
  intersecting prime-zeta intervals.
- At the reference seed 0, every result file is also compared with the copy
  captured in `ref/seed0/`.  Integers, booleans and strings must match
  exactly, and floats to a relative 1e-12.

Refresh the references (only when a change is meant to alter results) with
`python3 perfbench/workloads.py capture`.
"""

from __future__ import annotations

import csv
import json
import math
import re
import shutil
import sys
from pathlib import Path

REF_SEED = 0
REF_DIR = Path(__file__).resolve().parent / "ref" / f"seed{REF_SEED}"
REL_TOL = 1e-12
# Timing details inside result files vary between runs by nature.
VOLATILE_KEYS = {"seconds"}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The command lines of one pass of `workload`, without --output-dir."""
    s = str(seed)
    if workload == "sweep":
        return [
            ["signchanges", "--seeds", "100", "--x-max", "1000000", "--seed", s],
            ["simulate", "--seed", s, "--x-max", "1000000"],
        ]
    if workload == "dense":
        return [
            ["concentration", "--trials", "10000", "--prime-limit", "100000", "--seed", s],
            ["chaining", "--seeds", "20", "--ells", "3,4,5", "--prime-limit", "1000000",
             "--seed", s],
            ["sup-scan", "--seed", s, "--sigma-grid", "0.7,0.6,0.55", "--prime-limit", "1000000"],
        ]
    if workload == "certify":
        return [["verify", "constants"], ["prime-sums"]]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep", "dense", "certify")
# The buffers of the sweep's two pool threads overlap at random times, so one
# pass's peak RSS reads anywhere from about 82 to 106 MB.  The higher mark of
# two passes reads above 100 MB four times in five.
MIN_PASSES = {"sweep": 2}


# ------------------------------------------------------------ result files --


def result_files(command: str, out: Path) -> dict[str, Path]:
    """Result files of one command run, keyed '<kind>.<ext>'.

    The config digest in the file names is dropped; manifests are skipped.
    """
    pat = re.compile(rf"^{re.escape(command)}-(.+)-[0-9a-f]{{12}}\.(csv|json)$")
    files = {}
    for p in sorted(out.iterdir()):
        m = pat.match(p.name)
        if m:
            files[f"{m.group(1)}.{m.group(2)}"] = p
    return files


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def same_value(a, b) -> bool:
    """Exact for ints, bools and strings; floats to REL_TOL; recursive on JSON."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = (a.keys() | b.keys()) - VOLATILE_KEYS
        return all(k in a and k in b and same_value(a[k], b[k]) for k in keys)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_value(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return _close(a, b)
    return type(a) is type(b) and a == b


_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def num(text: str) -> float:
    """A float cell; some CLI columns hold numpy reprs such as 'np.float64(1.5)'."""
    m = _NUMPY_REPR.match(text)
    return float(m.group(1) if m else text)


def _cell(text: str):
    for kind in (int, num):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def same_file(path: Path, ref: Path) -> bool:
    if path.suffix == ".json":
        return same_value(json.loads(path.read_text()), json.loads(ref.read_text()))
    with open(path, newline="") as fa, open(ref, newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(same_value(_cell(x), _cell(y)) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def compare_reference(command: str, files: dict[str, Path]) -> list[str]:
    refs = {p.name[len(command) + 1 :]: p for p in REF_DIR.glob(f"{command}-*")}
    if set(refs) != set(files):
        return [f"result files {sorted(files)} differ from reference {sorted(refs)}"]
    return [f"{kind} differs from reference" for kind in sorted(files)
            if not same_file(files[kind], refs[kind])]


# -------------------------------------------------------------- predicates --


def squarefree_count(n: int) -> int:
    """Q(n) = sum_{d <= sqrt n} mu(d) floor(n / d^2)."""
    root = math.isqrt(n)
    mu = [1] * (root + 1)
    is_prime = [True] * (root + 1)
    for p in range(2, root + 1):
        if not is_prime[p]:
            continue
        for m in range(2 * p, root + 1, p):
            is_prime[m] = False
        for m in range(p, root + 1, p):
            mu[m] = -mu[m]
        for m in range(p * p, root + 1, p * p):
            mu[m] = 0
    return sum(mu[d] * (n // (d * d)) for d in range(1, root + 1))


def _partial_sum_ok(n: int, m: int) -> bool:
    """M_f(n) sums Q(n) values of +-1: |M| <= Q(n) and M = Q(n) mod 2."""
    q = squarefree_count(n)
    return abs(m) <= q and (m - q) % 2 == 0


def _quantile_summary(values: list[float]) -> dict[str, float]:
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    return {
        "median": float(np.median(arr)),
        "q1": float(np.percentile(arr, 25)),
        "q3": float(np.percentile(arr, 75)),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "fraction_with_change": float(np.mean(arr >= 1)),
    }


def _bool(text: str) -> bool:
    if text not in ("True", "False"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "True"


def check_signchanges(cfg, files, seen) -> list[str]:
    rows = read_rows(files["table.csv"])
    table = {int(r["seed"]): (int(r["V_f"]), int(r["final_M"])) for r in rows}
    seen["signchanges"] = (cfg["x_max"], table)
    bad = []
    if len(table) != len(rows) or len(rows) != cfg["seeds"]:
        bad.append("table does not hold one row per seed")
    if any(not _partial_sum_ok(cfg["x_max"], m) for _, m in table.values()):
        bad.append("final_M breaks |M| <= Q(x) or parity")
    summary = json.loads(files["summary.json"].read_text())
    expect = _quantile_summary([v for v, _ in table.values()])
    if any(summary[k] != v for k, v in expect.items()):
        bad.append("summary quantiles disagree with the table")
    return bad


def check_simulate(cfg, files, seen) -> list[str]:
    x_max, seed = cfg["x_max"], cfg["seed"]
    summary = json.loads(files["summary.json"].read_text())
    changes = [int(r["index"]) for r in read_rows(files["changes.csv"])]
    bad = []
    if summary["V_f"] != len(changes):
        bad.append("V_f differs from the number of listed sign changes")
    if changes != sorted(set(changes)) or (changes and not 1 <= changes[0] <= changes[-1] <= x_max):
        bad.append("change points are not strictly increasing inside [1, x_max]")
    for r in read_rows(files["vf.csv"]):
        x = int(r["x"])
        if int(r["V_f"]) != sum(1 for c in changes if c <= x):
            bad.append(f"V_f({x}) disagrees with the change list")
    trace = read_rows(files["trace.csv"])
    # The trace lists every n up to 10^5 and checkpoints beyond; sample it.
    sample = [(int(r["n"]), int(r["M"])) for r in trace[:: max(1, len(trace) // 32)]]
    for n, m in sample + [(x_max, summary["final_value"])]:
        if not _partial_sum_ok(n, m):
            bad.append(f"M({n}) = {m} breaks |M| <= Q(n) or parity")
    sweep_x_max, table = seen.get("signchanges", (None, {}))
    if sweep_x_max == x_max and seed in table:
        if table[seed] != (summary["V_f"], summary["final_value"]):
            bad.append("simulate and signchanges disagree on this seed")
    return bad


def check_concentration(cfg, files, seen) -> list[str]:
    trials = cfg["trials"]
    rows = read_rows(files["step2.csv"])
    bad = []
    if [int(r["ell"]) for r in rows] != list(range(cfg["ell_min"], cfg["ell_max"] + 1)):
        bad.append("step2 rows do not cover ell_min..ell_max")
    for r in rows:
        f, se, bound = num(r["emp_freq"]), num(r["std_err"]), num(r["hoeffding_bound"])
        hits = f * trials
        if not (0.0 <= f <= 1.0 and abs(hits - round(hits)) < 1e-6):
            bad.append(f"ell={r['ell']}: frequency is not a count over {trials} trials")
        if not _close(se, math.sqrt(f * (1.0 - f) / trials)):
            bad.append(f"ell={r['ell']}: std_err inconsistent with frequency")
        if not f <= bound + 3.0 * se:
            bad.append(f"ell={r['ell']}: Hoeffding validity fails")
    series = json.loads(files["series.json"].read_text())
    if series["bigterm_all_hold"] is not True:
        bad.append("bigterm closed bound fails")
    return bad


def check_chaining(cfg, files, seen) -> list[str]:
    rows = read_rows(files["oscillation.csv"])
    seeds = [r["seed"] for r in rows[: cfg["seeds"]]]
    want = [(str(e), s) for e in cfg["ells"] for s in seeds]
    bad = []
    if len(set(seeds)) != cfg["seeds"] or [(r["ell"], r["seed"]) for r in rows] != want:
        bad.append("oscillation rows do not cover ells x seeds")
    if len({r["paper_C"] for r in rows}) != 1:
        bad.append("paper_C differs between rows")
    for r in rows:
        osc = num(r["max_osc"])
        v = r["first_violation_r"]
        if not (math.isfinite(osc) and osc >= 0.0):
            bad.append(f"seed={r['seed']} ell={r['ell']}: max_osc not finite and >= 0")
        if v and not 1 <= int(v) <= cfg["r_max"]:
            bad.append(f"seed={r['seed']} ell={r['ell']}: first_violation_r out of range")
    return bad


def check_sup_scan(cfg, files, seen) -> list[str]:
    rows = read_rows(files["scan.csv"])
    bad = []
    if [num(r["sigma"]) for r in rows] != [float(s) for s in cfg["sigma_grid"]]:
        bad.append("scan rows do not follow the sigma grid")
    for r in rows:
        t_max, t = max(1.0, num(r["t_max"])), num(r["argmax_t"])
        if not 1.0 <= t <= t_max + cfg["grid_step"]:
            bad.append(f"sigma={r['sigma']}: argmax_t outside [1, t_max]")
        if not (math.isfinite(num(r["sup_absF"])) and num(r["sup_absF"]) > 0.0):
            bad.append(f"sigma={r['sigma']}: sup_absF not finite and positive")
        if _bool(r["exceeds"]) != (num(r["sup_cos"]) >= num(r["ek_threshold"])):
            bad.append(f"sigma={r['sigma']}: exceeds flag inconsistent")
    return bad


def check_verify(cfg, files, seen) -> list[str]:
    checks = {c["name"]: c for c in json.loads(files["checks.json"].read_text())["checks"]}
    bad = [f"check {r['check']} failed" for r in read_rows(files["checks.csv"])
           if not _bool(r["passed"])]
    upper = checks["euler-tail-constant"]["detail"]["upper"]
    if not 2.10 < upper <= 2.1121:
        bad.append(f"c01 upper {upper} outside (2.10, 2.1121]")
    if checks["chebyshev-two-over-log"]["detail"]["max_ratio"] >= 1.0:
        bad.append("pi(x) < 2x/log x fails")
    return bad


def check_prime_sums(cfg, files, seen) -> list[str]:
    grid = read_rows(files["logsq-grid.csv"])
    zeta = read_rows(files["prime-zeta.csv"])
    bad = []
    if len(grid) != 50 or not all(_bool(r["holds"]) for r in grid):
        bad.append("(log p)^2 bound does not hold on all 50 sigma")
    if any(num(r["upper"]) > num(r["bound_rhs"]) for r in grid):
        bad.append("a certified upper value exceeds 4/(2 sigma - 1)^2")
    if not zeta or not all(_bool(r["intervals_intersect"]) for r in zeta):
        bad.append("direct and accelerated prime-zeta intervals do not intersect")
    if not all(num(r["acc_lower"]) <= num(r["accelerated"]) <= num(r["acc_upper"])
               for r in zeta):
        bad.append("accelerated estimate outside its interval")
    return bad


CHECKS = {
    "signchanges": check_signchanges,
    "simulate": check_simulate,
    "concentration": check_concentration,
    "chaining": check_chaining,
    "sup-scan": check_sup_scan,
    "verify": check_verify,
    "prime-sums": check_prime_sums,
}


def check_command(command: str, rc, out: Path, seed: int, seen: dict) -> list[str]:
    """Failures of one command run; `seen` carries results between commands."""
    if rc != 0:
        return [f"exit code {rc}" if isinstance(rc, int) else f"crashed: {rc}"]
    files = result_files(command, out)
    try:
        cfg = json.loads(files.pop("config.json").read_text())
        bad = CHECKS[command](cfg, files, seen)
    except (KeyError, ValueError, OSError) as exc:
        return [f"unreadable result: {exc!r}"]
    if seed == REF_SEED:
        bad += compare_reference(command, files)
    return bad


def capture(workdir: Path) -> None:
    """Run every workload at the reference seed and store its result files."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from rmflab import cli

    shutil.rmtree(REF_DIR, ignore_errors=True)
    REF_DIR.mkdir(parents=True)
    for workload in WORKLOADS:
        for i, argv in enumerate(commands(workload, REF_SEED)):
            out = workdir / f"{workload}-{i}-{argv[0]}"
            if cli.main(argv + ["--output-dir", str(out)]) != 0:
                raise SystemExit(f"{argv} failed; no reference written")
            files = result_files(argv[0], out)
            files.pop("config.json")
            for kind, path in files.items():
                shutil.copyfile(path, REF_DIR / f"{argv[0]}-{kind}")


if __name__ == "__main__":
    if sys.argv[1:] != ["capture"]:
        raise SystemExit("usage: python3 perfbench/workloads.py capture")
    import tempfile

    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        capture(Path(tmp))

"""Batch experiment runner and report generator.

One subcommand per experiment family: verify | simulate | signchanges |
prime-sums | sup-scan | chaining | concentration | sequences | report.
Configuration comes from an optional JSON file plus flags (flags win);
results are deterministic given (config, seed) and independent of thread
count.  Each command computes and returns its result files; `main` hands them
to one writer, which names them by a digest of the config (without
`output_dir`), writes them and appends a timestamped manifest with the config
echo and their sha256 checksums.  A run that fails writes nothing.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from math import log
from pathlib import Path

import numpy as np

from . import __version__, chaining, concentration, primes, prime_series, rmf, sequences
from .primes import ResourceLimitError
from .sequences import StepParams, TheoremParams

import mpmath as mp


def _config_digest(config: dict) -> str:
    """Digest of the config echo without `output_dir`, so the same config run
    into two directories names its result files alike."""
    hashed = {key: value for key, value in config.items() if key != "output_dir"}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _result_name(command: str, file: str, digest: str) -> str:
    """File name of result `file` ('<kind>.<ext>') of a `command` run."""
    kind, ext = file.rsplit(".", 1)
    return f"{command}-{kind}-{digest}.{ext}"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        # float() unwraps numpy scalars, whose repr is 'np.float64(...)'.
        w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@dataclass
class Result:
    """What a command computed.  `files` maps '<kind>.<ext>' to a (header, rows)
    table for .csv or a JSON object for .json; `message` goes to stdout."""

    files: dict
    message: str
    extra: dict = field(default_factory=dict)  # merged into the manifest
    status: int = 0


def _write_run(echo: dict, result: Result) -> None:
    """The one writer of a command's output: its result files and config echo,
    then a timestamped manifest with the sha256 checksums of the bytes written.

    Commands only compute, so a run that fails writes nothing.
    """
    command = echo["command"]
    digest = _config_digest(echo)
    out = Path(echo["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for file, content in {**result.files, "config.json": echo}.items():
        data = (_csv_text(*content) if file.endswith(".csv") else _json_text(content)).encode()
        path = out / _result_name(command, file, digest)
        path.write_bytes(data)
        checksums[path.name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "command": command,
        "config": echo,
        "config_digest": digest,
        "results": checksums,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "mpmath": mp.__version__,
            "rmflab": __version__,
        },
        **result.extra,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    n = 0
    while (name := out / f"manifest-{stamp}-{command}-{n:03d}.json").exists():
        n += 1
    manifest["created_utc"] = stamp
    name.write_text(_json_text(manifest))


@dataclass
class ExperimentConfig:
    """Flat experiment configuration; round-trips losslessly through JSON.

    It is the one schema of the command line: every subcommand's flags, their
    types and the kinds a config file may give are read from these fields.
    """

    command: str = ""
    seed: int = 0
    output_dir: str = ""
    c: float = 3.0
    a0: float = 0.1
    a1: float = 1.1
    epsilon: float = 1.0
    gamma: float = 1.0
    sigma_grid: list[float] = field(default_factory=lambda: [0.7, 0.65, 0.6, 0.55])
    prime_limit: int = 10**6
    x_max: int = 10**6
    trials: int = 10**4
    grid_step: float = 0.01
    seeds: int = 100
    ells: list[int] = field(default_factory=lambda: [3, 4, 5])
    ell_min: int = 1
    ell_max: int = 8
    r_max: int = 12
    k_max: int = 20
    n_primes: int = 9_000_000
    claim1_n: int = 10**7
    chebyshev_limit: int = 10**7
    c0: float = 0.25
    c1: float = 2.0
    c2: float = -1.5

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


# Each field's kind, read from its default: (int, float or str; whether a list).
_KINDS = {
    key: (type(v[0]), True) if isinstance(v, list) else (type(v), False)
    for key, v in ExperimentConfig().to_dict().items()
}


def _cast(key: str, value):
    """`value` in the kind of field `key`, once each number in it is a finite float, or an int64
    in an int field other than `seed`, which is reduced mod 2^64; ValueError otherwise."""
    kind, is_list = _KINDS[key]
    low, high = (-2**63, 2**63 - 1) if kind is int else (-sys.float_info.max, sys.float_info.max)
    for v in value if is_list else [value]:
        if kind is not str and key != "seed" and not low <= v <= high:  # NaN fails too
            raise ValueError(f"{key} must be {'an int64' if kind is int else 'finite'}, got {v}")
    return [kind(v) for v in value] if is_list else kind(value)


def _has_kind(value, kind: type) -> bool:
    if kind is str:
        return isinstance(value, str)
    # JSON true/false load as bool, a subclass of int; they are not numbers here.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return kind is float or isinstance(value, int) or value.is_integer()


def _check_kind(key: str, value) -> None:
    """Raise ValueError unless a config-file value has the kind of field `key`."""
    kind, is_list = _KINDS[key]
    want = {int: "an integral number", float: "a number", str: "a string"}[kind]
    if is_list:
        ok = isinstance(value, list) and len(value) > 0 and all(_has_kind(v, kind) for v in value)
        want = f"a non-empty array, each item {want}"
    else:
        ok = _has_kind(value, kind)
    if not ok:
        raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


def _load_config(args: argparse.Namespace) -> tuple[dict, ExperimentConfig]:
    """The config echo (values as given) and the same values cast to their fields' kinds.

    The echo is what the manifest records and the digest hashes, so an int
    field given as 1000.0 in a config file keeps that spelling there while the
    commands see 1000.
    """
    echo = ExperimentConfig(command=args.command).to_dict()
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in data.items():
            if key not in echo:
                raise ValueError(f"unknown config key {key!r}")
            _check_kind(key, value)
            echo[key] = value
    for key in echo:
        flag = getattr(args, key, None)
        if flag is not None:
            echo[key] = flag
    echo["command"] = args.command
    if args.command != "report" and not echo["output_dir"].strip():
        raise ValueError("output_dir must be a non-empty path")
    return echo, ExperimentConfig(**{key: _cast(key, value) for key, value in echo.items()})


def _at_least(cfg: ExperimentConfig, key: str, least: int = 1) -> int:
    value = getattr(cfg, key)
    if value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    return value


# ---------------------------------------------------------------- verify --
#
# One check per acceptance criterion c01-c13, each a function check(cfg) -> (passed, detail)
# whose docstring starts with the criterion's id.  The acceptance suite runs each with
# ExperimentConfig(), whose defaults are the acceptance sizes.  What a check refuses is one need
# that it or its kernel calls first and `verify all`'s preflight calls before any check runs.
HOEFFDING_PRIMES = 10**5  # c07's prime limit


def _logsq_grid(n_cut: int) -> list[tuple[float, prime_series.LogWeightedSum]]:
    """Certified (log p)^2 sums up to n_cut at the 50 sigma 0.51, 0.52, ..., 1.00."""
    sigmas = [round(0.51 + 0.01 * i, 2) for i in range(50)]
    return list(zip(sigmas, prime_series.log_weighted_grid(sigmas, n_cut)))


def _hoeffding_valid(rows: list[concentration.Step2Row]) -> bool:
    """Every empirical frequency lies within 3 standard errors above its Hoeffding bound."""
    return all(r.empirical_freq <= r.hoeffding_bound + 3.0 * r.std_err for r in rows)


def _check_euler_tail_constant(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c01: the certified upper value of sum_p 1/(p(sqrt(p)-1)) lies in (2.10, 2.1121]."""
    ev = prime_series.euler_tail_constant(cfg.n_primes)
    detail = {"n_primes": cfg.n_primes, "estimate": ev.estimate, "upper": ev.upper}
    return 2.10 < ev.upper <= 2.1121, detail


def _check_log_weighted_bound_grid(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c02: sum_p (log p)^2 p^(-2 sigma) <= 4/(2 sigma - 1)^2, certified on the 50-sigma grid."""
    grid = _logsq_grid(cfg.claim1_n)
    worst = min(r.bound_rhs - r.value.upper for _, r in grid)
    return all(r.holds for _, r in grid), {"n_cut": cfg.claim1_n, "worst_margin": worst}


def _check_zeta_asymptotic_ratio(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c03: |P(x)/log(1/(x-1)) - 1| strictly decreases as x -> 1+ to <= 0.1 on P's intervals."""
    xs = [1.5, 1.1, 1.01, 1.001]
    values, denoms = [prime_series.prime_zeta(x) for x in xs], [log(1.0 / (x - 1.0)) for x in xs]
    gaps = []  # |[lower, upper] / d - 1| as (least, greatest)
    for v, d in zip(values, denoms):
        # 8 u outward holds the roundings of 1/(x-1), log (d >= log 2) and the division.
        lo, hi = v.lower / d * (1 - 2.0**-50) - 1.0, v.upper / d * (1 + 2.0**-50) - 1.0
        gaps.append((max(lo, -hi, 0.0), max(hi, -lo)))  # "- 1" is exact: ratios lie in [1/2, 2]
    passed = all(a[0] > b[1] for a, b in zip(gaps, gaps[1:])) and gaps[-1][1] <= 0.1
    return passed, {"x": xs, "ratio_sum": [v.estimate / d for v, d in zip(values, denoms)]}


def _check_chebyshev(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c04: pi(x) < 2x/log x at every prime x <= chebyshev_limit."""
    rep = primes.chebyshev_check(primes.cached_primes(cfg.chebyshev_limit))
    detail = {
        "limit": cfg.chebyshev_limit,
        "max_ratio": rep.max_ratio,
        "worst_prime": rep.worst_prime,
    }
    return rep.holds, detail


def _check_sigma_difference_scan(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c10: for delta in {0.25, 0.5, 0.75} the step inequality holds from some ell1 <= 100
    through ell = 10^5."""
    ell1s = {
        d: sequences.subtraction_bound_scan(StepParams.from_delta(d), 10**5)
        for d in (0.25, 0.5, 0.75)
    }
    passed = all(e is not None and e <= 100 for e in ell1s.values())
    return passed, {str(d): e for d, e in ell1s.items()}


def _check_intervals(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c11: [y_k, X_k] and [y_{k+1}, X_{k+1}] are disjoint and loglog X_k = 2 exp(k^c)
    to 1e-12, for k = 1..k_max."""
    rows = sequences.interval_rows(cfg.k_max, TheoremParams(c=cfg.c, a0=cfg.a0, a1=cfg.a1))
    return all(disjoint and abs(float(loglog_x / mp.exp(mp.mpf(k) ** cfg.c)) - 2.0) <= 1e-12
               for k, _, loglog_x, disjoint in rows), {"k_max": cfg.k_max}


def _check_borel_cantelli(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c09: the step-2 series is Cauchy, |S800 - S400| <= 1e-10, with tail_400 <= 1e-10,
    and every bigterm series meets its closed bound 16 exp(-ell^(2 delta))."""
    step = StepParams(cfg.epsilon)
    bc = concentration.borel_cantelli_step2(400, cfg.gamma, step)
    bc2 = concentration.borel_cantelli_step2(800, cfg.gamma, step)
    bigterm_ok = all(concentration.borel_cantelli_bigterm(StepParams.from_delta(d), ell)
                     for d in (0.25, 0.5, 0.9) for ell in range(1, 101))
    cauchy = abs(bc2.partial_sum - bc.partial_sum)
    passed = cauchy <= 1e-10 and bc.tail_estimate <= 1e-10 and bigterm_ok
    return passed, {"partial_400": bc.partial_sum, "tail_400": bc.tail_estimate}


def _step2_rows(cfg: ExperimentConfig, prime_limit: int) -> list[concentration.Step2Row]:
    """The step-2 exceedance table at ell_min..ell_max over cfg.trials seeds derived from seed."""
    return concentration.step2_experiment(
        StepParams(cfg.epsilon), cfg.gamma, range(cfg.ell_min, cfg.ell_max + 1),
        trials=cfg.trials, prime_limit=prime_limit, base_seed=cfg.seed)


def _check_hoeffding(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c07: every step-2 exceedance frequency over cfg.trials seeds, on the primes
    <= HOEFFDING_PRIMES, lies within 3 standard errors above its Hoeffding bound."""
    rows = _step2_rows(cfg, HOEFFDING_PRIMES)
    return _hoeffding_valid(rows), {"rows": len(rows)}


def _abel_need(cfg: ExperimentConfig) -> int:
    """Bytes c05 allocates at most at x = max(10^4, x_max), once memory holds them: 20 int8 rows
    of f, the larger of the extension pass and 32 B per integer (one (x, sigma) pair's two float64
    weight arrays, 24 B while they are made, a residual's 9 B at most, and under 7 B of the factor
    table the pass keeps), two ufunc buffers and 64 KiB of lists and array headers."""
    x = max(10**4, cfg.x_max)
    need = 20 * x + max(32 * x, rmf.extension_need(x, 20, x + 1)) + 16 * np.getbufsize() + (1 << 16)
    primes.check_memory(need, f"abel identity rows at x_max={cfg.x_max}")
    return need


def _check_abel_identity(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c05: the Abel-summation identity holds to relative residual <= 1e-8 for the 20
    seeds derive_seed(521, i), at x in {10^4, x_max} and sigma in {0.6, 1.5}."""
    _abel_need(cfg)
    xs = sorted({10**4, cfg.x_max})
    rows = rmf.signed_value_rows([rmf.derive_seed(521, i) for i in range(20)], xs[-1])
    worst = max(float(rmf.abel_residuals(rows[:, :x], s).max()) for x in xs for s in (0.6, 1.5))
    return worst <= 1e-8, {"max_rel_residual": worst}


def _variance_need(cfg: ExperimentConfig) -> tuple[np.ndarray, int]:
    """c06's sigmas and seed count, once prime_limit >= 2 and memory holds their prime sums."""
    sigmas, n = np.array([0.6, 0.75, 1.0]), 2000
    rmf.prime_sum_need(n, _at_least(cfg, "prime_limit", 2), sigmas.size)
    return sigmas, n


def _check_variance_match(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c06: for sigma in {0.6, 0.75, 1.0} the sample variance of P(sigma) on the primes
    <= prime_limit over seeds 0..1999 lies within 5 standard errors of sum_p p^(-2 sigma)."""
    sigmas, n = _variance_need(cfg)
    batch = rmf.random_prime_sum_batch(np.arange(n, dtype=np.uint64), sigmas, cfg.prime_limit)
    a2 = primes.cached_primes(cfg.prime_limit)[:, None] ** (-2.0 * sigmas)
    v = a2.sum(axis=0)  # the variance; its 4th moment is 3 v^2 - 2 sum_p p^(-4 sigma)
    se = np.sqrt((3 * v * v - 2 * (a2 * a2).sum(axis=0) - v * v * (n - 3) / (n - 1)) / n)
    deviations = np.abs(np.var(batch, axis=0, ddof=1) - v) / se
    return bool(np.all(deviations <= 5.0)), {"sigma": sigmas.tolist(),
                                             "deviation_se": deviations.tolist()}


def _check_dyadic_property_suite(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c08: the dyadic oscillation bound's hypothesis and conclusion hold, with zero
    violations, on 1000 random instances from default_rng(2024) at their own lambda_r."""
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        r_max = int(rng.integers(3, 8))
        kind, n = rng.integers(0, 3), 2**r_max + 1
        if kind == 0:
            values = np.cumsum(rng.normal(size=n))
        elif kind == 1:
            breaks = np.sort(rng.choice(n, size=4, replace=False))
            values = np.interp(np.arange(n), breaks, rng.normal(scale=5.0, size=4))
        else:
            values = rng.uniform(-1, 1, size=n)
        lams = [float(np.max(np.abs(np.diff(values[:: 2 ** (r_max - r)]))))
                for r in range(1, r_max + 1)]
        rep = chaining.verify_chaining(values, lams)
        violations += not (rep.hypothesis_holds and rep.conclusion_holds)
    return violations == 0, {"instances": 1000, "violations": violations}


def _oscillation_runs(cfg: ExperimentConfig, n_seeds: int) -> list[chaining.OscillationResult]:
    """oscillation_batch for n_seeds seeds from seed at every ell."""
    seeds, step = list(range(cfg.seed, cfg.seed + n_seeds)), StepParams(cfg.epsilon)
    return chaining.oscillation_batch(seeds, cfg.ells, step, cfg.r_max, cfg.prime_limit)


def _check_chaining_oscillation(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c12: max |P(sigma) - P(sigma_ell)| over the dyadic grid stays <= 2 C for 20 seeds
    from seed at every ell; runs above C + truncation_std are counted, not gated."""
    runs = _oscillation_runs(cfg, 20)
    worst, two_c = max(r.max_osc for r in runs), 2.0 * runs[0].paper_c
    above = sum(r.max_osc > r.paper_c + r.truncation_std for r in runs)
    return worst <= two_c, {"runs": len(runs), "max_osc": worst, "two_c": two_c,
                            "above_c_plus_std": above}


def _check_sign_changes_exist(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """c13: over `signchanges`' seed sweep, the median V_f(x_max) is >= 3 and at least
    95% of the seeds have V_f(x_max) >= 1."""
    summary = cmd_signchanges(None, cfg).files["summary.json"]
    return summary["median"] >= 3.0 and summary["fraction_with_change"] >= 0.95, summary


# Check name -> check, in the order `verify` runs them.
VERIFY_CHECKS = {
    "euler-tail-constant": _check_euler_tail_constant,
    "log-weighted-bound-grid": _check_log_weighted_bound_grid,
    "zeta-asymptotic-ratio": _check_zeta_asymptotic_ratio,
    "chebyshev-two-over-log": _check_chebyshev,
    "sigma-difference-bound-scan": _check_sigma_difference_scan,
    "interval-disjointness": _check_intervals,
    "borel-cantelli-series": _check_borel_cantelli,
    "hoeffding-validity": _check_hoeffding,
    "abel-summation-identity": _check_abel_identity,
    "variance-match": _check_variance_match,
    "dyadic-bound-property-suite": _check_dyadic_property_suite,
    "chaining-oscillation": _check_chaining_oscillation,
    "sign-changes-exist": _check_sign_changes_exist,
}
# verify's targets: the constants are the first four checks.
VERIFY_TARGETS = {"constants": list(VERIFY_CHECKS)[:4], "all": list(VERIFY_CHECKS)}


def cmd_verify(args, cfg: ExperimentConfig) -> Result:
    # The fields the checks read, before any runs; c02 needs claim1_n >= e^(1/0.51).
    _at_least(cfg, "n_primes")
    _at_least(cfg, "claim1_n", 8)
    _at_least(cfg, "chebyshev_limit", 2)
    if args.target == "all":
        _at_least(cfg, "k_max")
        StepParams(cfg.epsilon)
        sequences.table_need(cfg.k_max, TheoremParams(c=cfg.c, a0=cfg.a0, a1=cfg.a1))  # c11
        rmf.extension_need(cfg.x_max, _at_least(cfg, "seeds"), cfg.x_max + 1)  # c13's sweep
        _abel_need(cfg)
        _variance_need(cfg)
        chaining.check_grid(cfg.ells, cfg.r_max, 20, cfg.prime_limit)
        concentration.step2_need(cfg.gamma, cfg.trials, range(cfg.ell_min, cfg.ell_max + 1),
                                 HOEFFDING_PRIMES)
    primes.table_need(max(cfg.claim1_n, cfg.chebyshev_limit))  # c02's and c04's prime tables
    checks, seconds = [], {}
    for name in VERIFY_TARGETS[args.target]:
        t0 = time.perf_counter()
        passed, detail = VERIFY_CHECKS[name](cfg)
        seconds[name] = round(time.perf_counter() - t0, 3)
        checks.append({"name": name, "passed": passed, "detail": detail})
    passed = all(check["passed"] for check in checks)
    return Result(
        files={
            "checks.csv": (["check", "passed"], [[c["name"], c["passed"]] for c in checks]),
            "checks.json": {"target": args.target, "checks": checks},
        },
        message="\n".join(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}"
                          for c in checks),
        extra={"passed": passed, "seconds": seconds},
        status=0 if passed else 1,
    )


# -------------------------------------------------------------- simulate --


def _quantiles(values) -> dict:
    """Median, quartiles and range of a nonempty sample, as plain floats, from one sort by the
    formulas of np.median and np.percentile's linear method, which would import numpy.ma."""
    arr = np.sort(np.asarray(values, dtype=np.float64))

    def lerp(q: float) -> float:  # numpy's _lerp at the virtual index (n - 1) q
        at = (arr.size - 1) * q
        a, b, t = arr[int(at)], arr[min(int(at) + 1, arr.size - 1)], at - int(at)
        return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)

    return {"median": float(np.mean(arr[(arr.size - 1) // 2 : arr.size // 2 + 1])),  # 1 or 2
            "q1": lerp(0.25), "q3": lerp(0.75), "min": float(arr[0]), "max": float(arr[-1])}


def cmd_simulate(args, cfg: ExperimentConfig) -> Result:
    x_max = cfg.x_max
    stride = 1 if x_max <= 10**5 else 1 << 16  # trace.csv lists every n, or every 2^16-th
    [trace] = rmf.partial_sum_trace([cfg.seed], x_max, stride)
    ns = np.arange(stride, x_max + 1, stride)

    cps = trace.change_points
    # M starts at M(1) = 1, so the first transition lands on a negative value.
    sign_after = [-1 if i % 2 else 1 for i in range(1, cps.size + 1)]

    xs = [10**k for k in range(1, len(str(x_max)))] + [x_max]
    xs = sorted(set(x for x in xs if x <= x_max))
    return Result(
        files={
            "trace.csv": (["n", "M"], [[int(n), int(m)] for n, m in zip(ns, trace.values)]),
            "changes.csv": (
                ["index", "sign_before", "sign_after"],
                [[int(n), -s, s] for n, s in zip(cps, sign_after)],
            ),
            "vf.csv": (["x", "V_f"], [[x, trace.count_changes(x)] for x in xs]),
            "summary.json": {
                "seed": cfg.seed,
                "x_max": x_max,
                "V_f": trace.count_changes(),
                "final_value": trace.final_value,
            },
        },
        message=f"simulate: V_f({x_max}) = {trace.count_changes()}, "
        f"M({x_max}) = {trace.final_value}",
    )


def cmd_signchanges(args, cfg: ExperimentConfig) -> Result:
    n_seeds, x_max = _at_least(cfg, "seeds"), cfg.x_max
    seeds = range(cfg.seed, cfg.seed + n_seeds)
    traces = rmf.partial_sum_trace(seeds, x_max, x_max + 1)  # stride x_max + 1: no samples
    counts = np.array([tr.count_changes() for tr in traces])
    summary = {
        "seeds": n_seeds,
        "x_max": x_max,
        **_quantiles(counts),
        "fraction_with_change": float(np.mean(counts >= 1)),
    }
    return Result(
        files={
            "table.csv": (
                ["seed", "V_f", "final_M"],
                [[seed, tr.count_changes(), tr.final_value] for seed, tr in zip(seeds, traces)],
            ),
            "summary.json": summary,
        },
        message=f"signchanges: median V_f({x_max}) = {summary['median']}",
    )


# ------------------------------------------------------------ prime sums --


def cmd_prime_sums(args, cfg: ExperimentConfig) -> Result:
    _at_least(cfg, "prime_limit", 2)  # before the 50-sigma grid sieves to claim1_n
    logsq_rows = [[s, r.value.estimate, r.value.upper, r.bound_rhs, r.holds]
                  for s, r in _logsq_grid(cfg.claim1_n)]

    zeta_rows = []
    for s in [1.001, 1.01, 1.1, 1.2, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0]:
        acc = prime_series.prime_zeta(s)
        direct = prime_series.prime_zeta_direct(s, min(cfg.prime_limit, cfg.claim1_n))
        zeta_rows.append(
            [s, acc.estimate, acc.lower, acc.upper, direct.estimate, direct.lower, direct.upper,
             acc.intersects(direct)]
        )

    xs = [1.5, 1.1, 1.05, 1.01, 1.005, 1.001]
    ratio_rows = [[x, *prime_series.zetaasym_ratio(x)] for x in xs]

    return Result(
        files={
            "logsq-grid.csv": (["sigma", "estimate", "upper", "bound_rhs", "holds"], logsq_rows),
            "prime-zeta.csv": (
                ["s", "accelerated", "acc_lower", "acc_upper", "direct", "dir_lower",
                 "dir_upper", "intervals_intersect"],
                zeta_rows,
            ),
            "zetaasym.csv": (["x", "ratio_sum", "ratio_logzeta"], ratio_rows),
        },
        message="prime-sums: wrote grids",
    )


# -------------------------------------------------------------- sup scan --


def cmd_sup_scan(args, cfg: ExperimentConfig) -> Result:
    bounds = [sequences.harper_lower_bound(s, cfg.c0, cfg.c1, cfg.c2) for s in cfg.sigma_grid]
    t_max = max(1.0, *(hb.t_max for hb in bounds))  # the largest grid, refused before any hash
    rmf.sup_scan_need(min(cfg.sigma_grid), t_max, cfg.grid_step, cfg.prime_limit)
    signs = rmf.sample_signs(cfg.seed, cfg.prime_limit)
    rows = []
    for sigma, hb in zip(cfg.sigma_grid, bounds):
        res = rmf.sup_scan(signs, sigma, max(1.0, hb.t_max), cfg.grid_step, limit=cfg.prime_limit)
        ek_threshold = hb.log_inv_gap - cfg.c1 * float(mp.log(hb.log_inv_gap))
        rows.append(
            [sigma, hb.t_max, res.sup_cos, res.argmax_t, res.sup_abs_f, ek_threshold,
             res.sup_cos >= ek_threshold, hb.lower, float(mp.exp(hb.lower))]
        )
    header = ["sigma", "t_max", "sup_cos", "argmax_t", "sup_absF", "ek_threshold", "exceeds",
              "harper_L", "exp_harper_L"]
    return Result(files={"scan.csv": (header, rows)},
                  message=f"sup-scan: {len(rows)} sigma values recorded")


# -------------------------------------------------------------- chaining --


def cmd_chaining(args, cfg: ExperimentConfig) -> Result:
    rows = [
        [res.seed, res.ell, res.sigma_ell, res.max_osc, res.paper_c,
         res.first_violation_r if res.first_violation_r is not None else "", res.truncation_std]
        for res in _oscillation_runs(cfg, _at_least(cfg, "seeds"))
    ]
    header = ["seed", "ell", "sigma_ell", "max_osc", "paper_C", "first_violation_r",
              "truncation_std"]
    return Result(files={"oscillation.csv": (header, rows)},
                  message=f"chaining: {len(rows)} oscillation runs recorded")


# --------------------------------------------------------- concentration --


def cmd_concentration(args, cfg: ExperimentConfig) -> Result:
    step, rows = StepParams(cfg.epsilon), _step2_rows(cfg, cfg.prime_limit)
    bc = concentration.borel_cantelli_step2(400, cfg.gamma, step)
    bigterm_ok = all(concentration.borel_cantelli_bigterm(step, ell) for ell in range(1, 101))
    return Result(
        files={
            "step2.csv": (
                ["ell", "sigma", "E_trunc", "threshold", "emp_freq", "std_err",
                 "hoeffding_bound", "asymptotic_surrogate", "variance_deficit"],
                [
                    [r.ell, r.sigma, r.variance_trunc, r.threshold, r.empirical_freq, r.std_err,
                     r.hoeffding_bound, r.asymptotic_surrogate, r.variance_deficit]
                    for r in rows
                ],
            ),
            "series.json": {
                "step2_partial_400": bc.partial_sum,
                "step2_tail_400": bc.tail_estimate,
                "bigterm_all_hold": bigterm_ok,
            },
        },
        message=f"concentration: {len(rows)} rows, hoeffding validity: {_hoeffding_valid(rows)}",
    )


# ------------------------------------------------------------- sequences --


def _nested_log_text(loglog: mp.mpf) -> str:
    """An endpoint as `<loglog>@d2`, or as `<log>@d1` when its loglog is nonpositive."""
    if loglog > 0:
        return mp.nstr(loglog, 17) + "@d2"
    return mp.nstr(mp.exp(loglog), 17) + "@d1"


def cmd_sequences(args, cfg: ExperimentConfig) -> Result:
    k_max = _at_least(cfg, "k_max")
    params = TheoremParams(c=cfg.c, a0=cfg.a0, a1=cfg.a1)
    rows = [[k, sk.sigma, sk.underflow, _nested_log_text(y), _nested_log_text(x), disjoint]
            for k, y, x, disjoint in sequences.interval_rows(k_max, params)
            for sk in [sequences.sigma_k(k, params)]]
    header = ["k", "sigma_k", "sigma_underflow", "y_k_mantissa", "X_k_mantissa",
              "disjoint_with_next"]
    return Result(files={"table.csv": (header, rows)}, message=f"sequences: {len(rows)} rows")


# ---------------------------------------------------------------- report --


def cmd_report(args, cfg: ExperimentConfig) -> int:
    out = Path(cfg.output_dir)
    manifests = sorted(out.glob("manifest-*.json"))
    if not manifests:
        raise ValueError(f"no manifests found in {out}")
    runs = [json.loads(path.read_text()) for path in manifests]

    summary: dict = {"runs": len(runs), "commands": {}, "verify_passed": None, "headline": {}}
    for r in runs:
        summary["commands"][r["command"]] = summary["commands"].get(r["command"], 0) + 1
        if r["command"] == "verify":
            summary["verify_passed"] = bool(r.get("passed"))

    # Aggregate sign-change sweeps into quartiles, each distinct config's table once.
    vf_values: list[float] = []
    for digest in sorted({r["config_digest"] for r in runs if r["command"] == "signchanges"}):
        table = out / _result_name("signchanges", "table.csv", digest)
        if table.exists():
            with open(table) as fh:
                vf_values += [float(row["V_f"]) for row in csv.DictReader(fh)]
    if vf_values:
        q = _quantiles(vf_values)
        summary["headline"]["signchanges"] = {
            "count": len(vf_values), "median": q["median"], "q1": q["q1"], "q3": q["q3"]
        }
        rows = [["count", len(vf_values)]] + [[k, v] for k, v in q.items()]
        (out / "report-signchanges.csv").write_text(_csv_text(["statistic", "value"], rows))

    sup_files = sorted(p.name for p in out.glob("sup-scan-scan-*.csv"))
    if sup_files:
        summary["headline"]["sup_scan_files"] = sup_files

    (out / "report-summary.json").write_text(_json_text(summary))
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


# ------------------------------------------------------------------ main --


# Subcommand: (handler, help text, the ExperimentConfig keys it takes as
# flags).  Every subcommand also takes --config, --seed and --output-dir.
COMMANDS = {
    "verify": (cmd_verify, "run the acceptance checks: the constants, or all",
               ("n_primes", "claim1_n", "chebyshev_limit", "trials")),
    "simulate": (cmd_simulate, "one partial-sum trace with sign changes", ("x_max",)),
    "signchanges": (cmd_signchanges, "sign-change counts over a seed sweep", ("x_max", "seeds")),
    "prime-sums": (cmd_prime_sums, "certified prime-series verification grids",
                   ("claim1_n", "prime_limit")),
    "sup-scan": (cmd_sup_scan, "grid suprema of cosine prime sums with overlays",
                 ("prime_limit", "grid_step", "c0", "c1", "c2", "sigma_grid")),
    "chaining": (cmd_chaining, "dyadic oscillation experiments",
                 ("seeds", "r_max", "prime_limit", "epsilon", "ells")),
    "concentration": (cmd_concentration, "Hoeffding tail tables and bound series",
                      ("trials", "prime_limit", "ell_min", "ell_max", "gamma", "epsilon")),
    "sequences": (cmd_sequences, "sigma_k / y_k / X_k tables at nested-log scale",
                  ("k_max", "c", "a0", "a1")),
    "report": (cmd_report, "aggregate manifests in an output directory", ()),
}


def _flag_type(key: str):
    """The argparse type of field `key`; list fields take comma-separated values."""
    kind, is_list = _KINDS[key]
    return (lambda s: [kind(v) for v in s.split(",")]) if is_list else kind


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmflab",
        description="Experiments on partial sums of Rademacher random multiplicative functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("target", choices=list(VERIFY_TARGETS))
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in ("seed", "output_dir") + keys:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=_flag_type(key), default=None)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        echo, cfg = _load_config(args)
        if args.command == "report":
            return cmd_report(args, cfg)
        result = args.func(args, cfg)
        _write_run(echo, result)
    except (ValueError, KeyError, FileNotFoundError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ResourceLimitError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    print(result.message)
    return result.status


if __name__ == "__main__":
    sys.exit(main())

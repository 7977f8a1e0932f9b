"""End-to-end benchmark of the rmflab command line.

    python3 perfbench/run.py --workload sweep|dense|certify --seed N --seconds S --trace 0|1

Every pass of a workload is a fresh interpreter (`worker.py`) that runs the
workload's commands one after another through `rmflab.cli.main`: a closed
loop with one client.  Passes repeat while another one still fits in
`--seconds`; at least one pass runs, and more where MIN_PASSES asks.
Set-up is timed separately in a few short-lived interpreters that stop
before the first command.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json: wall and CPU time are medians over
the passes, peak_rss_mb is the highest high-water mark of any pass.  With
`--trace 1` one untraced pass runs first, then traced passes; the per-layer
metrics are medians over the traced passes, and `trace.overhead_s` is the
traced minus the untraced wall time.  Both the CLI thread pool
(RMFLAB_THREADS) and OpenBLAS use every CPU this process may run on; a
preset value above that is refused.  Run records and spans go to
`.perfbench-out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import MIN_PASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("RMFLAB_THREADS", "OPENBLAS_NUM_THREADS")


def thread_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        preset = env.get(var, "").strip()
        if preset and (not preset.isdigit() or int(preset) > nproc):
            raise SystemExit(f"run.py: {var}={preset!r} is not a thread count <= nproc={nproc}")
        env[var] = str(nproc)
    return env


def environment(nproc: int, versions: dict) -> dict:
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    # Stop git at the checkout, which need not be a repository.
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
    )
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "src_sha256": src.hexdigest(),
        **versions,
        **{var: str(nproc) for var in THREAD_VARS},
    }


class Launcher:
    def __init__(self, args, env: dict[str, str], run_dir: Path):
        self.args, self.env, self.run_dir = args, env, run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.spawned = 0

    def worker(self, *flags: str) -> dict:
        """One worker interpreter; its result plus set-up and total seconds."""
        k = self.spawned = self.spawned + 1
        out, res = self.run_dir / f"pass{k}", self.run_dir / f"pass{k}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--out", str(out), "--result", str(res), *flags]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"run.py: worker {k} ran past the {RUN_LIMIT_S:.0f} s run limit")
        if proc.returncode != 0:
            raise SystemExit(f"run.py: worker {k} exited with code {proc.returncode}")
        result = json.loads(res.read_text())
        result["setup_s"] = result["ready"] - t0
        result["total_s"] = time.monotonic() - t0
        return result

    def passes(self, min_passes: int, *flags: str) -> list[dict]:
        """At least `min_passes` passes, then more while another one fits in
        --seconds and the run limit."""
        start, done = time.monotonic(), []
        while True:
            done.append(self.worker(*flags))
            now, last = time.monotonic(), done[-1]["total_s"]
            fits = now - start + last <= self.args.seconds
            if not (len(done) < min_passes or fits) or now + last > self.deadline:
                return done


def main() -> int:
    ap = argparse.ArgumentParser(description="rmflab end-to-end benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # Exit through Python on SIGTERM, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rmflab" / "__init__.py").is_file():
        print(f"run.py: no rmflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = thread_env(nproc)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    launcher = Launcher(args, env, run_dir)

    # The first probe also compiles the bytecode of a fresh checkout.
    probes = [launcher.worker("--setup-only") for _ in range(1 if args.trace else SETUP_PROBES)]
    record = environment(nproc, probes[0]["versions"])
    (run_dir / "environment.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"environment: {json.dumps(record)}", file=sys.stderr)

    baseline = launcher.worker() if args.trace else None
    min_passes = MIN_PASSES.get(args.workload, 1)
    passes = launcher.passes(min_passes, *(["--trace"] if args.trace else []))

    measured = passes + ([baseline] if baseline else [])
    attempted = sum(p["attempted"] for p in measured)
    failed = 0
    for p in measured:
        for command, why in p["failures"].items():
            print(f"FAILED {command}: {'; '.join(why)}", file=sys.stderr)
            failed += 1

    if args.trace:
        values = {k: median(p["layers"][k] for p in passes) for k in passes[0]["layers"]}
        values["trace.overhead_s"] = median(p["wall_s"] for p in passes) - baseline["wall_s"]
        values["failed_frac"] = failed / attempted
        wanted = spec["per_layer"]
    else:
        values = {k: median(p[k] for p in passes) for k in ("wall_s", "cpu_s")}
        values["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
        values["setup_s"] = median(p["setup_s"] for p in probes + passes)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"passes: {len(passes)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

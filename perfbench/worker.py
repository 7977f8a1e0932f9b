"""One pass of a benchmark workload, in a fresh interpreter.

Imports numpy, mpmath and rmflab from the checkout's `src/`, builds the
workload's command lines from the seed, then runs them one after another
through `rmflab.cli.main(argv)` in this process.  The commands' wall time,
the process's CPU time over the same interval and its RSS high-water mark
are written as JSON to `--result`, with the output-check failures.  With
`--trace` the layer spans are recorded too and written to `spans.json` in
the output directory.  With `--setup-only` the worker stops before the first
command, so the launcher can time set-up alone.

    python3 perfbench/worker.py --workload sweep --seed 0 --out DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import mpmath  # noqa: E402
from rmflab import cli  # noqa: E402

import workloads  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(cmds: list[list[str]], out: Path, seed: int, tracer=None) -> dict:
    """Run `cmds` in order, check their outputs, and measure them."""
    if tracer is not None:
        tracer.install()
    runs = []
    t0, c0 = time.perf_counter(), _cpu_s()
    try:
        for i, argv in enumerate(cmds):
            cmd_out = out / f"{i}-{argv[0]}"
            with tracer.span(f"cli.{argv[0]}") if tracer else nullcontext():
                try:
                    rc = cli.main(argv + ["--output-dir", str(cmd_out)])
                except Exception as exc:  # a crashing command is a failed command
                    rc = repr(exc)
            runs.append((argv[0], rc, cmd_out))
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    seen: dict = {}
    failures = {}
    written = 0
    for i, (command, rc, cmd_out) in enumerate(runs):
        if cmd_out.is_dir():
            written += sum(p.stat().st_size for p in cmd_out.iterdir())
        bad = workloads.check_command(command, rc, cmd_out, seed, seen)
        if bad:
            failures[f"{i}-{command}"] = bad
        else:
            shutil.rmtree(cmd_out, ignore_errors=True)
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "attempted": len(runs),
        "failures": failures,
    }
    if tracer is not None:
        layers = {f"cli.{c}_s": 0.0 for c in workloads.CHECKS}
        layers.update(tracer.metrics(wall, workers=int(os.environ["RMFLAB_THREADS"])))
        layers["cli.bytes_written"] = written
        result["layers"] = layers
    return result


def versions() -> dict[str, str]:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"worker: rmflab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cmds = workloads.commands(args.workload, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    result = {"ready": time.monotonic()}
    if args.setup_only:
        result["versions"] = versions()
    else:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        result.update(run_pass(cmds, args.out, args.seed, tracer))
        if tracer is not None:
            tracer.write(args.out / "spans.json")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

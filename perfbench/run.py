"""mingraph benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads: algebra, quadrature, curvature, newton (see perfbench/README.md).
Each run starts fresh interpreters on perfbench/worker.py: several that only
set up (their median is ``setup_s``) and one that sets up, runs a warm-up
pass and then timed passes for ``--seconds``.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("algebra", "quadrature", "curvature", "newton")
SETUP_PROBES = 4  # set-up-only processes per run; with the timed one, 5 samples
RUN_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "oracle_err": "ratio"}


class BenchError(RuntimeError):
    pass


def _worker(mode, args, workload, work, timeout) -> dict:
    """Start one worker process and return the JSON object it printed last."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--t0", repr(t0),
           "--work", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_workload(args, workload, deadline) -> dict:
    work = WORK / f"{os.getpid()}-{workload}"
    try:
        setups = [_worker("setup", args, workload, work / f"setup{k}",
                          deadline - time.monotonic())["setup_s"]
                  for k in range(SETUP_PROBES)]
        res = _worker("run", args, workload, work / "run", deadline - time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])
    res["setups"] = setups
    res["setup_s"] = statistics.median(setups)
    return res


def end_to_end(res) -> dict:
    """Metric name -> (value, sample count) for the untraced run."""
    return {
        "setup_s": (res["setup_s"], len(res["setups"])),
        "wall_s": (res["wall_s"], len(res["walls"])),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "oracle_err": (res["oracle_err"], 1),
    }


def report(args, workload, res) -> dict:
    """Print the human-readable lines of one workload; return its metrics."""
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}")
    metrics = {}
    if args.trace:
        metrics = res["layers"]
        for name, m in metrics.items():
            print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")
        print(f"  traced walls {res['traced_walls']}  untraced walls {res['walls']}")
    else:
        for name, (value, count) in end_to_end(res).items():
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": value, "unit": unit}
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:12s} {shown:>12s} {unit:6s} n={count}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':12s} {frac:12.6g} {'ratio':6s} n={res['attempted']}"
          f"  ({res['failed']} of {res['attempted']} operations failed)")
    print(f"  cpu_per_wall {res['cpu_per_wall']:.4f}  setup samples {res['setups']}"
          f"  wall samples {res['walls']}")
    for name, walls in res["op_walls"].items():
        print(f"  op {name} wall samples {walls}")
    for problem in res["problems"]:
        print(f"  FAIL {problem}")
    print("  facts " + json.dumps(res["facts"], sort_keys=True))
    print("  report sha256 " + json.dumps(res["digests"], sort_keys=True))
    print("  input sha256 " + json.dumps(res["inputs"], sort_keys=True))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mingraph" / "__init__.py").is_file():
        print(f"error: no mingraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            res = run_workload(args, name, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        shown = report(args, name, res)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in shown.items()})
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

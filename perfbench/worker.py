"""One benchmark process: set a workload up, then time passes over it.

``run.py`` starts this file in a fresh interpreter and reads the JSON object
it prints last.  With ``--mode setup`` the process only sets up (imports
mingraph, builds the models, writes the seeded inputs) and reports how long
that took since ``--t0``, a ``time.monotonic()`` reading taken by the parent
just before it started this process.  With ``--mode run`` it then runs one
untimed warm-up pass and as many timed passes as fit in ``--seconds``,
at least three.  With ``--trace 1`` the timed passes alternate between
untraced and traced.  ``wall_s`` sums each operation's median wall time.

Every pass checks each operation's results and compares the SHA-256 of its
report bytes with those of the warm-up pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS gets one thread, so with --threads 2 a process runs at most nproc (2)
# busy threads.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# timed passes at least; a traced run's rounds (an untraced and a traced
# pass) are long and its metrics have no bound, so one is enough there
MIN_ROUNDS = {0: 3, 1: 1}


def _import_package():
    """Import mingraph from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import mingraph

    origin = Path(mingraph.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"mingraph imported from {origin}, not from {SRC}")


def host_facts(seed: int, threads: str) -> dict:
    """Facts about the host and the checkout, recorded next to every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "threads": int(threads),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    oracle: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # operation -> report SHA-256
    op_walls: dict = field(default_factory=dict)  # operation -> wall seconds
    report_bytes: int = 0


def run_pass(workload, reference) -> PassResult:
    """Run every operation once; ``reference`` holds the warm-up digests."""
    res = PassResult()
    t0, c0 = time.perf_counter(), time.process_time()
    for name, op in workload.ops:
        res.attempted += 1
        problems = []
        op_start = time.perf_counter()
        try:
            out = op()
            problems += out.problems
            digest = hashlib.sha256(out.data)
            for path in out.files:
                blob = path.read_bytes()
                res.report_bytes += len(blob)
                digest.update(path.name.encode() + b"\0" + blob)
            res.digests[name] = digest.hexdigest()
            res.oracle += out.oracle
        except Exception as exc:  # an operation that raises counts as failed
            problems.append(f"{type(exc).__name__}: {exc}")
        res.op_walls[name] = time.perf_counter() - op_start
        if reference is not None and res.digests.get(name) != reference.get(name):
            problems.append("report bytes differ from the warm-up pass")
        if problems:
            res.failed += 1
            res.problems += [f"{name}: {p}" for p in problems]
    res.wall = time.perf_counter() - t0
    res.cpu = time.process_time() - c0
    return res


def typical_wall(passes) -> float:
    """Sum over the operations of each operation's median wall time.

    The host's slow spells last a second or two, so most passes catch one
    in some operation; a median taken per operation skips them where the
    median of whole passes would not.
    """
    return sum(statistics.median(p.op_walls[name] for p in passes)
               for name in passes[0].op_walls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    # inputs refer to each other by relative paths, so that the same seed
    # gives the same bytes wherever the work directory is
    work = Path(args.work).resolve()
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    workload = workloads.setup(args.workload, args.seed, work)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    warm = run_pass(workload, None)
    passes, traced, layer_runs, rounds = [warm], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(run_pass(workload, warm.digests))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                p = run_pass(workload, warm.digests)
            finally:
                tracer.restore()
            traced.append(p)
            layer_runs.append(tracing.layer_metrics(
                tracer.spans, tracer.peak_alloc, p.cpu / p.wall, p.report_bytes))
        # stop before a round that would likely end past --seconds, so the
        # run length does not grow with the pass length
        now = time.perf_counter()
        rounds.append(now - round_start)
        if (len(rounds) >= MIN_ROUNDS[args.trace]
                and now - start + statistics.median(rounds) > args.seconds):
            break

    timed = passes[1:]
    everything = passes + traced
    walls = [p.wall for p in timed]
    result.update(
        wall_s=typical_wall(timed),
        walls=walls,
        op_walls={name: [p.op_walls[name] for p in timed] for name in warm.op_walls},
        attempted=sum(p.attempted for p in everything),
        failed=sum(p.failed for p in everything),
        problems=[q for p in everything for q in p.problems][:20],
        oracle_err=max(warm.oracle) if warm.oracle else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cpu_per_wall=sum(p.cpu for p in timed) / sum(walls),
        digests=warm.digests,
        inputs={p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in workload.inputs},
        facts=host_facts(args.seed, workloads.THREADS),
    )
    if args.trace:
        values = {k: statistics.median(run[k] for run in layer_runs)
                  for k in layer_runs[0]}
        values["trace.overhead_frac"] = (
            typical_wall(traced) / result["wall_s"] - 1.0)
        result["layers"] = {k: {"value": values[k], "unit": unit}
                            for k, unit in tracing.PER_LAYER.items()}
        result["traced_walls"] = [p.wall for p in traced]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

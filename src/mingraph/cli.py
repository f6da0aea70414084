"""Config-driven command line runner with reproducible file outputs.

Subcommands: ``invariants``, ``verify-algebra``, ``solve``, ``diagnose``,
``measure``, ``zoo list``.  Every run reads one JSON config (where needed),
writes deterministic reports (JSON/CSV/XML/MGP1) into the output directory,
and reserves timestamps and timings for a separate ``run.log`` (``solve``
appends one JSON line per Newton iteration there).  Exit codes: 0 success,
1 assertion failure, 2 solver non-convergence, 3 invalid input (usage errors
and running out of memory included).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from mingraph import algebra, diagnostics, measure, models, solver, suites, util

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID = 3


class InvalidConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as invalid input, not with argparse's exit 2."""

    def error(self, message):
        raise InvalidConfigError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_config(args) -> dict:
    if args.config is None:
        raise InvalidConfigError("this subcommand requires --config")
    path = Path(args.config)
    if not path.is_file():
        raise InvalidConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidConfigError("config must be a JSON object")
    return cfg


def _integer(value, key: str) -> int:
    """An integral config value: 1e5 reads as 100000, and 40.7 is refused."""
    if isinstance(value, float) and not value.is_integer():
        raise InvalidConfigError(f"config key '{key}' must be an integer, got {value!r}")
    return int(value)


def _seed(args, cfg) -> int:
    """The run's seed: ``--seed``, else the config's 'seed' (default 1)."""
    seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 1), "seed")
    if seed < 0:
        raise InvalidConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _out_dir(args) -> Path:
    out = Path(args.out if args.out is not None else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _log(out: Path, message: str) -> None:
    """Timestamps go only here, never into the report files."""
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(out / "run.log", "a") as fh:
        fh.write(f"{stamp} {message}\n")


def _finite(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite float is written as null.

    The run's exit code flags such a value; the rest of the report stays
    readable by parsers that refuse NaN and Infinity.
    """
    text = json.dumps(_finite(payload), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


def _get_model(cfg):
    label = cfg.get("model")
    if not isinstance(label, str):
        raise InvalidConfigError("config needs a 'model' label")
    try:
        return models.get_model(label, **cfg.get("model_params", {}))
    except KeyError as exc:
        raise InvalidConfigError(str(exc)) from exc


def cmd_invariants(args) -> int:
    out = _out_dir(args)
    _log(out, f"invariants mutate={args.mutate}")
    results = suites.run_suites(mutate=args.mutate)
    (out / "invariants.xml").write_text(suites.junit_xml(results))
    failures = [r for r in results if not r.passed]
    print(f"invariant suites: {len(results)} checks, {len(failures)} failures")
    for r in failures:
        print(f"  FAIL {r.name}: {r.message}")
    return EXIT_OK if not failures else EXIT_ASSERTION


def cmd_verify_algebra(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    seed = _seed(args, cfg)
    threads = args.threads
    step = float(cfg.get("grid_step", 0.05))
    samples = _integer(cfg.get("samples", 100000), "samples")
    constraint = cfg.get("constraint", "sharp")
    lam_values = [float(v) for v in cfg.get("lam_values", [0.5, 1.0, 1.2, math.sqrt(2)])]
    eps_values = [float(v) for v in cfg.get("eps_values", [0.3, 0.1, 0.03, 0.01])]
    # each value checked once, before the pool: a report refuses a bad one only
    # after the reports ahead of it have run
    algebra._grid_divisions(step)
    algebra._check_samples(samples)
    for lam in lam_values:
        algebra._check_lambda(lam)
    for eps in eps_values:
        algebra._check_xi11(1.0, eps)
    _log(out, f"verify-algebra seed={seed} threads={threads}")

    # the one pool of algebra work: whole reports, each running its grid
    # slices or seeded chunks in order on one thread
    jobs = [partial(algebra.scan_mu123, step, constraint=constraint)]
    jobs += [partial(algebra.scan_mu123_lambda, lam, step) for lam in lam_values]
    jobs.append(partial(algebra.check_sqrt2_inequality, samples, seed))
    jobs += [partial(algebra.check_lambda_inequality, lam, samples, seed)
             for lam in lam_values]
    jobs += [partial(algebra.xi11_sampler, 1.0, eps, samples, seed) for eps in eps_values]
    reports = util.run_chunks(lambda job: job(), jobs, threads)
    payload = {"config": {"grid_step": step, "samples": samples, "seed": seed,
                          "constraint": constraint, "lam_values": lam_values,
                          "eps_values": eps_values},
               "reports": [r.to_dict() for r in reports]}
    _write_json(out / "verify_algebra.json", payload)
    bad = [r for r in reports if not r.ok]
    print(f"verify-algebra: {len(reports)} reports, {len(bad)} with violations")
    for r in bad:
        print(f"  FAIL {r.check}: min={r.min_value:.6g} at {r.argmin}")
    return EXIT_OK if not bad else EXIT_ASSERTION


# interior values times m: about 270 B each at 3-4 Newton steps and up to about
# 760 B with a full Krylov basis, so at most about 1.5 GB here
_MAX_UNKNOWNS = 2 * 10**6


def _check_unknowns(dims, m) -> None:
    """Refuse a solve above ``_MAX_UNKNOWNS`` before any of it is allocated."""
    unknowns = math.prod(max(d - 2, 0) for d in dims) * m
    if unknowns > _MAX_UNKNOWNS:
        raise InvalidConfigError(f"dims {list(dims)} with m = {m} ask for {unknowns:.2e} "
                                 f"unknowns, above the ceiling {_MAX_UNKNOWNS:.0e}")


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    _log(out, "solve")
    if "patch" in cfg:
        path = Path(cfg["patch"])
        if not path.is_file():
            raise InvalidConfigError(f"patch manifest not found: {path}")
        patch = solver.load_patch(path)
        _check_unknowns(patch.dims, patch.m)
    else:
        model = _get_model(cfg)
        dims = cfg.get("dims")
        spacing = cfg.get("spacing")
        origin = cfg.get("origin")
        if dims is None or spacing is None or origin is None:
            raise InvalidConfigError("solve config needs dims, spacing, origin")
        dims = [_integer(d, "dims") for d in dims]
        _check_unknowns(dims, model.m)
        patch = solver.GraphPatch.from_model(model, origin, dims, float(spacing))
        interior = tuple(slice(1, -1) for _ in range(patch.n))
        patch.values[interior] = 0.0  # keep only the boundary data
    report = solver.solve(
        patch,
        tol=float(cfg.get("tol", solver.DEFAULT_TOL)),
        max_iter=_integer(cfg.get("max_iter", 50), "max_iter"),
    )
    solver.save_patch(patch, out / "solved.json")
    _write_json(out / "solve_report.json", report.to_dict())
    with open(out / "run.log", "a") as fh:  # timings vary: one JSON line each
        for entry in report.iteration_log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(
        f"solve: iterations={report.iterations} residual={report.residual:.3e} "
        f"converged={report.converged}"
    )
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


# about 50 us and 2.7 KB per point: some 10 s and 0.5 GB here
_MAX_DIAGNOSE_POINTS = 2 * 10**5


def _diagnose_points(cfg, model, seed):
    pts_cfg = cfg.get("points", {})
    count = _integer(pts_cfg.get("count", 100), "points.count")
    if count < 0:
        raise InvalidConfigError(f"points.count must be >= 0, got {count}")
    if count > _MAX_DIAGNOSE_POINTS:
        raise InvalidConfigError(f"points.count {count} is above the ceiling "
                                 f"{_MAX_DIAGNOSE_POINTS:.0e}")
    asserted = [k for k in ("assert_gap_max", "assert_margin_sqrt2_min")
                if cfg.get(k) is not None]
    if count == 0 and asserted:
        raise InvalidConfigError(
            f"points.count is 0: {' and '.join(asserted)} would hold on no points")
    rmin = float(pts_cfg.get("radius_min", 0.5))
    rmax = float(pts_cfg.get("radius_max", 2.0))
    for key, r in (("radius_min", rmin), ("radius_max", rmax)):
        if not 0.0 <= r < math.inf:
            raise InvalidConfigError(f"points.{key} must be finite and >= 0, got {r!r}")
    if rmin > rmax:
        raise InvalidConfigError(
            f"points.radius_min {rmin!r} exceeds points.radius_max {rmax!r}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, model.n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(rmin, rmax, (count, 1))
    return x


def cmd_diagnose(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    model = _get_model(cfg)
    seed = _seed(args, cfg)
    step = float(cfg.get("step", 1e-3))
    lam_bound = float(cfg.get("lam_bound", math.sqrt(2.0)))
    if not 0.0 < lam_bound < math.inf:
        raise InvalidConfigError(
            f"lam_bound must be positive and finite, got {lam_bound!r}")
    _log(out, f"diagnose model={model.label} seed={seed}")
    pts = _diagnose_points(cfg, model, seed)
    rep = diagnostics.write_diagnostics_csv(model, pts, out / "diagnostics.csv",
                                            step, lam_bound)
    margin_floor = cfg.get("assert_margin_sqrt2_min")
    gap_ceiling = cfg.get("assert_gap_max")
    summary = {"model": model.label, "points": len(pts), "step": step,
               "lam_bound": lam_bound, "seed": seed}
    worst_gap = float(np.max(np.abs(rep.gap), initial=0.0))
    worst_margin = float(np.min(rep.margin_sqrt2, initial=math.inf))
    summary["max_abs_gap"] = worst_gap
    summary["min_margin_sqrt2"] = worst_margin
    _write_json(out / "diagnose_summary.json", summary)
    print(f"diagnose: max|gap|={worst_gap:.3e} min margin={worst_margin:.3e}")
    if gap_ceiling is not None and not worst_gap <= float(gap_ceiling):
        print(f"  FAIL gap {worst_gap:.3e} exceeds {gap_ceiling}")
        return EXIT_ASSERTION
    if margin_floor is not None and not worst_margin >= float(margin_floor):
        witness = pts[np.argmin(rep.margin_sqrt2)]
        print(f"  FAIL margin {worst_margin:.3e} below {margin_floor} "
              f"at {witness.tolist()}")
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_measure(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    model = _get_model(cfg)
    radii = [float(r) for r in cfg.get("radii", [])]
    resolution = _integer(cfg.get("resolution", 64), "resolution")
    bounds = cfg.get("volume_lower_bounds", [])
    for rho, _ in bounds:
        if float(rho) not in radii:
            raise InvalidConfigError(
                f"volume_lower_bounds names radius {rho}, which is not in radii")
    center = cfg.get("center")
    if center is None:
        base = np.zeros(model.n)
        center = (
            model.graph_point(base)
            if bool(np.asarray(model.in_domain(base)))
            else np.zeros(model.n + model.m)
        )
    center = np.asarray(center, dtype=float)
    _log(out, f"measure model={model.label}")
    profile = measure.density_profile(model, center, radii, resolution, args.threads)
    with open(out / "measure.csv", "w") as fh:
        fh.write("radius,volume,ratio,est_error\n")
        for rho, vol, ratio, err in zip(profile.radii, profile.volumes, profile.ratios,
                                        profile.est_errors):
            fh.write(f"{float(rho)!r},{float(vol)!r},{float(ratio)!r},{float(err)!r}\n")
    summary = {
        "model": model.label,
        "resolution": resolution,
        "center": [float(c) for c in center],
        "radii": radii,
        "ratios": [float(r) for r in profile.ratios],
        "monotonicity_margin": profile.monotonicity_margin,
    }
    _write_json(out / "measure_summary.json", summary)
    print(f"measure: ratios {profile.ratios.round(6).tolist()}")
    band = 3.0 * float(np.max(profile.est_errors))
    if cfg.get("assert_monotone", True) and profile.monotonicity_margin < -band:
        print(f"  FAIL density ratio decreases by {-profile.monotonicity_margin:.3e}")
        return EXIT_ASSERTION
    for rho, bound in bounds:
        vol = profile.volumes[radii.index(float(rho))]
        if vol < float(bound):
            print(f"  FAIL volume {vol:.6g} at radius {rho} below bound {bound}")
            return EXIT_ASSERTION
    return EXIT_OK


def cmd_zoo(args) -> int:
    for label in models.model_labels():
        model = models.get_model(label)
        print(f"{label}: R^{model.n} -> R^{model.m}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads; each fn is looked up per call."""
    parser = _Parser(prog="mingraph",
                     description="Minimal-graph geometry experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    # --config stays optional: _load_config refuses its absence only after
    # argparse has refused any flag the subcommand does not take
    arguments = {
        "--config": dict(help="JSON config file"),
        "--out": dict(help="output directory (default: current)"),
        "--seed": dict(type=int, help="seed override"),
        "--threads": dict(type=positive_int, default=1, help="worker cap"),
        "--mutate": dict(choices=suites.MUTATIONS,
                         help="inject a deliberate defect (negative control)"),
        "zoo_action": dict(choices=["list"]),
    }
    for name, fn, names, text in [
        ("invariants", cmd_invariants, "--out --mutate", "run property suites"),
        ("verify-algebra", cmd_verify_algebra, "--config --out --seed --threads",
         "algebraic inequalities"),
        ("solve", cmd_solve, "--config --out", "minimal graph on a grid"),
        ("diagnose", cmd_diagnose, "--config --out --seed", "curvature identity"),
        ("measure", cmd_measure, "--config --out --threads", "density ratios"),
        ("zoo", cmd_zoo, "zoo_action", "model registry"),
    ]:
        p = sub.add_parser(name, help=text)
        for arg in names.split():
            p.add_argument(arg, **arguments[arg])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, TypeError, OSError, algebra.SamplingFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

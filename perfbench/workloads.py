"""The four benchmark workloads: seeded inputs, operations, checks and oracles.

A workload is built in two steps.  ``setup(name, seed, workdir)`` generates
every input from the seed (configs, the 3-D MGP1 patch) and writes it under
``workdir``.  The returned ``Workload`` holds the operations of one pass.
Each operation is one CLI call or one library call plus its checks; it
returns the report files it wrote, its oracle errors and the problems its
checks found.

The oracle errors compare a result with a closed-form value where the error
comes only from discretisation, so they repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from mingraph import cli, diagnostics, models, solver

THREADS = "2"  # --threads for verify-algebra and measure; nproc is 2

CONE_DENSITY = 16.0 / 9.0  # Lawson-Osserman cone, Acta Math. 139 (1977)
# |B|^2 r^2 = 25/18 and v = 9 on the cone, so the integral of |B|^2 v over
# the base ball of radius R is 9 (25/18) 2 pi^2 R^2 = 12.5 pi^2 R^2.
CONE_CURVATURE_COEFF = 12.5 * math.pi**2
CURVATURE_RADIUS = 2.0
CURVATURE_NODES = 30

LAM_VALUES = (0.5, 1.0, 1.2, math.sqrt(2.0))  # verify-algebra's defaults
MU_MAX = 4.0  # scan box [0, MU_MAX]^3 of scan_mu123_lambda
GRID_STEP = 0.02
SAMPLES = 100000

# Check tolerances.  Criteria 05 (argmin near (2, 2, .)), 09 (cone spread
# <= 1%) and 11 (xi11 trend within 0.02) of the acceptance gate set the
# first three; the oracle ceilings are about 3x the errors seen at these
# sizes, so a real regression in accuracy fails the check.
ARGMIN_TOL = 0.05
XI11_TREND_TOL = 0.02
CONE_SPREAD_MAX = 0.01
ALGEBRA_ORACLE_MAX = 0.3
QUADRATURE_ORACLE_MAX = 0.02
CURVATURE_ORACLE_MAX = 0.02
NEWTON_ORACLE_MAX = 1e-4
CONE_GAP_MAX = 1e-8


@dataclass
class Outcome:
    """What one operation produced: report files, oracle errors, problems."""

    files: list = field(default_factory=list)
    oracle: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    data: bytes = b""  # the result of a library call, digested like a report


@dataclass
class Workload:
    inputs: list  # input files, for the same-seed determinism check
    ops: list  # [(op name, callable returning Outcome)]


def lambda_region_volume(lam2: float, box: float = MU_MAX) -> float:
    """Volume of {mu in [0, box]^3 : mu_i mu_j <= lam2 for all i != j}.

    For fixed mu_1 = x the other two lie in [0, w]^2 with w = min(box, lam2/x)
    and mu_2 mu_3 <= lam2; that slice has area w^2 when w^2 <= lam2 and
    lam2 (1 + log(w^2 / lam2)) otherwise.  Integrating over x in closed form
    (valid for lam2 <= box^2) gives the three terms below.
    """
    L, M = lam2, box
    a, b = L / M, math.sqrt(L)
    inner = a * L * (1.0 + math.log(M * M / L))

    def antideriv(x):  # integral of L (1 + log L - 2 log x) dx
        return L * ((1.0 + math.log(L)) * x - 2.0 * (x * math.log(x) - x))

    middle = antideriv(b) - antideriv(a)
    outer = L * L * (1.0 / b - 1.0 / M)
    return inner + middle + outer


def _cli(argv) -> int:
    """Run one CLI subcommand, keeping its console output off our stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main([str(a) for a in argv])


def _write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _subseed(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def _radii(seed: int) -> list:
    """1 and 4 with two seeded radii between them, strictly increasing."""
    inner = np.sort(_subseed(seed, 1).uniform(1.25, 3.75, 2))
    if inner[1] - inner[0] < 0.1:
        inner[1] = inner[0] + 0.1
    return [1.0, float(inner[0]), float(inner[1]), 4.0]


def _setup_algebra(seed: int, work: Path) -> Workload:
    cfg = _write_config(work / "va.json",
                        {"grid_step": GRID_STEP, "samples": SAMPLES, "seed": seed})
    out = work / "va"
    volumes = {lam: lambda_region_volume(lam * lam) for lam in LAM_VALUES}

    def verify_algebra() -> Outcome:
        res = Outcome(files=[out / "verify_algebra.json"])
        code = _cli(["verify-algebra", "--config", cfg, "--out", out,
                     "--threads", THREADS, "--seed", seed])
        if code != 0:
            res.problems.append(f"verify-algebra exit {code}")
            return res
        reports = json.loads(res.files[0].read_text())["reports"]
        res.problems += [f"{r['check']} {r['params']}: {r['violations']} violations"
                         for r in reports if r["violations"] != 0]
        sharp = next(r for r in reports if r["check"] == "mu123")
        mu = sorted(sharp["argmin"], reverse=True)
        if abs(mu[0] - 2.0) > ARGMIN_TOL or abs(mu[1] - 2.0) > ARGMIN_TOL:
            res.problems.append(f"sharp-scan argmin {sharp['argmin']} not near (2, 2, .)")
        xi = [r["max_value"] for r in reports if r["check"] == "xi11-limit"]
        if any(b > a + XI11_TREND_TOL for a, b in zip(xi, xi[1:])):
            res.problems.append(f"xi11 maxima {xi} increase as eps shrinks")
        # admissible grid triples times the cell volume against the region's
        # exact volume: the error is the grid's boundary layer, O(grid step)
        for r in reports:
            if r["check"] == "mu123-lambda":
                h = r["params"]["grid_step"]
                exact = volumes[r["params"]["Lambda"]]
                res.oracle.append(abs(r["samples"] * h**3 - exact) / exact)
        if max(res.oracle) > ALGEBRA_ORACLE_MAX:
            res.problems.append(f"admissible-volume error {max(res.oracle):.3e}")
        return res

    return Workload([cfg], [("verify-algebra", verify_algebra)])


def _setup_quadrature(seed: int, work: Path) -> Workload:
    radii = _radii(seed)
    cases = [
        ("cone", {"model": "lawson-osserman", "center": [0.0] * 7, "radii": radii,
                  "resolution": 40}, CONE_DENSITY),
        ("slag-exp", {"model": "slag-exp", "center": [0.0, 0.0, 1.0, 0.0],
                      "radii": radii, "resolution": 512}, None),
        ("affine", {"model": "affine", "model_params": {"A": [[0.5, -0.2]]},
                    "center": [0.0, 0.0, 0.0], "radii": radii, "resolution": 128},
         1.0),
    ]
    ops, inputs = [], []
    for label, payload, density in cases:
        payload = dict(payload, assert_monotone=True)
        cfg = _write_config(work / f"measure_{label}.json", payload)
        inputs.append(cfg)
        ops.append((f"measure-{label}", _measure_op(label, cfg, work / label, density)))
    return Workload(inputs, ops)


def _measure_op(label, cfg, out, density) -> Callable[[], Outcome]:
    def run() -> Outcome:
        res = Outcome(files=[out / "measure.csv", out / "measure_summary.json"])
        code = _cli(["measure", "--config", cfg, "--out", out, "--threads", THREADS])
        if code != 0:
            res.problems.append(f"measure {label} exit {code}")
            return res
        ratios = json.loads(res.files[1].read_text())["ratios"]
        if label == "cone":
            spread = max(ratios) / min(ratios) - 1.0
            if spread > CONE_SPREAD_MAX:
                res.problems.append(f"cone ratio spread {spread:.3%}")
        if density is not None:
            err = max(abs(r - density) / density for r in ratios)
            res.oracle.append(err)
            if err > QUADRATURE_ORACLE_MAX:
                res.problems.append(f"{label} density error {err:.3e}")
        return res

    return run


def _setup_curvature(seed: int, work: Path) -> Workload:
    ops, inputs = [], []
    for k, (label, model) in enumerate([("cone", "lawson-osserman"),
                                        ("slag-exp", "slag-exp")]):
        payload = {"model": model, "seed": int(_subseed(seed, 10 + k).integers(2**31)),
                   "points": {"count": 300, "radius_min": 0.5, "radius_max": 2.0},
                   "step": 1e-3}
        if label == "cone":
            payload["assert_gap_max"] = CONE_GAP_MAX
        cfg = _write_config(work / f"diagnose_{label}.json", payload)
        inputs.append(cfg)
        ops.append((f"diagnose-{label}", _diagnose_op(label, cfg, work / label)))
    exact = CONE_CURVATURE_COEFF * CURVATURE_RADIUS**2

    def curvature_integral() -> Outcome:
        model = models.get_model("lawson-osserman")
        value = diagnostics.curvature_integral(model, CURVATURE_RADIUS, CURVATURE_NODES)
        err = abs(value - exact) / exact
        res = Outcome(oracle=[err], data=repr(value).encode())
        if err > CURVATURE_ORACLE_MAX:
            res.problems.append(f"cone curvature integral error {err:.3e}")
        return res

    ops.append(("curvature-integral", curvature_integral))
    return Workload(inputs, ops)


def _diagnose_op(label, cfg, out) -> Callable[[], Outcome]:
    def run() -> Outcome:
        res = Outcome(files=[out / "diagnostics.csv", out / "diagnose_summary.json"])
        code = _cli(["diagnose", "--config", cfg, "--out", out])
        if code != 0:
            res.problems.append(f"diagnose {label} exit {code}")
        return res

    return run


# Fixed non-harmonic quadratic forms (nonzero traces) and affine parts of
# the 3-D boundary data; the seed perturbs them by a few percent, which keeps
# the Newton step count (4) and the factor sizes the same from seed to seed.
_Q3 = np.array([[[0.6, 0.3, -0.2], [0.3, 0.2, 0.4], [-0.2, 0.4, -0.1]],
                [[-0.3, 0.2, 0.5], [0.2, 0.7, -0.3], [0.5, -0.3, 0.4]]])
_B3 = np.array([[0.3, -0.2, 0.1], [-0.1, 0.25, 0.2]])


def _boundary_patch(seed: int) -> solver.GraphPatch:
    """17^3 grid on [0, 1]^3 with smooth, non-harmonic data u: R^3 -> R^2."""
    rng = _subseed(seed, 20)
    dims = (17, 17, 17)
    patch = solver.GraphPatch(3, 2, dims, 1.0 / 16, np.zeros(3), np.zeros(dims + (2,)))
    x = patch.node_coords()
    for alpha in range(2):
        b = _B3[alpha] + rng.uniform(-0.05, 0.05, 3)
        q = rng.uniform(-0.05, 0.05, (3, 3))
        q = _Q3[alpha] + 0.5 * (q + q.T)
        patch.values[..., alpha] = x @ b + np.einsum("...i,ij,...j->...", x, q, x)
    patch.values[1:-1, 1:-1, 1:-1] = 0.0  # keep only the boundary data
    return patch


def _setup_newton(seed: int, work: Path) -> Workload:
    nodes = 129
    cfg2 = _write_config(work / "solve_slag.json",
                         {"model": "slag-exp", "origin": [0.0, 0.0],
                          "dims": [nodes, nodes], "spacing": 1.0 / (nodes - 1)})
    slag = models.get_model("slag-exp")
    axis = np.arange(nodes) / (nodes - 1)
    exact = slag.value(np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1))
    scale = float(np.max(np.abs(exact)))
    patch_file = work / "boundary3d.json"
    solver.save_patch(_boundary_patch(seed), patch_file)
    cfg3 = _write_config(work / "solve_3d.json", {"patch": patch_file.name})
    out2, out3 = work / "slag", work / "3d"

    def solve_slag() -> Outcome:
        res = Outcome(files=[out2 / "solved.json", out2 / "solved.bin",
                             out2 / "solve_report.json"])
        code = _cli(["solve", "--config", cfg2, "--out", out2])
        if code != 0:
            res.problems.append(f"solve slag-exp exit {code}")
            return res
        values = solver.load_patch(res.files[0]).values
        err = float(np.max(np.abs(values - exact))) / scale
        res.oracle.append(err)
        if err > NEWTON_ORACLE_MAX:
            res.problems.append(f"slag-exp solution error {err:.3e}")
        return res

    def solve_3d() -> Outcome:
        res = Outcome(files=[out3 / "solved.json", out3 / "solved.bin",
                             out3 / "solve_report.json"])
        code = _cli(["solve", "--config", cfg3, "--out", out3])
        if code != 0:
            res.problems.append(f"solve 3-D patch exit {code}")
        return res

    inputs = [cfg2, cfg3, patch_file, patch_file.with_suffix(".bin")]
    return Workload(inputs, [("solve-slag-exp", solve_slag), ("solve-3d", solve_3d)])


_SETUP = {
    "algebra": _setup_algebra,
    "quadrature": _setup_quadrature,
    "curvature": _setup_curvature,
    "newton": _setup_newton,
}


def setup(name: str, seed: int, work: Path) -> Workload:
    """Generate the seeded inputs of workload ``name`` under ``work``.

    Operations must run with ``work`` as the current directory, because the
    3-D solve config names its patch by a relative path.
    """
    work.mkdir(parents=True, exist_ok=True)
    return _SETUP[name](seed, work)

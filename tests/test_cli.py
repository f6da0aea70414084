"""End-to-end tests of the command line runner: exit codes and artifacts."""

import argparse
import json
import math

import numpy as np
import pytest

from mingraph import cli, solver


def run(args):
    return cli.main(args)


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_zoo_list(capsys):
    assert run(["zoo", "list"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "lawson-osserman" in out and "slag-exp" in out and "affine" in out


def test_invariants_pass_and_write_report(tmp_path, capsys):
    assert run(["invariants", "--out", str(tmp_path)]) == cli.EXIT_OK
    xml = (tmp_path / "invariants.xml").read_text()
    assert 'failures="0"' in xml
    assert "0 failures" in capsys.readouterr().out


def test_invariants_mutation_negative_control(tmp_path, capsys):
    code = run(["invariants", "--out", str(tmp_path), "--mutate", "slope-sign"])
    assert code == cli.EXIT_ASSERTION
    assert "FAIL" in capsys.readouterr().out
    # the mutation must not leak into the process state
    from mingraph.grassmann import slope

    assert slope([0.0]) == pytest.approx(1.0)


def test_missing_config_is_invalid_input(tmp_path):
    assert run(["measure", "--out", str(tmp_path)]) == cli.EXIT_INVALID
    assert run(["measure", "--config", "/no/such.json"]) == cli.EXIT_INVALID


def test_malformed_config_is_invalid_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["measure", "--config", str(bad)]) == cli.EXIT_INVALID
    unknown = write_cfg(tmp_path, "unknown.json", {"model": "nope", "radii": [1, 2]})
    assert run(["measure", "--config", unknown]) == cli.EXIT_INVALID


def test_incomplete_patch_manifest_is_invalid_input(tmp_path, capsys):
    (tmp_path / "p.json").write_text('{"format": "MGP1", "n": 2}')
    cfg = write_cfg(tmp_path, "solve.json", {"patch": str(tmp_path / "p.json")})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'m'" in err and err.count("\n") == 1


def test_wrongly_typed_config_value_is_invalid_input(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m.json", {"model": "affine", "radii": [1, 2],
                                          "resolution": [64]})
    assert run(["measure", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_algebra_ok_and_deterministic(tmp_path):
    cfg = write_cfg(
        tmp_path, "va.json", {"grid_step": 0.1, "samples": 5000, "seed": 1}
    )
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["verify-algebra", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    ra = (tmp_path / "a" / "verify_algebra.json").read_bytes()
    rb = (tmp_path / "b" / "verify_algebra.json").read_bytes()
    assert ra == rb


def test_verify_algebra_weakened_constraint_fails(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "va.json",
        {"grid_step": 0.25, "samples": 2000, "seed": 1,
         "constraint": "pairwise_le_4"},
    )
    code = run(["verify-algebra", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_ASSERTION
    assert "FAIL" in capsys.readouterr().out


def test_solve_affine_writes_patch(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "solve.json",
        {
            "model": "affine",
            "model_params": {"A": [[1.0, -0.5]], "b": [0.2]},
            "origin": [0, 0],
            "dims": [17, 17],
            "spacing": 0.0625,
        },
    )
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] is True
    assert report["residual"] <= 1e-12
    patch = solver.load_patch(out / "solved.json")
    assert patch.dims == (17, 17)


def test_solve_from_patch_file(tmp_path):
    from mingraph.models import model_slag_exp

    patch = solver.GraphPatch.from_model(model_slag_exp(), [0, 0], (17, 17), 1 / 16)
    solver.save_patch(patch, tmp_path / "in.json")
    cfg = write_cfg(tmp_path, "solve.json", {"patch": str(tmp_path / "in.json")})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_OK


def test_solve_logs_each_newton_iteration(tmp_path):
    cfg = write_cfg(tmp_path, "solve.json",
                    {"model": "slag-exp", "origin": [0, 0], "dims": [17, 17],
                     "spacing": 0.0625})
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert set(report) == {"iterations", "residual", "converged", "damping_history"}
    lines = [json.loads(line) for line in (out / "run.log").read_text().splitlines()
             if line.startswith("{")]
    assert len(lines) == report["iterations"] >= 1
    assert [entry["iteration"] for entry in lines] == list(range(1, len(lines) + 1))
    assert [entry["step"] for entry in lines] == report["damping_history"]
    assert lines[-1]["residual"] == report["residual"]
    for entry in lines:
        assert set(entry) == {"iteration", "residual", "step", "eta", "shift",
                              "assemble_s", "solve_s", "gmres_iterations",
                              "gmres_converged"}
        assert 1e-12 <= entry["eta"] <= 0.1
        assert min(entry["assemble_s"], entry["solve_s"]) >= 0.0
        assert entry["gmres_iterations"] >= 1
        assert entry["gmres_converged"] is True


def test_solve_logs_a_missed_gmres_tolerance(tmp_path, monkeypatch):
    # one GMRES iteration and no restart cannot reach the relative
    # tolerance: run.log must flag every linear solve, while the report
    # judges convergence on the strong residual of the solved patch
    monkeypatch.setattr(solver, "_GMRES_RESTART", 1)
    monkeypatch.setattr(solver, "_GMRES_CYCLES", 1)
    cfg = write_cfg(tmp_path, "solve.json",
                    {"model": "slag-exp", "origin": [0, 0], "dims": [17, 17],
                     "spacing": 0.0625})
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert set(report) == {"iterations", "residual", "converged", "damping_history"}
    lines = [json.loads(line) for line in (out / "run.log").read_text().splitlines()
             if line.startswith("{")]
    assert len(lines) == report["iterations"] >= 1
    assert [entry["gmres_converged"] for entry in lines] == [False] * len(lines)
    assert all(entry["gmres_iterations"] == 1 for entry in lines)
    patch = solver.load_patch(out / "solved.json")
    residual = float(np.max(np.abs(solver.strong_residual_field(patch))))
    assert report["residual"] == residual
    assert report["converged"] is (residual <= solver.DEFAULT_TOL)


def test_solve_non_convergence_exit_code(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "solve.json",
        {"model": "slag-exp", "origin": [-1, -1], "dims": [17, 17],
         "spacing": 0.125, "max_iter": 0},
    )
    code = run(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NO_CONVERGENCE


def test_solve_negative_max_iter_is_invalid_input(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "solve.json",
                    {"model": "slag-exp", "origin": [0, 0], "dims": [9, 9],
                     "spacing": 0.125, "max_iter": -1})
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    assert "max_iter" in _error_line(capsys)
    assert not (out / "solved.bin").exists()


def test_solve_patch_without_codomain_is_invalid_input(tmp_path, capsys):
    # m = 0 reads as an empty values array; the patch refuses it
    manifest = {"format": "MGP1", "n": 2, "m": 0, "dims": [5, 5], "spacing": 0.25,
                "origin": [0.0, 0.0], "data": "p.bin"}
    (tmp_path / "p.json").write_text(json.dumps(manifest))
    (tmp_path / "p.bin").write_bytes(b"")
    cfg = write_cfg(tmp_path, "solve.json", {"patch": str(tmp_path / "p.json")})
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    assert "m must be at least 1, got 0" in _error_line(capsys)
    assert not (out / "solved.bin").exists()


@pytest.mark.parametrize("key,value", [("spacing", float("nan")),
                                       ("spacing", float("inf")),
                                       ("tol", float("nan"))])
def test_solve_non_finite_config_is_invalid_input(key, value, tmp_path, capsys):
    # json reads NaN and Infinity; a solve on them would write a NaN patch
    # or report non-convergence after no iteration
    payload = {"model": "slag-exp", "origin": [0, 0], "dims": [9, 9], "spacing": 0.125}
    cfg = write_cfg(tmp_path, "solve.json", dict(payload, **{key: value}))
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert key in line and repr(value) in line
    assert not (out / "solved.bin").exists()


def test_diagnose_cone_rows(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "diag.json",
        {"model": "lawson-osserman", "seed": 7, "points": {"count": 20},
         "assert_gap_max": 1e-6},
    )
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
    for row in rows:
        vals = [float(v) for v in row.split(",")]
        assert vals[4] == pytest.approx(9.0, abs=1e-9)  # slope column
        assert vals[5] == pytest.approx(5.0, abs=1e-9)  # dilation column


def test_diagnose_assertion_failure(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "diag.json",
        {"model": "lawson-osserman", "seed": 7, "points": {"count": 5},
         "assert_margin_sqrt2_min": 0.0},
    )
    code = run(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_ASSERTION
    assert "FAIL" in capsys.readouterr().out


def test_diagnose_without_points(tmp_path):
    cfg = write_cfg(tmp_path, "diag.json", {"model": "slag-exp",
                                             "points": {"count": 0}})
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "diagnose_summary.json").read_text())["points"] == 0


def test_measure_affine_ratio_one(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "m.json",
        {"model": "affine", "radii": [1.0, 1.5, 2.0], "resolution": 128},
    )
    out = tmp_path / "o"
    assert run(["measure", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "measure_summary.json").read_text())
    assert np.max(np.abs(np.array(summary["ratios"]) - 1.0)) < 0.01


def test_measure_volume_bound_failure(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "m.json",
        {"model": "affine", "radii": [1.0, 2.0], "resolution": 64,
         "volume_lower_bounds": [[1.0, 100.0]]},
    )
    code = run(["measure", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_ASSERTION
    assert "FAIL" in capsys.readouterr().out


def test_measure_deterministic_across_threads(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "m.json",
        {"model": "slag-exp", "radii": [1.0, 2.0], "resolution": 64},
    )
    for sub, threads in (("t1", "1"), ("t8", "8")):
        out = tmp_path / sub
        assert (
            run(["measure", "--config", cfg, "--out", str(out), "--threads", threads])
            == cli.EXIT_OK
        )
    assert (tmp_path / "t1" / "measure.csv").read_bytes() == (
        tmp_path / "t8" / "measure.csv"
    ).read_bytes()


def test_timestamps_only_in_log(tmp_path):
    cfg = write_cfg(tmp_path, "m.json", {"model": "affine", "radii": [1.0, 2.0]})
    out = tmp_path / "o"
    assert run(["measure", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert (out / "run.log").exists()
    import re

    stamp = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}")
    assert stamp.search((out / "run.log").read_text())
    for name in ("measure.csv", "measure_summary.json"):
        assert not stamp.search((out / name).read_text())


def _error_line(capsys):
    """The one line a usage error prints, on stderr."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    return err[0]


def test_usage_error_is_invalid_input(capsys):
    assert run(["measure", "--threads", "x"]) == cli.EXIT_INVALID
    assert "--threads" in _error_line(capsys)
    assert run(["no-such-command"]) == cli.EXIT_INVALID
    assert "no-such-command" in _error_line(capsys)


def test_out_of_memory_is_invalid_input(capsys, monkeypatch):
    # an oversize config exhausts memory inside a subcommand; that is input
    # the host cannot take, not a failed assertion
    def oversize(args):
        raise MemoryError("Unable to allocate 8.00 EiB")

    monkeypatch.setattr(cli, "cmd_zoo", oversize)
    assert run(["zoo", "list"]) == cli.EXIT_INVALID
    assert _error_line(capsys) == "error: out of memory: Unable to allocate 8.00 EiB"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_unsamplable_lambda_is_invalid_input(threads, tmp_path, capsys):
    # at Lambda = 1e-9 the Lambda sampler accepts no draw out of 1e7; of the
    # two lam_values the error names that check and its Lambda, from the
    # pool as from the inline run
    cfg = write_cfg(tmp_path, "va.json", {"grid_step": 0.25, "samples": 100, "seed": 1,
                                          "lam_values": [1e-9, 0.5], "eps_values": [0.3]})
    out = tmp_path / "o"
    argv = ["verify-algebra", "--config", cfg, "--out", str(out), "--threads", threads]
    assert run(argv) == cli.EXIT_INVALID
    assert _error_line(capsys) == ("error: lambda-logv {'Lambda': 1e-09, 'n': 3, 'm': 3, "
                                   "'tol': 1e-09}: no accepted draw in 1e7")
    assert not (out / "verify_algebra.json").exists()


def test_verify_algebra_samples_a_lambda_within_the_slack(tmp_path):
    # Lambda a few ulps above sqrt(2) is admitted by the scan and the sampler
    # alike, so both of its reports are written
    cfg = write_cfg(tmp_path, "va.json", {"grid_step": 0.25, "samples": 100, "seed": 1,
                                          "lam_values": [1.4142135623731],
                                          "eps_values": [0.3]})
    assert run(["verify-algebra", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
    reports = json.loads((tmp_path / "verify_algebra.json").read_text())["reports"]
    assert [r["check"] for r in reports] == ["mu123", "mu123-lambda", "sqrt2-logv",
                                             "lambda-logv", "xi11-limit"]


@pytest.mark.parametrize("step", [math.inf, math.nan])
def test_verify_algebra_non_finite_grid_step_is_invalid_input(step, tmp_path, capsys):
    # JSON readers accept Infinity and NaN; neither is a grid step
    cfg = write_cfg(tmp_path, "va.json", {"grid_step": step, "samples": 100, "seed": 1})
    out = tmp_path / "o"
    assert run(["verify-algebra", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "grid_step" in line and repr(step) in line
    assert not (out / "verify_algebra.json").exists()


def test_measure_non_finite_radius_is_invalid_input(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m.json",
                    {"model": "affine", "radii": [1.0, float("nan")], "resolution": 32})
    assert run(["measure", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "radius" in line and "nan" in line


@pytest.mark.parametrize("model,center", [
    ("slag-exp", [math.nan, 0.0, 1.0, 0.0]),
    ("lawson-osserman", [math.nan] + [0.0] * 6),
])
def test_measure_non_finite_center_is_invalid_input(tmp_path, capsys, model, center):
    cfg = write_cfg(tmp_path, "m.json", {"model": model, "center": center,
                                          "radii": [1.0, 2.0], "resolution": 32})
    assert run(["measure", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_INVALID
    assert "center" in _error_line(capsys)
    assert not (tmp_path / "o" / "measure.csv").exists()


def test_measure_radii_whose_ball_volume_overflows_are_invalid_input(tmp_path, capsys):
    # omega_2 r^2 overflows at r = 1e300: refused before any quadrature, where
    # it used to escape as an OverflowError (exit 1)
    cfg = write_cfg(tmp_path, "m.json", {"model": "slag-exp", "radii": [1e300, 2e300],
                                          "resolution": 32})
    out = tmp_path / "o"
    assert run(["measure", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "radii" in line and "1e+300" in line
    assert not out.exists()


def test_measure_center_far_off_the_graph_is_invalid_input(tmp_path, capsys):
    # |center| overflows a plain norm, so the on-graph test must not compare
    # inf with inf: the centre is refused, not measured to ratios of 0
    cfg = write_cfg(tmp_path, "m.json", {"model": "slag-exp", "center": [0, 0, 1e308, 0],
                                          "radii": [1.0, 2.0], "resolution": 32})
    out = tmp_path / "o"
    assert run(["measure", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    assert "center does not lie on the graph" in _error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("center", [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0, 0.0]])
def test_measure_center_of_the_wrong_length_is_invalid_input(tmp_path, capsys, center):
    # slag-exp lives in R^(2+2): the length is refused before the on-graph test
    cfg = write_cfg(tmp_path, "m.json", {"model": "slag-exp", "center": center,
                                          "radii": [1.0, 2.0], "resolution": 32})
    assert run(["measure", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "center" in line and "length 4" in line


def test_measure_resolution_above_the_ceiling_is_invalid_input(tmp_path, capsys):
    # refused from the node count alone, before any direction is built
    cfg = write_cfg(tmp_path, "m.json", {"model": "lawson-osserman", "radii": [1.0, 2.0],
                                          "resolution": 10**6})
    assert run(["measure", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "resolution" in line and "ceiling" in line


@pytest.mark.parametrize("sub", ["measure", "verify-algebra"])
def test_threads_below_one_is_invalid_input(sub, capsys):
    for threads in ("0", "-2"):
        assert run([sub, "--threads", threads]) == cli.EXIT_INVALID
        assert "--threads" in _error_line(capsys)


@pytest.mark.parametrize("argv", [["solve"], ["diagnose"], ["invariants"],
                                  ["zoo", "list"]])
def test_threads_rejected_where_ignored(argv, tmp_path, capsys):
    code = run(argv + ["--out", str(tmp_path), "--threads", "2"])
    assert code == cli.EXIT_INVALID
    assert "--threads" in _error_line(capsys)
    assert not (tmp_path / "run.log").exists()


@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan")])
def test_diagnose_bad_step_is_invalid_input(step, tmp_path, capsys):
    cfg = write_cfg(tmp_path, "diag.json", {"model": "slag-exp", "points": {"count": 5},
                                             "step": step, "assert_gap_max": 1e-8})
    assert run(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "step" in line and repr(step) in line


@pytest.mark.parametrize("points,key", [
    ({"radius_min": math.nan}, "radius_min"),
    ({"radius_max": math.inf}, "radius_max"),
    ({"radius_min": -1.0}, "radius_min"),
    ({"radius_min": 3.0, "radius_max": 2.0}, "radius_min"),
])
def test_diagnose_bad_radius_is_invalid_input(points, key, tmp_path, capsys):
    cfg = write_cfg(tmp_path, "diag.json", {"model": "slag-exp",
                                             "points": dict(points, count=5)})
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    assert f"points.{key}" in _error_line(capsys)
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize("key,value", [("assert_gap_max", 1e-12),
                                       ("assert_margin_sqrt2_min", 0.5)])
def test_diagnose_assertion_on_no_points_is_invalid_input(key, value, tmp_path, capsys):
    # an assertion over no points would hold vacuously, so an empty run is refused
    cfg = write_cfg(tmp_path, "diag.json", {"model": "slag-exp", "points": {"count": 0},
                                             key: value})
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "points.count" in line and key in line and "no points" in line
    assert not (out / "diagnostics.csv").exists()


def test_diagnose_negative_point_count_is_invalid_input(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "diag.json", {"model": "slag-exp", "points": {"count": -3}})
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "points.count" in line and "-3" in line
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -3.0])
def test_diagnose_bad_lam_bound_is_invalid_input(lam, tmp_path, capsys):
    cfg = write_cfg(tmp_path, "diag.json", {"model": "slag-exp", "points": {"count": 5},
                                             "lam_bound": lam})
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "lam_bound" in line and repr(lam) in line
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize("key,value", [("assert_gap_max", 1e-8),
                                       ("assert_margin_sqrt2_min", 0.0)])
def test_diagnose_nan_fails_its_assertion(key, value, tmp_path, capsys):
    # slag-exp overflows out there, and the report's gap and margin are NaN
    cfg = write_cfg(tmp_path, "diag.json", {
        "model": "slag-exp", "points": {"count": 5, "radius_min": 700, "radius_max": 800},
        key: value})
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = run(["diagnose", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_ASSERTION
    assert "FAIL" in capsys.readouterr().out
    # the report is strict JSON: the NaN gap and margin are written as null
    summary = json.loads((out / "diagnose_summary.json").read_text(),
                         parse_constant=_refuse_constant)
    assert summary["max_abs_gap"] is None and summary["min_margin_sqrt2"] is None


def test_diagnose_non_finite_gap_exits_non_zero(tmp_path, capsys):
    # a step of 1e300 makes every difference quotient NaN: with no assertion
    # set, the run must still not pass, and the report writes the gap as null
    cfg = write_cfg(tmp_path, "diag.json", {"model": "slag-exp", "points": {"count": 5},
                                             "step": 1e300})
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = run(["diagnose", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_ASSERTION
    assert "not finite" in capsys.readouterr().out
    summary = json.loads((out / "diagnose_summary.json").read_text(),
                         parse_constant=_refuse_constant)
    assert summary["max_abs_gap"] is None


def _refuse_constant(token):
    raise ValueError(f"report holds the non-JSON constant {token}")


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    payload = {"a": math.nan, "b": [1.5, -math.inf, {"c": np.float64(math.inf)}],
               "d": (0.1, np.float64(2.0)), "e": "NaN", "f": 3}
    path = tmp_path / "r.json"
    cli._write_json(path, payload)
    assert json.loads(path.read_text(), parse_constant=_refuse_constant) == {
        "a": None, "b": [1.5, None, {"c": None}], "d": [0.1, 2.0], "e": "NaN", "f": 3}
    # finite payloads keep the bytes json.dumps gives them
    finite = {"x": [0.1, np.float64(1) / 3], "y": {"z": 1e-300}}
    cli._write_json(path, finite)
    assert path.read_text() == json.dumps(finite, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("sub,payload,key", [
    ("verify-algebra", {"grid_step": 0.25, "samples": 2000.5}, "samples"),
    ("verify-algebra", {"grid_step": 0.25, "samples": 2000, "seed": 1.5}, "seed"),
    ("solve", {"model": "affine", "origin": [0, 0], "dims": [5, 5], "spacing": 0.25,
               "max_iter": 2.5}, "max_iter"),
    ("solve", {"model": "affine", "origin": [0, 0], "dims": [5, 5.5], "spacing": 0.25},
     "dims"),
    ("diagnose", {"model": "slag-exp", "points": {"count": 5.5}}, "points.count"),
    ("diagnose", {"model": "slag-exp", "points": {"count": 5}, "seed": 0.5}, "seed"),
    ("measure", {"model": "affine", "radii": [1, 2], "resolution": 40.7}, "resolution"),
    # JSON booleans are not integers, and points must be an object
    ("diagnose", {"model": "slag-exp", "points": {"count": True}}, "points.count"),
    ("solve", {"model": "affine", "origin": [0, 0], "dims": [5, 5], "spacing": 0.25,
               "max_iter": True}, "max_iter"),
    ("diagnose", {"model": "slag-exp", "points": [1, 2]}, "points"),
])
def test_non_integral_config_value_is_invalid_input(sub, payload, key, tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", payload)
    assert run([sub, "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_INVALID
    assert f"'{key}'" in _error_line(capsys)


@pytest.mark.parametrize("sub,payload,key", [
    ("solve", {"model": "affine", "origin": [0, 0], "dims": 5, "spacing": 0.25}, "dims"),
    ("measure", {"model": "affine", "radii": [1, 2], "volume_lower_bounds": [1]},
     "volume_lower_bounds"),
    ("measure", {"model": "affine", "radii": [1, 2],
                 "volume_lower_bounds": [[1, 2, 3]]}, "volume_lower_bounds"),
    ("measure", {"model": "affine", "radii": 2}, "radii"),
    ("measure", {"model": "affine", "radii": [1, True]}, "radii"),
    ("verify-algebra", {"grid_step": 0.5, "samples": 100, "lam_values": 1.0},
     "lam_values"),
    ("verify-algebra", {"grid_step": 0.5, "samples": 100, "eps_values": [{}]},
     "eps_values"),
], ids=["dims", "bounds-entry", "bounds-pair", "radii", "radii-bool", "lam_values",
        "eps_values"])
def test_config_list_of_the_wrong_shape_names_its_key(sub, payload, key, tmp_path,
                                                      capsys):
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert run([sub, "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    assert f"'{key}'" in _error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("sub,payload", [
    ("verify-algebra", {"grid_step": 0.5, "samples": 100}),
    ("diagnose", {"model": "slag-exp", "points": {"count": 5}}),
])
@pytest.mark.parametrize("config_seed,flag", [(-1, []), (1, ["--seed", "-5"])])
def test_negative_seed_is_invalid_input(sub, payload, config_seed, flag, tmp_path,
                                        capsys):
    # from the config or from --seed, the message names the seed and its value
    cfg = write_cfg(tmp_path, "c.json", dict(payload, seed=config_seed))
    code = run([sub, "--config", cfg, "--out", str(tmp_path / "o")] + flag)
    assert code == cli.EXIT_INVALID
    value = flag[-1] if flag else str(config_seed)
    assert _error_line(capsys) == (
        f"error: seed must be a non-negative integer, got {value}")
    assert not (tmp_path / "o" / "run.log").exists()


@pytest.mark.parametrize("sub,payload", [
    ("verify-algebra", {"grid_step": 0.02, "samples": 1e12}),
    ("solve", {"model": "affine", "origin": [0, 0], "dims": [5, 5], "spacing": 0.25,
               "max_iter": -1}),
    ("diagnose", {"model": "slag-exp", "points": [1, 2]}),
    ("diagnose", {"model": "slag-exp", "points": {"count": 5}, "step": -1e-3}),
    ("measure", {"model": "affine", "radii": [2, 1]}),
], ids=["verify-algebra", "solve", "diagnose-points", "diagnose-step", "measure"])
def test_refused_run_leaves_no_output_directory(sub, payload, tmp_path):
    # the output directory and run.log are made only after the last input check
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert run([sub, "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    assert not out.exists()


def test_integral_float_config_values_read_as_integers(tmp_path):
    cfg = write_cfg(tmp_path, "va.json", {"grid_step": 0.25, "samples": 2e3, "seed": 1.0,
                                          "lam_values": [1.0], "eps_values": [0.1]})
    assert run(["verify-algebra", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_OK
    text = (tmp_path / "verify_algebra.json").read_text()
    assert json.loads(text)["config"]["samples"] == 2000
    assert '"samples": 2000,' in text and '"seed": 1,' in text


def test_measure_checks_volume_bound_radii_first(tmp_path, capsys, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the bounds are checked before any quadrature")

    monkeypatch.setattr(cli.measure, "density_profile", no_quadrature)
    cfg = write_cfg(tmp_path, "m.json", {"model": "affine", "radii": [1.0, 2.0],
                                          "volume_lower_bounds": [[1.5, 1.0]]})
    assert run(["measure", "--config", cfg, "--out", str(tmp_path)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "volume_lower_bounds" in line and "1.5" in line


@pytest.mark.parametrize("argv", [
    ["invariants", "--config", "nope.json"],
    ["invariants", "--seed", "3"],
    ["solve", "--seed", "1"],
    ["measure", "--seed", "2"],
    ["zoo", "list", "--config", "nope.json"],
    ["zoo", "list", "--out", "."],
    ["zoo", "list", "--seed", "3"],
], ids=lambda argv: " ".join(argv[:-1]))
def test_flags_a_subcommand_does_not_read_are_refused(argv, tmp_path, capsys):
    out = [] if "--out" in argv else ["--out", str(tmp_path)]
    assert run(argv + out) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "unrecognized arguments" in line and argv[-2] in line
    assert not (tmp_path / "run.log").exists()


class _ReadLog(argparse.Namespace):
    """A namespace that records the name of each attribute read from it."""

    def __getattribute__(self, name):
        object.__getattribute__(self, "__dict__").setdefault("_reads", set()).add(name)
        return object.__getattribute__(self, name)


# one small run per subcommand with every flag it takes (CFG and OUT are
# filled in per test), its config and its exit code
_EVERY_FLAG = {
    "invariants": (["--out", "OUT", "--mutate", "slope-sign"], None, cli.EXIT_ASSERTION),
    "verify-algebra": (["--config", "CFG", "--out", "OUT", "--seed", "2", "--threads", "2"],
                       {"grid_step": 0.5, "samples": 100, "lam_values": [1.0],
                        "eps_values": [0.3]}, cli.EXIT_OK),
    "solve": (["--config", "CFG", "--out", "OUT"],
              {"model": "affine", "origin": [0, 0], "dims": [5, 5], "spacing": 0.25},
              cli.EXIT_OK),
    "diagnose": (["--config", "CFG", "--out", "OUT", "--seed", "2"],
                 {"model": "slag-exp", "points": {"count": 5}}, cli.EXIT_OK),
    "measure": (["--config", "CFG", "--out", "OUT", "--threads", "2"],
                {"model": "affine", "radii": [1, 2], "resolution": 32}, cli.EXIT_OK),
    "zoo": (["list"], None, cli.EXIT_OK),
}


def _subparsers():
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_subcommand_has_a_run_with_every_flag():
    assert sorted(_subparsers()) == sorted(_EVERY_FLAG)


@pytest.mark.parametrize("sub", sorted(_EVERY_FLAG))
def test_every_accepted_flag_is_read(sub, tmp_path):
    # a flag that the parser accepts and the command never reads would let a
    # run look configured while it ignores the setting
    extra, payload, code = _EVERY_FLAG[sub]
    paths = {"OUT": str(tmp_path / "o")}
    if payload is not None:
        paths["CFG"] = write_cfg(tmp_path, "c.json", payload)
    argv = [sub] + [paths.get(a, a) for a in extra]
    flags = {a.dest: a.option_strings[0] for a in _subparsers()[sub]._actions
             if a.option_strings and a.dest != "help"}
    assert sorted(set(flags.values()) - set(argv)) == []
    args = cli.build_parser().parse_args(argv, namespace=_ReadLog())
    args._reads.clear()  # argparse itself reads every destination
    assert args.fn(args) == code
    assert sorted(f for dest, f in flags.items() if dest not in args._reads) == []


@pytest.mark.parametrize("step", [5e-324, 1e-3])
def test_verify_algebra_grid_step_above_the_ceiling_is_invalid_input(step, tmp_path,
                                                                     capsys):
    # 4 / 5e-324 overflows to inf, and 1e-3 asks for 4001^3 triples per scan,
    # about half an hour of work; both are refused before the scan starts
    cfg = write_cfg(tmp_path, "va.json", {"grid_step": step, "samples": 100})
    out = tmp_path / "o"
    assert run(["verify-algebra", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "grid_step" in line and repr(step) in line
    assert not (out / "verify_algebra.json").exists()


def test_verify_algebra_samples_above_the_ceiling_is_invalid_input(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "va.json", {"grid_step": 0.5, "samples": 1e12})
    out = tmp_path / "o"
    assert run(["verify-algebra", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "samples 1000000000000" in line and "ceiling" in line
    assert not (out / "verify_algebra.json").exists()


@pytest.mark.parametrize("payload, message", [
    ({"grid_step": 0.02, "samples": 1e12}, "samples 1000000000000 is above the ceiling"),
    ({"grid_step": 0.02, "samples": 0}, "samples must be positive"),
    ({"grid_step": 0.02, "samples": 100, "eps_values": [0.1, 2.0]},
     "need Lambda > 0 and eps in (0, 1)"),
    ({"grid_step": 0.02, "samples": 100, "lam_values": [0.5, 3.0]},
     "Lambda must lie in (0, sqrt(2)], got 3.0"),
], ids=["samples-ceiling", "samples-zero", "eps", "lambda"])
def test_verify_algebra_checks_every_value_before_any_report(payload, message, tmp_path,
                                                            capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("every value is checked before the first scan")

    monkeypatch.setattr(cli.algebra, "_scan_grid", no_scan)
    cfg = write_cfg(tmp_path, "va.json", payload)
    out = tmp_path / "o"
    assert run(["verify-algebra", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    assert message in _error_line(capsys)
    assert not (out / "verify_algebra.json").exists()


def test_diagnose_point_count_above_the_ceiling_is_invalid_input(tmp_path, capsys):
    # 10^12 points would ask for terabytes; the count is refused before any draw
    cfg = write_cfg(tmp_path, "diag.json", {"model": "lawson-osserman",
                                             "points": {"count": 10**12}})
    out = tmp_path / "o"
    assert run(["diagnose", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "points.count 1000000000000" in line and "ceiling" in line
    assert not (out / "diagnostics.csv").exists()


def test_solve_dims_above_the_ceiling_are_invalid_input(tmp_path, capsys, monkeypatch):
    def no_patch(*args):
        raise AssertionError("dims are checked before the grid is sampled")

    monkeypatch.setattr(cli.solver.GraphPatch, "from_model", no_patch)
    cfg = write_cfg(tmp_path, "solve.json", {"model": "slag-exp", "origin": [0, 0],
                                             "dims": [10**5, 10**5], "spacing": 1e-5})
    out = tmp_path / "o"
    assert run(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "dims [100000, 100000] with m = 2" in line and "ceiling" in line
    assert not (out / "solved.json").exists()


def test_solve_patch_above_the_ceiling_is_invalid_input(tmp_path, capsys, monkeypatch):
    # a small MGP1 patch against a lowered ceiling: refused before the solve
    def no_solve(*args, **kwargs):
        raise AssertionError("the patch is checked before the solve")

    patch = solver.GraphPatch(2, 2, (5, 5), 0.25, [0, 0], np.zeros((5, 5, 2)))
    solver.save_patch(patch, tmp_path / "in.json")
    monkeypatch.setattr(cli, "_MAX_UNKNOWNS", 17)
    monkeypatch.setattr(cli.solver, "solve", no_solve)
    cfg = write_cfg(tmp_path, "solve.json", {"patch": str(tmp_path / "in.json")})
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_INVALID
    line = _error_line(capsys)
    assert "dims [5, 5] with m = 2" in line and "ceiling" in line


def test_ceilings_admit_the_benchmark_sizes():
    # diagnose runs 300 points; solve runs 129^2 and 17^3, both with m = 2
    assert 300 <= cli._MAX_DIAGNOSE_POINTS
    cli._check_unknowns([129, 129], 2)
    cli._check_unknowns([17, 17, 17], 2)

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import dirss.cli
from dirss import LimitState, limitstate, make_piecewise_linear, register_problem
from dirss.cli import main, write_hist_csv
from dirss.estimators import BinOutcome, RunResult

CASE1_CUTS = [-math.pi + 0.8, 0.8]


def _write_config(path, **overrides):
    cfg = {
        "problem": "piecewise_linear",
        "algorithm": "dss",
        "n": 500,
        "rho": 0.2,
        "partition": "angular",
        "cuts": CASE1_CUTS,
        "seed": 3,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_run_prints_estimate_and_bin_contributions(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "pf_hat" in out
    assert "pi_hat_1" in out and "pi_hat_2" in out
    pf = float(out.split("pf_hat = ")[1].split()[0])
    assert pf > 0
    # --seed overrides the config's seed 3
    assert main(["run", "--config", str(cfg), "--seed", "99"]) == 0
    out = capsys.readouterr().out
    assert "seed=99" in out and float(out.split("pf_hat = ")[1].split()[0]) != pf


def test_run_writes_levels_csv(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    with (out_dir / "levels.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert int(row["count_1"]) + int(row["count_2"]) == 500


# recorded when a level record kept its thresholds and counts as tuples of
# Python numbers: the file's bytes do not depend on how a record holds them
@pytest.mark.parametrize("overrides, digest", [
    ({}, "ddc0e12829761d17ec1f91dff203b34322ea21dc6ebd91967ace962d381f192b"),
    ({"algorithm": "ss", "partition": "single", "cuts": None},
     "c7cfcae0715e38fd24f51d35b1e6eac2d87e17d1824e0540d0b044e9fe2ad132"),
], ids=["dss-case1", "ss"])
def test_run_levels_csv_keeps_its_bytes(tmp_path, overrides, digest):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert hashlib.sha256((out_dir / "levels.csv").read_bytes()).hexdigest() == digest


def test_run_unknown_problem_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", problem="not_a_problem")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown problem" in capsys.readouterr().err


def test_run_mcs_on_always_failing_problem(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "always_fail", "algorithm": "mcs", "n": 1000}))
    assert main(["run", "--config", str(cfg)]) == 0
    assert "pf_hat = 1.000000e+00" in capsys.readouterr().out


def test_run_exits_1_on_bad_g(tmp_path, capsys):
    register_problem("nan_g", lambda: LimitState("nan_g", 2, lambda p: np.full(len(p), np.nan)))
    try:
        cfg = _write_config(tmp_path / "cfg.json", problem="nan_g")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "'nan_g'" in err and "non-finite" in err
        # the reference command has no run to mark failed: the error ends it
        assert main(["reference", "--problem", "nan_g", "--samples", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evaluation error: ") and "non-finite" in err
    finally:
        limitstate._REGISTRY.pop("nan_g", None)


def test_unusable_out_fails_before_any_g_call(tmp_path, capsys):
    # --out naming a file, or a path under one, cannot be made a directory:
    # that ends the command before the runs, not after them
    seen, g = [], make_piecewise_linear().evaluator
    register_problem("pwl_count", lambda: LimitState(
        "pwl_count", 2, lambda p: seen.append(len(p)) or g(p)))
    not_a_dir = tmp_path / "not_a_dir"
    not_a_dir.write_text("")
    cfg = _write_config(tmp_path / "cfg.json", problem="pwl_count", algorithm="ss",
                        partition="single", cuts=None, seed=1)
    try:
        for argv in (["replicate", "--config", str(cfg), "--runs", "20", "--out", str(not_a_dir),
                      "--pf-ref", "3.19e-5"],
                     ["run", "--config", str(cfg), "--out", str(not_a_dir / "sub")]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("failure: ")
    finally:
        limitstate._REGISTRY.pop("pwl_count", None)
    assert seen == []


def test_replicate_reports_runs_whose_g_raised(tmp_path, capsys):
    def g(pts):
        if (pts[:, 1] > 3.3).any():
            raise RuntimeError("solver diverged")
        return 2.0 - pts[:, 0]

    register_problem("flaky_g", lambda: LimitState("flaky_g", 2, g))
    register_problem("broken_g", lambda: LimitState("broken_g", 2, lambda p: p))
    try:
        cfg = _write_config(tmp_path / "cfg.json", problem="flaky_g", algorithm="ss", n=200)
        out = tmp_path / "rep"
        args = ["replicate", "--config", str(cfg), "--runs", "16", "--out", str(out),
                "--pf-ref", "0.0228"]
        assert main(args) == 0
        captured = capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())["summary"]
        assert 0 < summary["failed_runs"] < 16
        assert f"{summary['failed_runs']} of 16 runs failed" in captured.err
        assert "RuntimeError: solver diverged" in captured.err
        assert f"failed={summary['failed_runs']}" in captured.out

        cfg = _write_config(tmp_path / "cfg.json", problem="broken_g", algorithm="ss", n=200)
        assert main(args) == 1
        assert "16 of 16 runs failed" in capsys.readouterr().err
    finally:
        limitstate._REGISTRY.pop("flaky_g", None)
        limitstate._REGISTRY.pop("broken_g", None)


def test_replicate_without_usable_runs_exits_1(tmp_path, capsys):
    # every run returns 0, then a mix of zero and failed runs: a runtime
    # outcome (exit 1) that still leaves runs.csv to look at
    def g(pts):
        if (pts[:, 1] > 2.5).any():
            raise RuntimeError("solver diverged")
        return 10.0 + pts[:, 0] ** 2

    register_problem("flaky_never", lambda: LimitState("flaky_never", 2, g))
    out = tmp_path / "rep"
    try:
        for problem, expect in [("never_fail", "0 failed, 8 returned"),
                                ("flaky_never", "2 failed, 6 returned")]:
            cfg = _write_config(tmp_path / "cfg.json", problem=problem, algorithm="ss",
                                n=30, max_levels=3)
            args = ["replicate", "--config", str(cfg), "--runs", "8", "--out", str(out),
                    "--pf-ref", "1e-3"]
            assert main(args) == 1
            assert f"no usable runs: {expect} a zero estimate" in capsys.readouterr().err
            with open(out / "runs.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 8 and all(float(r["pf_hat"]) == 0 for r in rows)
            assert not (out / "summary.json").exists()
    finally:
        limitstate._REGISTRY.pop("flaky_never", None)


def test_replicate_without_usable_runs_removes_stale_outputs(tmp_path):
    # summary.json and hist.csv of an earlier batch in the same directory
    # would describe that batch, and --config summary.json would replay it
    out = tmp_path / "rep"
    for problem, code in [("always_fail", 0), ("never_fail", 1)]:
        cfg = _write_config(tmp_path / "cfg.json", problem=problem, algorithm="mcs", n=50)
        assert main(["replicate", "--config", str(cfg), "--runs", "3", "--out", str(out),
                     "--pf-ref", "1"]) == code
    assert sorted(p.name for p in out.iterdir()) == ["runs.csv"]


def test_config_validation_messages(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    bad.write_text(json.dumps({"problem": "beta_points", "algorithm": "ss"}))
    assert main(["run", "--config", str(bad)]) == 2
    assert "missing config keys" in capsys.readouterr().err

    bad.write_text(
        json.dumps({"problem": "beta_points", "algorithm": "ss", "n": 100, "foo": 1})
    )
    assert main(["run", "--config", str(bad)]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    bad.write_text(json.dumps([{"problem": "beta_points", "algorithm": "ss", "n": 100}]))
    assert main(["run", "--config", str(bad)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("n", "abc", "'n' must be an integer"),
    ("n", None, "'n' must be an integer"),
    ("rho", "x", "'rho' must be a number"),
    ("cuts", ["a", 1], "'cuts' must be a list of numbers"),
    # JSON's NaN and Infinity literals are not numbers either
    ("cuts", [math.nan, 0.8], "'cuts' must be a list of numbers"),
    ("eps_tol", math.nan, "'eps_tol' must be a number"),
    ("rho", math.inf, "'rho' must be a number"),
    # the case-1 cuts on four orthants: refused, not dropped
    ("partition", "orthants", "'cuts' applies to the angular partition only"),
    ("n", True, "'n' must be an integer"),
    ("problem", 3, "'problem' must be a string"),
])
def test_non_numeric_config_values_are_configuration_errors(tmp_path, capsys, key, value,
                                                             message):
    cfg = _write_config(tmp_path / "bad.json", **{key: value})
    for argv in (["run", "--config", str(cfg)],
                 ["replicate", "--config", str(cfg), "--runs", "2", "--out", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("key, value, message", [
    ("n", 0, "n=0 must be an integer of at least 2"),
    ("problem", "not_a_problem", "unknown problem"),
    ("cuts", [0.8, -2.0], "cut angles must be strictly increasing"),
])
def test_bad_config_exits_2_before_out_is_made(tmp_path, capsys, key, value, message):
    # also for an --out that names a file, which would otherwise end the command with exit 1
    cfg = _write_config(tmp_path / "bad.json", **{key: value})
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for out in (tmp_path / "out", a_file):
        for argv in (["run", "--config", str(cfg), "--out", str(out)],
                     ["replicate", "--config", str(cfg), "--runs", "2", "--out", str(out)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists() and a_file.read_text() == ""


def test_starving_bin_is_warned_of_once(tmp_path):
    # 5 expected samples a bin: the runs starve, and the batch has no usable run (exit 1)
    cfg = _write_config(tmp_path / "cfg.json", n=20, partition="orthants", cuts=None)
    for argv, code in [(["run", "--config", str(cfg)], 0),
                       (["replicate", "--config", str(cfg), "--runs", "2",
                         "--out", str(tmp_path / "rep")], 1)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a repeat from the same line is recorded too
            assert main(argv) == code
        assert ["may starve" in str(w.message) for w in caught] == [True]


def test_replicate_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", n=250)
    out = tmp_path / "rep"
    assert main(["replicate", "--config", str(cfg), "--runs", "40", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "mean_pf" in stdout and "R=" in stdout

    with (out / "runs.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert set(rows[0]) == {
        "run_id", "pf_hat", "levels", "n_evals", "status", "pi_hat_1", "pi_hat_2",
    }

    summary = json.loads((out / "summary.json").read_text())
    used = [float(r["pf_hat"]) for r in rows if r["status"] != "failed" and float(r["pf_hat"]) > 0]
    est = np.array(used)
    assert summary["summary"]["runs_used"] == len(used)
    assert summary["summary"]["failed_runs"] == sum(r["status"] == "failed" for r in rows)
    assert summary["summary"]["zero_runs"] == sum(
        r["status"] != "failed" and float(r["pf_hat"]) == 0 for r in rows
    )
    assert f"zero={summary['summary']['zero_runs']}" in stdout
    assert summary["summary"]["max_levels_runs"] == sum(r["status"] == "max_levels" for r in rows)
    assert f"max_levels={summary['summary']['max_levels_runs']}" in stdout
    assert summary["summary"]["mean_pf"] == pytest.approx(est.mean(), rel=1e-9)
    assert summary["summary"]["cov"] == pytest.approx(est.std(ddof=1) / est.mean(), rel=1e-9)
    r_expected = math.sqrt(np.mean(np.log10(est / summary["summary"]["pf_ref"]) ** 2))
    assert summary["summary"]["r_metric"] == pytest.approx(r_expected, rel=1e-9)
    assert summary["summary"]["mean_evals"] == pytest.approx(
        np.mean([float(r["n_evals"]) for r in rows]), rel=1e-9
    )

    with (out / "hist.csv").open() as fh:
        hist_rows = list(csv.DictReader(fh))
    assert sum(int(r["count"]) for r in hist_rows) == summary["summary"]["runs_used"]
    widths = [float(r["log10_hi"]) - float(r["log10_lo"]) for r in hist_rows]
    assert all(w == pytest.approx(0.1, abs=1e-9) for w in widths)


def test_hist_counts_estimates_at_bin_edges(tmp_path):
    # one estimate for each log10 within 40 ulps of 10**(k/10), k = -100..-1: log10
    # lands on or beside a 0.1 edge, where a bin index and a float edge can disagree
    by_log = {}
    for k in range(-100, 0):
        p = 10.0 ** (k / 10)
        for q in p + np.arange(-40, 41) * np.spacing(p):
            by_log.setdefault(math.log10(q), float(q))
    path = tmp_path / "hist.csv"

    def counts(pf_hats):
        outcome = BinOutcome(0, "finished", 0, 0.0, 0.0, 0.0)
        results = [RunResult("dss", pf, (outcome,), 1, 100, 0.0, "converged", (),
                             np.empty((0, 2))) for pf in pf_hats]
        write_hist_csv(path, results)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["log10_hi"]) - float(r["log10_lo"]) == pytest.approx(0.1)
                   for r in rows)
        return [int(r["count"]) for r in rows]

    pfs = list(by_log.values()) + [1.9952623149688748e-10]  # log10 = -9.700000000000001
    for pf in pfs:
        assert counts([pf]) == [1], pf
    assert sum(counts(pfs)) == len(pfs)


def test_replicate_reruns_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", n=250)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["replicate", "--config", str(cfg), "--runs", "25", "--out", str(out1)]) == 0
    assert main(["replicate", "--config", str(cfg), "--runs", "25", "--out", str(out2)]) == 0
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()


def test_replicate_round_trips_from_summary_json(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", n=250)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["replicate", "--config", str(cfg), "--runs", "25", "--out", str(out1)]) == 0
    assert main([
        "replicate", "--config", str(out1 / "summary.json"),
        "--runs", "25", "--out", str(out2),
    ]) == 0
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()


def test_replicate_seed_changes_results(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", n=250)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["replicate", "--config", str(cfg), "--runs", "10", "--out", str(out1)])
    main(["replicate", "--config", str(cfg), "--runs", "10", "--out", str(out2), "--seed", "99"])
    assert (out1 / "runs.csv").read_bytes() != (out2 / "runs.csv").read_bytes()


def test_replicate_jobs_flag_is_result_neutral(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", n=250)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["replicate", "--config", str(cfg), "--runs", "12", "--out", str(out1)])
    main(["replicate", "--config", str(cfg), "--runs", "12", "--out", str(out2), "--jobs", "3"])
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()


def test_replicate_zero_runs_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    for runs in ("0", "abc", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(["replicate", "--config", str(cfg), "--runs", runs, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


def test_replicate_nonbuiltin_problem_needs_reference(tmp_path, capsys):
    # the reference is checked before any run: g sees no point
    seen, g = [], make_piecewise_linear().evaluator
    register_problem("pwl_copy", lambda: LimitState(
        "pwl_copy", 2, lambda p: seen.append(len(p)) or g(p)))
    cfg = _write_config(tmp_path / "copy.json", problem="pwl_copy")
    out = tmp_path / "copy"
    try:
        for pf_ref in ([], ["--pf-ref=0"], ["--pf-ref=-1"], ["--pf-ref=nan"], ["--pf-ref=inf"]):
            argv = ["replicate", "--config", str(cfg), "--runs", "50", "--out", str(out)]
            assert main(argv + pf_ref) == 2
            err = capsys.readouterr().err
            assert ("reference probability" if pf_ref else "--pf-ref") in err
    finally:
        limitstate._REGISTRY.pop("pwl_copy", None)
    assert seen == [] and not out.exists()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "always_fail", "algorithm": "mcs", "n": 50}))
    out = tmp_path / "rep"
    assert main(["replicate", "--config", str(cfg), "--runs", "5", "--out", str(out)]) == 2
    assert "--pf-ref" in capsys.readouterr().err
    assert main([
        "replicate", "--config", str(cfg), "--runs", "5", "--out", str(out),
        "--pf-ref", "1.0",
    ]) == 0


def test_reference_command(capsys):
    assert main(["reference", "--problem", "never_fail", "--samples", "10"]) == 0
    out = capsys.readouterr().out
    assert "pf_hat = 0.000000e+00" in out
    assert "standard_error = 0.000e+00" in out


def test_reference_accepts_scientific_notation(capsys):
    assert main(["reference", "--problem", "always_fail", "--samples", "1e3"]) == 0
    assert "samples=1000" in capsys.readouterr().out


def test_reference_unknown_problem(capsys):
    assert main(["reference", "--problem", "nope", "--samples", "10"]) == 2


def test_bench_tracer_finds_every_name_it_patches(tmp_path, monkeypatch):
    # perfbench/spans.py times the layers by replacing names of dirss from
    # outside; a name it patches that is gone makes installed() raise
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import Tracer

    cfg = _write_config(tmp_path / "cfg.json", n=100)
    untraced = dirss.cli.main
    tracer = Tracer()
    with tracer.installed():
        assert dirss.cli.main is not untraced
        assert dirss.cli.main(["replicate", "--config", str(cfg), "--runs", "2",
                               "--out", str(tmp_path / "rep")]) == 0
    assert dirss.cli.main is untraced
    totals = tracer.totals()
    assert totals["cli.main"][2] == 1 and totals["limitstate.g"][3] > 0
    # the threshold updates and the resampling of the runs are the ones it times
    assert totals["kernels.quantile"][2] >= 1 and totals["kernels.resample"][2] >= 1

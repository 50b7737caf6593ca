"""Acceptance suite: end-to-end checks of the benchmark behavior at desk
scale, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from dirss import (
    ExperimentConfig,
    LimitState,
    McmcConfig,
    RandomStream,
    make_single_bin,
    replicate,
    run_dss,
    summarize,
)
from dirss.cli import main
from dirss.kernels import interp_quantile, propagate_chains, residual_resample

CASE1_CUTS = (-math.pi + 0.8, 0.8)
QUADRANT_CUTS = (-math.pi / 2, 0.0, math.pi / 2, math.pi)

PF_REF_PIECEWISE = 3.19e-5
PF_REF_BETA = 1.33e-6
PHI_MINUS_5 = 0.5 * math.erfc(5.0 / math.sqrt(2.0))  # secondary-mode probability

# evaluation-cost reference rows the experiments below replicate
COST_REFERENCE = {
    "ss_pw_500": 4527,
    "dss1_pw_500": 4816,
    "dss3_pw_500": 5093,
    "ss_beta_1000": 8996,
    "dss_quad_beta_1000": 9944,
    "dss_quad_beta_4000": 37394,
}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _quadrants_hit(points: np.ndarray) -> int:
    if len(points) == 0:
        return 0
    keys = (points[:, 0] >= 0).astype(int) + 2 * (points[:, 1] >= 0).astype(int)
    return len(np.unique(keys))


# ------------------------------------------------------- shared experiments

@pytest.fixture(scope="module")
def ss_pw_500():
    cfg = ExperimentConfig(problem="piecewise_linear", algorithm="ss", n=500,
                           runs=500, seed=101)
    return replicate(cfg)


@pytest.fixture(scope="module")
def dss1_pw_500():
    cfg = ExperimentConfig(problem="piecewise_linear", algorithm="dss", n=500,
                           partition="angular", cuts=CASE1_CUTS, runs=500, seed=102)
    return replicate(cfg)


@pytest.fixture(scope="module")
def dss3_pw_500():
    cfg = ExperimentConfig(problem="piecewise_linear", algorithm="dss", n=500,
                           partition="halfspace", axis=1, runs=500, seed=103)
    return replicate(cfg)


@pytest.fixture(scope="module")
def dss_quad_beta_1000():
    cfg = ExperimentConfig(problem="beta_points", algorithm="dss", n=1000,
                           partition="angular", cuts=QUADRANT_CUTS, runs=200, seed=104)
    return replicate(cfg)


@pytest.fixture(scope="module")
def ss_beta_1000():
    cfg = ExperimentConfig(problem="beta_points", algorithm="ss", n=1000,
                           runs=200, seed=105)
    return replicate(cfg)


@pytest.fixture(scope="module")
def dss_quad_beta_4000():
    cfg = ExperimentConfig(problem="beta_points", algorithm="dss", n=4000,
                           partition="angular", cuts=QUADRANT_CUTS, runs=200, seed=106)
    return replicate(cfg)


# ------------------------------------------------------------ the criteria

def test_criterion_1_reference_probabilities(capsys):
    estimates = {}
    for problem in ("piecewise_linear", "beta_points"):
        assert main(["reference", "--problem", problem, "--samples", "1e7"]) == 0
        out = capsys.readouterr().out
        estimates[problem] = float(out.split("pf_hat = ")[1].split()[0])
    ok = True
    details = []
    for problem, ref in (("piecewise_linear", PF_REF_PIECEWISE), ("beta_points", PF_REF_BETA)):
        sigma = math.sqrt(ref * (1 - ref) / 1e7)
        est = estimates[problem]
        ok &= abs(est - ref) < 3 * sigma
        details.append(f"{problem}: {est:.3e} vs {ref:.2e} +/- {3 * sigma:.1e}")
    _report("criterion 1 (brute-force references)", ok, "; ".join(details))


def test_criterion_2_multimodal_failure_of_ss(ss_pw_500, dss1_pw_500):
    frac_low = float(np.mean([r.pf_hat < 1e-6 for r in ss_pw_500]))
    s_ss = summarize(ss_pw_500, PF_REF_PIECEWISE)
    s_dss = summarize(dss1_pw_500, PF_REF_PIECEWISE)
    assert PHI_MINUS_5 < 1e-6  # the secondary mode alone sits below the cut
    ok_a = frac_low >= 0.30
    ok_b = s_dss.r_metric < s_ss.r_metric and s_ss.r_metric / s_dss.r_metric >= 2.0
    ok_c = 2.5e-5 <= s_dss.mean_pf <= 5.5e-5
    _report(
        "criterion 2 (mode trapping: SS vs directional SS)",
        ok_a and ok_b and ok_c,
        f"SS trapped fraction {frac_low:.2f} (>=0.30); "
        f"R_ss={s_ss.r_metric:.2f} vs R_dss={s_dss.r_metric:.2f} "
        f"(ratio {s_ss.r_metric / s_dss.r_metric:.1f} >= 2); "
        f"dss mean {s_dss.mean_pf:.2e} in [2.5e-5, 5.5e-5]",
    )


def test_criterion_3_partition_sensitivity(dss1_pw_500, dss3_pw_500):
    r1 = summarize(dss1_pw_500, PF_REF_PIECEWISE).r_metric
    r3 = summarize(dss3_pw_500, PF_REF_PIECEWISE).r_metric
    _report(
        "criterion 3 (bad partition degrades accuracy)",
        r3 > 2.0 * r1,
        f"R(case 3)={r3:.2f} > 2 x R(case 1)={r1:.2f}",
    )


def test_criterion_4_mode_coverage(dss_quad_beta_1000, ss_beta_1000):
    dss_counts = [_quadrants_hit(r.failure_points) for r in dss_quad_beta_1000]
    ss_counts = [_quadrants_hit(r.failure_points) for r in ss_beta_1000]
    all_four = float(np.mean([c == 4 for c in dss_counts]))
    mean_dss, mean_ss = float(np.mean(dss_counts)), float(np.mean(ss_counts))
    _report(
        "criterion 4 (all failure modes stay populated)",
        all_four >= 0.90 and mean_ss < mean_dss,
        f"dSS all-four-quadrant rate {all_four:.2f} (>=0.90); "
        f"mean quadrants SS {mean_ss:.2f} < dSS {mean_dss:.2f}",
    )


def test_criterion_5_beta_points_estimates(dss_quad_beta_4000):
    s = summarize(dss_quad_beta_4000, PF_REF_BETA)
    _report(
        "criterion 5 (four-mode benchmark at n=4000)",
        1.2e-6 <= s.mean_pf <= 1.9e-6 and s.r_metric <= 0.35,
        f"mean {s.mean_pf:.2e} in [1.2e-6, 1.9e-6]; R={s.r_metric:.2f} <= 0.35",
    )


def test_criterion_6_evaluation_cost(
    ss_pw_500, dss1_pw_500, dss3_pw_500, ss_beta_1000,
    dss_quad_beta_1000, dss_quad_beta_4000,
):
    batches = {
        "ss_pw_500": ss_pw_500,
        "dss1_pw_500": dss1_pw_500,
        "dss3_pw_500": dss3_pw_500,
        "ss_beta_1000": ss_beta_1000,
        "dss_quad_beta_1000": dss_quad_beta_1000,
        "dss_quad_beta_4000": dss_quad_beta_4000,
    }
    ok = True
    details = []
    for name, results in batches.items():
        mean_evals = float(np.mean([r.n_evals for r in results]))
        ref = COST_REFERENCE[name]
        ratio = mean_evals / ref
        ok &= 0.5 <= ratio <= 2.0
        details.append(f"{name}: {mean_evals:.0f} vs {ref} (x{ratio:.2f})")
    _report("criterion 6 (evaluation cost within factor 2)", ok, "; ".join(details))


def test_criterion_7_structural_properties():
    # deterministic structural checks on fresh runs, no statistics involved
    from dirss import get_problem, make_angular_sectors_2d

    ls = get_problem("piecewise_linear")
    part = make_angular_sectors_2d(CASE1_CUTS)
    res = run_dss(ls, part, 300, stream=RandomStream(7001))
    records = res.level_records
    ok = True
    details = []

    nested = all(
        a >= b - 1e-15
        for j in range(part.n_bins)
        for a, b in zip([r.gamma[j] for r in records], [r.gamma[j] for r in records][1:])
    )
    ok &= nested
    details.append(f"nested thresholds {nested}")

    conserved = all(sum(r.counts) == 300 for r in records)
    ok &= conserved
    details.append(f"population size {conserved}")

    gv = ls.evaluator(res.failure_points)
    constrained = bool((gv <= 0).all()) and len(res.failure_points) > 0
    ok &= constrained
    details.append(f"failure samples satisfy g<=0 {constrained}")

    stream = RandomStream(7002)
    bounds_ok = True
    for m, n in [(7, 100), (100, 100), (33, 500), (150, 100)]:
        counts = residual_resample(np.array([m]), n, [stream])
        base, r = n // m, n % m
        bounds_ok &= counts.sum() == n and counts.min() >= base and counts.max() <= base + r
    ok &= bounds_ok
    details.append(f"offspring bounds {bounds_ok}")

    decomposition = (
        abs(res.pf_hat - sum(o.pi_hat for o in res.bin_outcomes if o.status == "finished"))
        < 1e-12
    )
    ok &= decomposition
    details.append(f"estimate decomposition {decomposition}")

    # each sample is the one bin of a population
    quantile_ok = interp_quantile(np.arange(1.0, 11.0), np.zeros(10, np.int64), np.array([10]),
                                  0.2)[0] == pytest.approx(2.8, abs=1e-12)
    vals, one_bin = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0]), np.zeros(6, np.int64)
    qs = [interp_quantile(vals, one_bin, np.array([6]), r)[0] for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
    quantile_ok &= all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))
    ok &= quantile_ok
    details.append(f"quantile oracle {quantile_ok}")

    stopped_ok = res.status == "converged" and (
        records[-1].upper_bound <= 1e-3 * records[-1].pf_finished
    )
    ok &= stopped_ok
    details.append(f"stopping bound {stopped_ok}")

    _report("criterion 7 (structural properties)", ok, "; ".join(details))


def test_criterion_8_kernel_validity():
    # many parallel chains from 0 on the slab the estimators run; each
    # chain's last state is one draw, so the draws are independent and the
    # plain Kolmogorov-Smirnov test applies
    ls = LimitState("theta", 1, lambda pts: pts[:, 0])
    part = make_single_bin(1)
    cfg = McmcConfig(0.8)
    chains, steps = 4950, 100

    def chain_samples(gamma, seed):
        pts, _, _ = propagate_chains(
            np.zeros((chains, 1)), np.zeros(chains), np.zeros(chains, dtype=np.int64),
            np.full(chains, steps + 1), np.array([gamma]),
            cfg, RandomStream(seed), ls, part,
        )
        return pts[steps :: steps + 1, 0]

    free = chain_samples(np.inf, 8001)
    p_free = stats.kstest(free, stats.norm.cdf).pvalue

    constrained = chain_samples(1.0, 8002)
    phi_b = stats.norm.cdf(1.0)
    p_trunc = stats.kstest(
        constrained, lambda x: stats.norm.cdf(np.minimum(x, 1.0)) / phi_b
    ).pvalue

    _report(
        "criterion 8 (kernel long-run validity)",
        p_free > 0.001 and p_trunc > 0.001,
        f"KS p-values: unconstrained {p_free:.3f}, truncated {p_trunc:.3f} (> 0.001)",
    )


def test_criterion_9_determinism(tmp_path):
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": "piecewise_linear", "algorithm": "dss", "n": 250,
        "partition": "angular", "cuts": list(CASE1_CUTS), "seed": 5,
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["replicate", "--config", str(cfg_path), "--runs", "20", "--out", str(out1)]) == 0
    assert main(["replicate", "--config", str(cfg_path), "--runs", "20", "--out", str(out2)]) == 0
    identical = (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    _report("criterion 9 (byte-identical replication)", identical,
            "runs.csv identical across reruns")

"""Command-line front end: single runs, replicated experiments, and
brute-force reference estimates, with CSV/JSON result files.

Exit codes: 0 on success, 1 on runtime failure (including a limit-state
function that raises or returns bad values), 2 on configuration or
usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigurationError, EvaluationError, check_open_interval
from .estimators import RunResult, run_mcs
from .gaussian import RandomStream
from .harness import (
    REFERENCE_PF,
    ExperimentConfig,
    ReplicationSummary,
    build_partition,
    build_problem,
    config_to_dict,
    replicate,
    run_single,
    summarize,
    usable_runs,
    validate_config,
)
from .limitstate import get_problem


def _json_kind(annotation) -> type:
    """What a config key takes in JSON: its field's type without None, a list for a tuple."""
    kind = next((a for a in get_args(annotation) if a is not type(None)), annotation)
    return list if get_origin(kind) is tuple else kind


_HINTS = get_type_hints(ExperimentConfig)
_CONFIG_KEYS = {f.name: _json_kind(_HINTS[f.name]) for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
_NULLABLE_KEYS = {k for k, hint in _HINTS.items() if type(None) in get_args(hint)}


def load_config(path: str) -> ExperimentConfig:
    """Parse a JSON config file (or a summary.json with an embedded config)."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object of keys and values")
    if isinstance(raw.get("config"), dict):
        raw = raw["config"]
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigurationError(f"missing config keys: {', '.join(missing)}")
    kwargs = {}
    for key, value in raw.items():
        want = _CONFIG_KEYS[key]
        if value is None and key in _NULLABLE_KEYS:
            continue
        if want is list:
            if not isinstance(value, list) or not all(map(_is_number, value)):
                raise ConfigurationError(f"config key {key!r} must be a list of numbers")
            kwargs[key] = tuple(float(v) for v in value)
        elif want is int:
            if not _is_number(value) or isinstance(value, float) and not value.is_integer():
                raise ConfigurationError(f"config key {key!r} must be an integer")
            kwargs[key] = int(value)
        elif want is float:
            if not _is_number(value):
                raise ConfigurationError(f"config key {key!r} must be a number")
            kwargs[key] = float(value)
        else:
            if not isinstance(value, str):
                raise ConfigurationError(f"config key {key!r} must be a string")
            kwargs[key] = value
    return ExperimentConfig(**kwargs)


def _is_number(value) -> bool:
    """A JSON number that is finite (JSON's NaN and Infinity literals are not)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


def _positive_int(text: str) -> int:
    """Positive integer, accepting scientific notation like 1e7."""
    try:
        value = int(text)
    except ValueError:
        try:
            as_float = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if not as_float.is_integer():
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        value = int(as_float)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def write_runs_csv(path: Path, results: list[RunResult]) -> None:
    """One row per run: run_id, pf_hat, levels, n_evals, status, then the
    per-bin estimates pi_hat_1..pi_hat_J for directional runs."""
    n_bins = len(results[0].bin_outcomes) if results[0].algorithm == "dss" else 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["run_id", "pf_hat", "levels", "n_evals", "status"]
        header += [f"pi_hat_{j + 1}" for j in range(n_bins)]
        writer.writerow(header)
        for i, res in enumerate(results):
            row = [i, res.pf_hat, res.levels, res.n_evals, res.status]
            if n_bins:
                row += [o.pi_hat for o in res.bin_outcomes]
            writer.writerow(row)


def write_levels_csv(path: Path, result: RunResult) -> None:
    n_bins = len(result.bin_outcomes)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["level", "n_seeds", "pf_finished", "upper_bound"]
        header += [f"gamma_{j + 1}" for j in range(n_bins)]
        header += [f"count_{j + 1}" for j in range(n_bins)]
        writer.writerow(header)
        for rec in result.level_records:
            writer.writerow(
                [rec.level, rec.n_seeds, rec.pf_finished, rec.upper_bound]
                + list(rec.gamma)
                + list(rec.counts)
            )


def write_hist_csv(path: Path, results: list[RunResult]) -> None:
    """Histogram of log10 estimates over the runs that :func:`summarize` uses,
    fixed bin width 0.1."""
    logs = np.array([math.log10(r.pf_hat) for r in usable_runs(results)])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["log10_lo", "log10_hi", "count"])
        if logs.size == 0:
            return
        # one bin index per estimate, so that no estimate falls between edges
        idx = np.floor(logs / 0.1).astype(np.int64)
        counts = np.bincount(idx - idx.min())
        edges = np.round(np.arange(idx.min(), idx.max() + 2) * 0.1, 10)
        for left, right, count in zip(edges[:-1], edges[1:], counts):
            writer.writerow([left, right, int(count)])


def write_summary_json(
    path: Path, cfg: ExperimentConfig, summary: ReplicationSummary
) -> None:
    payload = {"config": config_to_dict(cfg), "summary": asdict(summary)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    validate_config(cfg)
    if args.out is not None:  # made before any g-call, so that a bad path costs none
        Path(args.out).mkdir(parents=True, exist_ok=True)
    result = run_single(cfg, stream_id=0)
    print(f"problem={cfg.problem} algorithm={cfg.algorithm} n={cfg.n} seed={cfg.seed}")
    print(f"pf_hat = {result.pf_hat:.6e}")
    print(f"status = {result.status}  levels = {result.levels}  n_evals = {result.n_evals}")
    if cfg.algorithm == "dss":
        for o in result.bin_outcomes:
            extra = (
                f"finished at level {o.level}, p_final = {o.p_final:.4g}"
                if o.status == "finished"
                else f"{o.status}, residual bound {o.bound:.3e}"
            )
            print(f"pi_hat_{o.bin + 1} = {o.pi_hat:.6e}  ({extra})")
        print(f"unresolved_bound = {result.unresolved_bound:.3e}")
    if args.out is not None:
        out = Path(args.out)
        write_levels_csv(out / "levels.csv", result)
        print(f"wrote {out / 'levels.csv'}")
    if result.status == "failed":
        print(f"run failed: {result.reason}", file=sys.stderr)
        return 1
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    cfg = replace(cfg, runs=args.runs, seed=cfg.seed if args.seed is None else args.seed)
    # config and reference are checked before --out is made, so a bad one makes no
    # directory and costs no g-call; replicate warns of a starving bin, once
    build_partition(cfg, build_problem(cfg).dimension)
    pf_ref = REFERENCE_PF.get(cfg.problem) if args.pf_ref is None else args.pf_ref
    if pf_ref is None:
        raise ConfigurationError(
            "no stored reference for this problem; pass --pf-ref to compute R"
        )
    check_open_interval(pf_ref, "reference probability", math.inf)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before any g-call, so that a bad path costs none
    results = replicate(cfg, jobs=args.jobs)
    failed = [i for i, r in enumerate(results) if r.status == "failed"]
    if failed:
        print(f"{len(failed)} of {cfg.runs} runs failed; run {failed[0]}: "
              f"{results[failed[0]].reason}", file=sys.stderr)
    summary = summarize(results, pf_ref)
    write_runs_csv(out / "runs.csv", results)
    if summary.runs_used == 0:
        # nothing to summarize: a runtime outcome, not a bad configuration
        print(f"no usable runs: {summary.failed_runs} failed, {summary.zero_runs} "
              f"returned a zero estimate; wrote {out / 'runs.csv'}", file=sys.stderr)
        for stale in ("summary.json", "hist.csv"):  # an earlier batch's would misdescribe this one
            (out / stale).unlink(missing_ok=True)
        return 1
    write_summary_json(out / "summary.json", cfg, summary)
    write_hist_csv(out / "hist.csv", results)
    print(f"problem={cfg.problem} algorithm={cfg.algorithm} n={cfg.n} runs={cfg.runs}")
    print(
        f"mean_pf={summary.mean_pf:.4e} cov={summary.cov:.3f} "
        f"R={summary.r_metric:.3f} mean_evals={summary.mean_evals:.1f} "
        f"used={summary.runs_used} failed={summary.failed_runs} zero={summary.zero_runs} "
        f"max_levels={summary.max_levels_runs}"
    )
    print(f"wrote {out / 'runs.csv'}, {out / 'summary.json'}, {out / 'hist.csv'}")
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    ls = get_problem(args.problem)
    stream = RandomStream(args.seed)
    result = run_mcs(ls, args.samples, stream)
    se = math.sqrt(result.pf_hat * (1.0 - result.pf_hat) / args.samples)  # binomial
    print(f"problem={args.problem} samples={args.samples}")
    print(f"pf_hat = {result.pf_hat:.6e}  standard_error = {se:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirss",
        description="Estimate rare-event failure probabilities in standard "
        "Gaussian space by Monte Carlo, subset simulation, or directional "
        "subset simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single run of a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", help="directory for levels.csv")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("replicate", help="run an experiment many times and summarize")
    p_rep.add_argument("--config", required=True, help="JSON config file")
    p_rep.add_argument("--runs", required=True, type=_positive_int,
                       help="number of independent runs")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--seed", type=int, help="override the config seed")
    p_rep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (results are identical for any value)")
    p_rep.add_argument("--pf-ref", type=float, default=None,
                       help="reference probability for the R metric")
    p_rep.set_defaults(func=_cmd_replicate)

    p_ref = sub.add_parser("reference", help="brute-force Monte Carlo reference estimate")
    p_ref.add_argument("--problem", required=True, help="registered problem name")
    p_ref.add_argument("--samples", required=True, type=_positive_int,
                       help="number of samples (scientific notation accepted)")
    p_ref.add_argument("--seed", type=int, default=0)
    p_ref.set_defaults(func=_cmd_reference)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface runtime failures as exit 1
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

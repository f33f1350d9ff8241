"""Command-line front end: run, sweep, verify, datagen.

Config files are flat ``key = value`` text. Example::

    problem = quadratic1d(lam=1.2, xstar=0.0, fstar=0.1)
    policy = ngn(sigma=1.0)
    steps = 100
    seeds = 0,1,2
    sampler = with_replacement_uniform
    batch_size = 1
    cadence = 10

Exit codes: 0 success, 1 verification failure, a diverged run seed or a
sweep whose every point has a diverged seed, 2 configuration error (an
unknown or repeated key among them).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .objectives import FiniteSumObjective, make_blobs_dataset, write_libsvm
from .runner import Run, aggregate_metric, write_traces
from .specs import POLICIES, PROBLEMS, build_spec
from .stepsizes import StepsizePolicy
from .verify import REPORT_HEADER, SUITES, run_suites


class ConfigError(Exception):
    """Malformed configuration; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment."""

    problem: str
    policy: str
    steps: int = 100
    seeds: tuple[int, ...] = (0,)
    sampler: str = "with_replacement_uniform"
    batch_size: int = 1
    cadence: Optional[int] = None
    x0: Optional[tuple[float, ...]] = None
    out: Optional[str] = None
    axis: Optional[str] = None
    values: tuple[float, ...] = ()


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(","))


# Each config key and the converter of its value, in ExperimentConfig's order
CONVERTERS = {
    "problem": str, "policy": str, "steps": int,
    "seeds": lambda text: tuple(int(s) for s in text.split(",") if s.strip()),
    "sampler": str, "batch_size": int, "cadence": int, "x0": _floats, "out": str,
    "axis": str, "values": _floats,
}


def parse_config(path) -> ExperimentConfig:
    """Parse a flat key = value config file into an ExperimentConfig.

    This checks the file's form and each value's type; whether the run can
    use the values is `runner.check_run`'s rule, applied in `_build_runs`.
    """
    entries: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        # split at the first '=' only: policy/problem values hold more of them
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                              f"choose from {', '.join(CONVERTERS)}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {entries[key][0]}")
        entries[key] = lineno, value.strip()

    for key in ("problem", "policy"):
        if key not in entries:
            raise ConfigError(f"{path}: missing required key {key!r}")
    try:
        cfg = ExperimentConfig(**{key: CONVERTERS[key](value)
                                  for key, (_, value) in entries.items()})
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if cfg.cadence is not None and cfg.cadence < 1:
        raise ConfigError("cadence must be >= 1 when given")
    return cfg


def build_problem(spec: str) -> FiniteSumObjective:
    """Instantiate an objective from its config-grammar spec string."""
    try:
        return build_spec(PROBLEMS, spec)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad problem spec {spec!r}: {exc}") from exc


def build_policy(spec: str, **overrides) -> StepsizePolicy:
    """Instantiate a policy; `overrides` replace spec parameters (sweep points)."""
    try:
        return build_spec(POLICIES, spec, **overrides)
    except ValueError as exc:
        raise ConfigError(f"bad policy spec {spec!r}: {exc}") from exc


def resolve_out_dir(flag_value: Optional[str], cfg_out: Optional[str]) -> Path:
    """Precedence: --out flag, config 'out' key, NGN_OUT_DIR, cwd."""
    target = flag_value or cfg_out or os.environ.get("NGN_OUT_DIR") or "."
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(args) -> ExperimentConfig:
    """The config with --seed-offset applied."""
    cfg = parse_config(args.config)
    if args.seed_offset:
        cfg = replace(cfg, seeds=tuple(s + args.seed_offset for s in cfg.seeds))
    return cfg


def _build_runs(cfg: ExperimentConfig, points: Sequence[dict]) -> list[Run]:
    """One `Run` per point; what `runner.check_run` rejects there is a config error."""
    obj = build_problem(cfg.problem)
    x0 = np.array(cfg.x0) if cfg.x0 is not None else None
    cadence = cfg.cadence if cfg.cadence is not None else cfg.steps
    runs = []
    for overrides in points:
        policy = build_policy(cfg.policy, **overrides)
        try:
            runs.append(Run(obj, policy, cfg.steps, seeds=sorted(cfg.seeds), sampler=cfg.sampler,
                            batch_size=cfg.batch_size, x0=x0, cadence=cadence))
        except ValueError as exc:
            raise ConfigError(f"{cfg.policy} on {cfg.problem}: {exc}") from exc
    return runs


AGGREGATE_METRICS = ("loss_full_final", "dist_sq_final", "grad_full_sq_final", "gamma_final")


def _write_aggregate(finals: np.ndarray, path: Path) -> None:
    """Seed means of the final metrics, one row of AGGREGATE_METRICS per kept seed."""
    lines = ["metric,mean,std,ci_half"]
    for name, values in zip(AGGREGATE_METRICS, finals.T):
        arr = [v for v in values if v == v]  # drop NaN (e.g. unknown x*)
        if not arr:
            continue
        agg = aggregate_metric(arr)
        lines.append(f"{name},{agg.mean!r},{agg.std!r},{agg.ci_half!r}")
    path.write_text("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    cfg = _load_config(args)
    (run,) = _build_runs(cfg, [{}])
    out_dir = resolve_out_dir(args.out, cfg.out)
    finals = write_traces(run, [out_dir / f"trace_seed{seed}.csv" for seed in run.seeds])
    for seed, step in zip(run.seeds, run.diverged_step.tolist()):
        if step >= 0:
            print(f"seed {seed}: diverged at step {step}")
    diverged = run.diverged_step >= 0
    _write_aggregate(finals[~diverged], out_dir / "aggregate.csv")
    print(f"wrote {len(run.seeds)} trace file(s) + aggregate.csv to {out_dir}")
    return 1 if diverged.any() else 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.axis is None or not cfg.values:
        raise ConfigError("sweep config needs 'axis' and a nonempty 'values' grid")
    if len(set(cfg.values)) < len(cfg.values):
        raise ConfigError(f"sweep values must be distinct, got {', '.join(map(repr, cfg.values))}")
    runs = _build_runs(cfg, [{cfg.axis: value} for value in cfg.values])
    out_dir = resolve_out_dir(args.out, cfg.out)
    rows = []  # (value, Aggregate of the final losses, or None when a seed diverged)
    for value, run in zip(cfg.values, runs):
        finals = write_traces(run, [])  # no trace files: the final values only
        n_diverged = int(np.sum(run.diverged_step >= 0))
        if n_diverged:
            print(f"{cfg.axis} = {value}: {n_diverged} of {len(run.seeds)} seed(s) diverged")
            rows.append((value, None))
        else:
            rows.append((value, aggregate_metric(finals[:, 0])))

    finite = [(value, agg) for value, agg in rows if agg is not None]
    best_value, best = min(finite, key=lambda row: row[1].mean) if finite else (None, None)
    lines = ["value,mean,std,ci_half,mark"]
    for value, agg in rows:
        if agg is None:
            lines.append(f"{value!r},,,,diverged")
            continue
        mark = ""
        if value == best_value:
            mark = "best"
        elif np.isclose(value, best_value / 3.0, rtol=1e-6):
            mark = "neighbor_lower"
        elif np.isclose(value, best_value * 3.0, rtol=1e-6):
            mark = "neighbor_upper"
        lines.append(f"{value!r},{agg.mean!r},{agg.std!r},{agg.ci_half!r},{mark}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    if best is None:
        print(f"every {cfg.axis} value had a diverged seed; no best value")
    else:
        print(f"best {cfg.axis} = {best_value} (mean final loss {best.mean:.6g})")
    print(f"wrote sweep.csv to {out_dir}")
    return 0 if best is not None else 1


def cmd_verify(args) -> int:
    if not args.suites:
        raise ConfigError("no suites selected; choose from "
                          f"{sorted(SUITES)} or 'all'")
    try:
        reports = run_suites(args.suites)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = resolve_out_dir(args.out, None)
    lines = [REPORT_HEADER] + [r.csv_row() for r in reports]
    (out_dir / "verify_report.csv").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    failed = [r for r in reports if not r.passed]
    if failed:
        print(f"{len(failed)}/{len(reports)} checks FAILED", file=sys.stderr)
        return 1
    print(f"all {len(reports)} checks passed")
    return 0


def _params_from_pairs(pairs: Sequence[str]) -> dict[str, str]:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"expected key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key.strip()] = value.strip()
    return params


def cmd_datagen(args) -> int:
    params = _params_from_pairs(args.params)
    out = Path(args.out) if args.out else None
    if out is None:
        raise ConfigError("datagen requires --out FILE")
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        data = make_blobs_dataset(
            n=int(params.get("n", 200)),
            d=int(params.get("d", 5)),
            classes=int(params.get("classes", 3)),
            seed=int(params.get("seed", 0)),
        )
        write_libsvm(data, out)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"wrote {out}")
    return 0


JOBS_HELP = "accepted and ignored: every seed runs in lockstep in this process"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngn", description="Stochastic optimization runs and bound checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    run_p.add_argument("--seed-offset", type=int, default=0)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep a policy parameter over a grid")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    sweep_p.add_argument("--seed-offset", type=int, default=0)
    sweep_p.set_defaults(func=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run verification suites")
    verify_p.add_argument("suites", nargs="*",
                          help=f"suite names ({', '.join(sorted(SUITES))}) or 'all'")
    verify_p.add_argument("--out", default=None)
    verify_p.set_defaults(func=cmd_verify)

    datagen_p = sub.add_parser("datagen", help="write a synthetic dataset")
    datagen_p.add_argument("kind", choices=["blobs"])
    datagen_p.add_argument("params", nargs="*", help="key=value pairs")
    datagen_p.add_argument("--out", required=True)
    datagen_p.set_defaults(func=cmd_datagen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

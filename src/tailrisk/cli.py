"""Command-line front end: parse a JSON config, run comparisons, emit tables.

Exit codes: 0 success, 1 validation/config error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .errors import NumericalAbortError, TailRiskError, ValidationError
from .harness import FORMATTERS, compare, resolve_threads, variance_trend
from .model import (ModelSpec, asymptotic_alpha, check_mak_condition,
                    from_lognormal)
from .tails import make_radial

FULL_SCALE_N = 10_000_000


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        with p.open() as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None


_REQUIRED = object()
_floats = partial(np.asarray, dtype=float)


def _entry(block: dict, key: str, cast, default=_REQUIRED):
    """``cast(block[key])``, or ``default`` when the key is absent; a missing
    required or a malformed entry is a ValidationError."""
    if key not in block:
        if default is _REQUIRED:
            raise ValidationError(f'config entry "{key}" is missing')
        return default
    try:
        return cast(block[key])
    except (TypeError, ValueError):
        raise ValidationError(
            f'config entry "{key}" is malformed: {block[key]!r}') from None


def _build_model(cfg: dict):
    """Returns (model, default_rho_entry) from the config's model block."""
    block = cfg.get("model")
    if not isinstance(block, dict):
        raise ValidationError('config needs a "model" block')
    if "lognormal" in block:
        ln = block["lognormal"]
        rho = _entry(ln, "rho", _floats, 0.0)
        model = from_lognormal(_entry(ln, "mu", _floats),
                               _entry(ln, "sigma2", _floats), rho)
        return model, rho
    if "raw" in block:
        raw = block["raw"]
        radial_cfg = dict(raw.get("radial", {"kind": "chi"}))
        kind = radial_cfg.pop("kind", "chi")
        lam = _entry(raw, "lambda", _floats)
        if kind == "chi":
            radial_cfg.setdefault("dof", lam.size)
        sigma = _entry(raw, "sigma", _floats)
        model = ModelSpec(lam=lam, beta=_entry(raw, "beta", _floats),
                          gamma=_entry(raw, "gamma", float, 1.0), sigma=sigma,
                          radial=make_radial(kind, **radial_cfg))
        return model, sigma
    raise ValidationError('model block must contain "lognormal" or "raw"')


def _parse_u_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse threshold list {text!r}") from None


def _config_flag(sub: argparse.ArgumentParser):
    sub.add_argument("--config", required=True, help="JSON config path")


def _run_flags(sub: argparse.ArgumentParser):
    """--config plus the replication flags of the subcommands that simulate."""
    _config_flag(sub)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--threads", default=None, help="worker count or 'auto'")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailrisk",
        description="Tail probabilities of sums of dependent log-elliptical "
                    "risks: estimator benchmarks and diagnostics.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run an estimator comparison table")
    _run_flags(p_run)
    p_run.add_argument("--u", default=None, help="comma-separated thresholds")
    p_run.add_argument("--out", default=None, help="output path (default stdout)")
    p_run.add_argument("--format", choices=sorted(FORMATTERS), default=None)
    p_run.add_argument("--full", action="store_true",
                       help=f"raise replication counts to {FULL_SCALE_N:.0e}")

    p_check = subs.add_parser(
        "check", help="evaluate the vanishing-relative-error condition on a grid")
    _config_flag(p_check)
    p_check.add_argument("--u", required=True, help="comma-separated thresholds")
    p_check.add_argument("--c", type=float, default=1.0)
    p_check.add_argument("--eps", type=float, default=0.5)

    p_asym = subs.add_parser(
        "asymptotic", help="print the first-order sum-of-marginals approximation")
    _config_flag(p_asym)
    p_asym.add_argument("--u", required=True, help="comma-separated thresholds")

    p_trend = subs.add_parser(
        "trend", help="variation-coefficient growth along a threshold grid")
    _run_flags(p_trend)
    p_trend.add_argument("--u", required=True, help="comma-separated thresholds")
    p_trend.add_argument("--estimator", default="mak")
    return parser


def _replication_settings(args, cfg: dict) -> tuple[int, int, int]:
    """(n, seed, threads): each flag overrides its config entry."""
    n = args.n if args.n is not None else _entry(cfg, "n", int, 100_000)
    seed = args.seed if args.seed is not None else _entry(cfg, "seed", int, 0)
    threads = resolve_threads(args.threads if args.threads is not None
                              else cfg.get("threads"))
    return n, seed, threads


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    model, default_rho = _build_model(cfg)
    rhos = cfg.get("rho", [default_rho])
    if not isinstance(rhos, list):
        rhos = [rhos]
    us = _parse_u_list(args.u) if args.u else _entry(
        cfg, "u", lambda v: [float(u) for u in v], [])
    if not us:
        raise ValidationError("no thresholds given (config 'u' or --u)")
    kinds = cfg.get("estimators", ["cmc", "mak", "rn"])
    n, seed, threads = _replication_settings(args, cfg)
    cmc_n = _entry(cfg, "cmc_n", int) if cfg.get("cmc_n") else None
    if args.full:
        n = FULL_SCALE_N
        cmc_n = FULL_SCALE_N
    out_cfg = cfg.get("output", {})
    fmt = args.format or out_cfg.get("format", "csv")
    if fmt not in FORMATTERS:
        raise ValidationError(f"unknown format {fmt!r}; choose from "
                              f"{', '.join(sorted(FORMATTERS))}")
    rows = compare(model, rhos, us, kinds, n=n, seed=seed, cmc_n=cmc_n,
                   threads=threads)
    text = FORMATTERS[fmt](rows)
    out_path = args.out or out_cfg.get("path")
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    cfg = _load_config(args.config)
    model, _ = _build_model(cfg)
    report = check_mak_condition(model, _parse_u_list(args.u), c=args.c,
                                 eps=args.eps)
    print(f"{'u':>12}  {'j':>3}  {'i':>3}  in-max-set  {'lhs':>12}  {'rhs':>12}  holds")
    for p in report.pairs:
        print(f"{p.u:12g}  {p.j:3d}  {p.i:3d}  {str(p.within_max_set):>10}  "
              f"{p.lhs:12.6g}  {p.rhs:12.6g}  {p.holds}")
    print(f"holds on grid (pairs within max set): {report.holds_within_max_set}")
    print(f"holds on grid (all index pairs):      {report.holds_all_indices}")
    print(f"sufficient ratio < 1 on grid:         {report.remark_holds}")
    return 0


def _cmd_asymptotic(args) -> int:
    cfg = _load_config(args.config)
    model, _ = _build_model(cfg)
    print(f"{'u':>12}  {'full_sum':>14}  {'reduced_sum':>14}")
    for u in _parse_u_list(args.u):
        approx = asymptotic_alpha(model, u)
        print(f"{u:12g}  {approx.full:14.8g}  {approx.reduced:14.8g}")
    return 0


def _cmd_trend(args) -> int:
    cfg = _load_config(args.config)
    model, _ = _build_model(cfg)
    n, seed, threads = _replication_settings(args, cfg)
    report = variance_trend(model, args.estimator, _parse_u_list(args.u),
                            n=n, seed=seed, threads=threads)
    print(f"{'u':>12}  {'cv':>12}")
    for u, cv in zip(report.u_grid, report.cv):
        print(f"{u:12g}  {cv:12.6g}")
    print(f"strictly decreasing: {report.decreasing}")
    print(f"slope of log cv vs log log log u: {report.slope_logloglog:.4g}")
    print(f"slope of log cv vs log log u:     {report.slope_loglog:.4g}")
    return 0


_COMMANDS = {"run": _cmd_run, "check": _cmd_check, "asymptotic": _cmd_asymptotic,
             "trend": _cmd_trend}


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericalAbortError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, TailRiskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

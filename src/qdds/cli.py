"""Command-line front end.

Subcommands: `bench` runs benchmark experiments, `fir` runs filter
design experiments, `validate` runs the math-identity oracle suite,
`presets` lists or runs the canned experiment grid (`presets all`
also writes the per-function summary tables). Exit codes: 0 success, 1
usage or configuration error, 2 runtime failure, 3 oracle failure from
`validate`.

A JSON config file (--config) mirrors ExperimentConfig field names;
explicit command-line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .harness import ExperimentConfig, emit_tables, run_experiment
from .objectives import BENCHMARK_NAMES
from .presets import get_preset, preset_names
from .validate import run_validation

__all__ = ["main", "main_entry"]


class _CliError(Exception):
    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    # exit-code contract: usage problems are 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(1, f"{self.prog}: error: {message}")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pop", type=int, default=None, help="particle count")
    p.add_argument("--iters", type=int, default=None, help="iteration budget")
    p.add_argument("--trials", type=int, default=None, help="independent seeded runs")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--mode", choices=["literal", "sweep"], default=None,
                   help="one random particle per iteration, or all particles")
    p.add_argument("--rebind", choices=["post", "pre"], default=None,
                   help="delta history source after blending")
    p.add_argument("--lambda-abs", dest="lambda_abs",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="force the per-run step scale to be non-negative")
    p.add_argument("--k", type=float, default=None, help="well stiffness")
    p.add_argument("--epsilon", type=float, default=None, help="learning-rate floor")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--emit", default=None,
                   help="comma-separated artifact kinds: traces,plots,report")
    p.add_argument("--workers", type=int, default=None, help="parallel trial workers")
    p.add_argument("--label", default=None, help="artifact basename override")
    p.add_argument("--config", default=None, help="JSON config file (flags override it)")


# command-line flag -> ExperimentConfig field
_FLAG_FIELDS = {
    "function": "objective",
    "dim": "dimension",
    "pop": "population",
    "iters": "iterations",
    "seed": "master_seed",
    "out": "out_dir",
    **{
        name: name
        for name in (
            "trials", "mode", "rebind", "lambda_abs", "k", "epsilon",
            "order", "wp", "ws", "eta", "grid", "symmetric", "workers", "label",
        )
    },
}


def _flag_overrides(args: argparse.Namespace) -> dict:
    """Config fields set by the flags given on the command line."""
    values = {field: getattr(args, flag, None) for flag, field in _FLAG_FIELDS.items()}
    return {field: value for field, value in values.items() if value is not None}


def _build_config(args: argparse.Namespace, forced: dict) -> ExperimentConfig:
    base: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise _CliError(1, f"config file {args.config}: {exc}")
        if not isinstance(base, dict):
            raise _CliError(1, f"config file {args.config}: expected a JSON object")
    base.update(_flag_overrides(args))
    if getattr(args, "emit", None) is not None:
        base["emit"] = tuple(part for part in args.emit.split(",") if part)
    base.update(forced)
    try:
        return ExperimentConfig(**base)
    except (TypeError, ValueError) as exc:
        raise _CliError(1, f"bad configuration: {exc}")


def _print_summary(label: str, stats, report: dict, out_dir: str) -> None:
    print(
        f"{label}: mean={stats.mean:.6g} std={stats.std:.6g} "
        f"best={stats.best:.6g} worst={stats.worst:.6g}"
    )
    if "fir" in report:
        fir = report["fir"]
        # the report writes an all-zero filter's -inf level as null
        delta_db = -math.inf if fir["delta_db"] is None else fir["delta_db"]
        print(
            f"{label}: delta_db={delta_db:.4f} "
            f"e_p={fir['e_p']:.6g} e_s={fir['e_s']:.6g} gamma={fir['gamma']:.6g}"
        )
    print(f"artifacts in {out_dir}")


def _cmd_run(args) -> int:
    is_fir = args.command == "fir"
    config = _build_config(args, {"objective": "fir"} if is_fir else {})
    if not is_fir and config.objective == "fir":
        raise _CliError(1, "use the fir subcommand for filter experiments")
    stats, report = run_experiment(config)
    _print_summary(config.resolved_label(), stats, report, config.out_dir)
    return 0


def _cmd_validate(args) -> int:
    results = run_validation(quick=args.quick)
    failures = 0
    for res in results:
        tag = "ok  " if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        failures += 0 if res.passed else 1
    if failures:
        print(f"{failures} oracle check(s) failed")
        return 3
    print("all oracle checks passed")
    return 0


def _cmd_presets(args) -> int:
    names = preset_names()
    if args.name is None:
        for name in names:
            print(name)
        return 0
    if args.name != "all" and args.name not in names:
        raise _CliError(1, f"unknown preset {args.name!r}; run `qdds presets` to list")
    targets = names if args.name == "all" else [args.name]
    overrides = _flag_overrides(args)
    try:
        configs = [get_preset(name, **overrides) for name in targets]
    except ValueError as exc:
        raise _CliError(1, f"bad configuration: {exc}")
    reports = []
    for name, config in zip(targets, configs):
        stats, report = run_experiment(config)
        _print_summary(name, stats, report, config.out_dir)
        reports.append(report)
    if args.name == "all":
        for path in emit_tables(reports, configs[0].out_dir):
            print(f"wrote {path}")
    return 0


def _make_parser() -> _Parser:
    parser = _Parser(prog="qdds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark experiment")
    p_bench.add_argument("--function", choices=list(BENCHMARK_NAMES), default=None,
                         help="benchmark objective")
    p_bench.add_argument("--dim", type=int, default=None, help="search dimension")
    _add_engine_flags(p_bench)
    p_bench.set_defaults(handler=_cmd_run)

    p_fir = sub.add_parser("fir", help="run a filter design experiment")
    p_fir.add_argument("--order", type=int, default=None, help="total coefficient count")
    p_fir.add_argument("--wp", type=float, default=None,
                       help="passband edge as a fraction of pi")
    p_fir.add_argument("--ws", type=float, default=None,
                       help="stopband edge as a fraction of pi")
    p_fir.add_argument("--eta", type=float, default=None, help="passband error weight")
    p_fir.add_argument("--grid", type=int, default=None, help="integration grid per band")
    p_fir.add_argument("--symmetric", action=argparse.BooleanOptionalAction,
                       default=None, help="enforce linear-phase symmetry")
    _add_engine_flags(p_fir)
    p_fir.set_defaults(handler=_cmd_run)

    p_val = sub.add_parser("validate", help="run the math-identity oracle suite")
    p_val.add_argument("--quick", action="store_true",
                       help="smaller sample counts for a fast smoke check")
    p_val.set_defaults(handler=_cmd_validate)

    p_pre = sub.add_parser("presets", help="list or run canned experiments")
    p_pre.add_argument("name", nargs="?", default=None,
                       help="preset name, 'all', or omit to list")
    p_pre.add_argument("--out", default=None, help="output directory")
    p_pre.add_argument("--seed", type=int, default=None, help="master seed override")
    p_pre.add_argument("--trials", type=int, default=None, help="trial count override")
    p_pre.add_argument("--workers", type=int, default=None, help="parallel trial workers")
    p_pre.set_defaults(handler=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _CliError as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except Exception as exc:  # settings are all checked before a run, so the run failed
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())

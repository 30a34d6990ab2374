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
import dataclasses
import json
import math
import sys

from .harness import ExperimentConfig, emit_tables, run_experiment
from .objectives import BENCHMARK_NAMES
from .presets import PRESETS
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
    p.add_argument("--pop", dest="population", metavar="POP", type=int, help="particle count")
    p.add_argument("--iters", dest="iterations", metavar="ITERS", type=int,
                   help="iteration budget")
    p.add_argument("--trials", type=int, help="independent seeded runs")
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, help="master seed")
    p.add_argument("--mode", choices=["literal", "sweep"],
                   help="one random particle per iteration, or all particles")
    p.add_argument("--rebind", choices=["post", "pre"],
                   help="delta history source after blending")
    p.add_argument("--lambda-abs", action=argparse.BooleanOptionalAction,
                   help="force the per-run step scale to be non-negative")
    p.add_argument("--k", type=float, help="well stiffness")
    p.add_argument("--epsilon", type=float, help="learning-rate floor")
    p.add_argument("--lam", type=float,
                   help="step scale of the gated delta update (default: drawn per run)")
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    p.add_argument("--emit", type=lambda text: tuple(filter(None, text.split(","))),
                   help="comma-separated artifact kinds: traces,plots,report")
    p.add_argument("--workers", type=int, help="parallel trial workers")
    p.add_argument("--label", help="artifact basename override")
    p.add_argument("--config", help="JSON config file (flags override it)")


# each flag's dest is the name of the ExperimentConfig field it sets
_FIELDS = {field.name for field in dataclasses.fields(ExperimentConfig)}


def _flag_overrides(args: argparse.Namespace) -> dict:
    """Config fields set by the flags given on the command line."""
    return {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
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
    try:
        return ExperimentConfig(**base)
    except (TypeError, ValueError) as exc:
        raise _CliError(1, f"bad configuration: {exc}")


def _print_summary(label: str, report: dict) -> None:
    stats = report["stats"]
    print(
        f"{label}: mean={stats['mean']:.6g} std={stats['std']:.6g} "
        f"best={stats['best']:.6g} worst={stats['worst']:.6g}"
    )
    if "fir" in report:
        fir = report["fir"]
        # the report writes an all-zero filter's -inf level as null
        delta_db = -math.inf if fir["delta_db"] is None else fir["delta_db"]
        print(
            f"{label}: delta_db={delta_db:.4f} "
            f"e_p={fir['e_p']:.6g} e_s={fir['e_s']:.6g} gamma={fir['gamma']:.6g}"
        )
    print(f"artifacts in {report['config']['out_dir']}")


def _cmd_run(args) -> int:
    config = _build_config(args)
    if args.command == "bench" and config.objective == "fir":
        raise _CliError(1, "use the fir subcommand for filter experiments")
    _, report = run_experiment(config)
    _print_summary(config.resolved_label(), report)
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
    if args.name is None:
        for name in PRESETS:
            print(name)
        return 0
    if args.name != "all" and args.name not in PRESETS:
        raise _CliError(1, f"unknown preset {args.name!r}; run `qdds presets` to list")
    targets = list(PRESETS) if args.name == "all" else [args.name]
    overrides = _flag_overrides(args)
    try:
        configs = [dataclasses.replace(PRESETS[name], **overrides) for name in targets]
    except (TypeError, ValueError) as exc:
        raise _CliError(1, f"bad configuration: {exc}")
    reports = []
    for name, config in zip(targets, configs):
        _, report = run_experiment(config)
        _print_summary(name, report)
        reports.append(report)
    if args.name == "all":
        for path in emit_tables(reports, configs[0].out_dir):
            print(f"wrote {path}")
    return 0


def _make_parser() -> _Parser:
    parser = _Parser(prog="qdds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark experiment")
    p_bench.add_argument("--function", dest="objective", choices=list(BENCHMARK_NAMES),
                         help="benchmark objective")
    p_bench.add_argument("--dim", dest="dimension", metavar="DIM", type=int,
                         help="search dimension")
    _add_engine_flags(p_bench)
    p_bench.set_defaults(handler=_cmd_run)

    p_fir = sub.add_parser("fir", help="run a filter design experiment")
    p_fir.add_argument("--order", type=int, help="total coefficient count")
    p_fir.add_argument("--wp", type=float, help="passband edge as a fraction of pi")
    p_fir.add_argument("--ws", type=float, help="stopband edge as a fraction of pi")
    p_fir.add_argument("--eta", type=float, help="passband error weight")
    p_fir.add_argument("--grid", type=int, help="integration grid per band")
    p_fir.add_argument("--symmetric", action=argparse.BooleanOptionalAction,
                       help="enforce linear-phase symmetry")
    _add_engine_flags(p_fir)
    # the fir subcommand's objective outranks a config file's
    p_fir.set_defaults(handler=_cmd_run, objective="fir")

    p_val = sub.add_parser("validate", help="run the math-identity oracle suite")
    p_val.add_argument("--quick", action="store_true",
                       help="smaller sample counts for a fast smoke check")
    p_val.set_defaults(handler=_cmd_validate)

    p_pre = sub.add_parser("presets", help="list or run canned experiments")
    p_pre.add_argument("name", nargs="?", help="preset name, 'all', or omit to list")
    p_pre.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    p_pre.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                       help="master seed override")
    p_pre.add_argument("--trials", type=int, help="trial count override")
    p_pre.add_argument("--workers", type=int, help="parallel trial workers")
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


if __name__ == "__main__":
    main_entry()

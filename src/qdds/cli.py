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

from .engine import MODES, REBINDS
from .harness import EMIT_KINDS, ExperimentConfig, emit_tables, run_experiment
from .objectives import BENCHMARK_NAMES
from .presets import PRESETS
from .validate import run_validation

__all__ = ["main", "main_entry"]


class _UsageError(Exception):
    """A usage or configuration problem: main prints it and exits 1."""


class _Parser(argparse.ArgumentParser):
    # exit-code contract: usage problems are 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, help="master seed")
    p.add_argument("--trials", type=int, help="independent seeded runs")
    p.add_argument("--workers", type=int, help="parallel trial workers")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pop", dest="population", metavar="POP", type=int, help="particle count")
    p.add_argument("--iters", dest="iterations", metavar="ITERS", type=int,
                   help="iteration budget")
    p.add_argument("--mode", choices=MODES,
                   help="one random particle per iteration, or all particles")
    p.add_argument("--rebind", choices=REBINDS,
                   help="delta history source after blending")
    p.add_argument("--lambda-abs", action=argparse.BooleanOptionalAction,
                   help="force the per-run step scale to be non-negative")
    p.add_argument("--k", type=float, help="well stiffness")
    p.add_argument("--epsilon", type=float, help="learning-rate floor")
    p.add_argument("--lam", type=float,
                   help="step scale of the gated delta update (default: drawn per run)")
    p.add_argument("--emit", type=lambda text: tuple(filter(None, text.split(","))),
                   help=f"comma-separated artifact kinds: {','.join(EMIT_KINDS)}")
    p.add_argument("--label", help="artifact basename override")
    p.add_argument("--config", help="JSON config file (flags override it)")
    _add_run_flags(p)


# each flag's dest is the name of the ExperimentConfig field it sets
_FIELDS = {field.name for field in dataclasses.fields(ExperimentConfig)}


def _build_config(args: argparse.Namespace, base: dict) -> ExperimentConfig:
    """The config of base's fields with the flags given on the command line on top."""
    base.update({k: v for k, v in vars(args).items() if k in _FIELDS and v is not None})
    try:
        return ExperimentConfig(**base)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad configuration: {exc}")


def _run(named_configs) -> list[dict]:
    """Run each (label, config) pair and print its summary; return the reports."""
    reports = []
    for label, config in named_configs:
        _, report = run_experiment(config)
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
        reports.append(report)
    return reports


def _cmd_run(args) -> int:
    base: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise _UsageError(f"config file {args.config}: {exc}")
        if not isinstance(base, dict):
            raise _UsageError(f"config file {args.config}: expected a JSON object")
    config = _build_config(args, base)
    if args.command == "bench" and config.objective == "fir":
        raise _UsageError("use the fir subcommand for filter experiments")
    _run([(config.resolved_label(), config)])
    return 0


def _cmd_validate(args) -> int:
    results = run_validation()
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
        raise _UsageError(f"unknown preset {args.name!r}; run `qdds presets` to list")
    targets = list(PRESETS) if args.name == "all" else [args.name]
    configs = [_build_config(args, dataclasses.asdict(PRESETS[name])) for name in targets]
    reports = _run(zip(targets, configs))
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
    p_val.set_defaults(handler=_cmd_validate)

    p_pre = sub.add_parser("presets", help="list or run canned experiments")
    p_pre.add_argument("name", nargs="?", help="preset name, 'all', or omit to list")
    _add_run_flags(p_pre)
    p_pre.set_defaults(handler=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except Exception as exc:  # settings are all checked before a run, so the run failed
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

"""Command-line interface: run, verify, export."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import beso, io
from .config import build_problem, parse_config
from .errors import RctoError

logger = logging.getLogger("rcto")

EXIT_CODES = {"config": 2, "numerical": 3, "io": 4, "error": 1}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rcto", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a concurrent optimization")
    run_p.add_argument("--config", required=True, help="YAML run configuration")
    run_p.add_argument("--out", required=True, help="output bundle directory")
    run_p.add_argument("--mode", choices=("dcto", "rcto"), help="override the config mode")
    run_p.add_argument("--seed", type=_seed, help="override the config seed")
    run_p.add_argument("--dump-iterations", action="store_true", help="save per-iteration fields")

    ver_p = sub.add_parser("verify", help="compare perturbation and Monte Carlo statistics")
    ver_p.add_argument("--config", required=True)
    ver_p.add_argument("--out", help="directory for the report (defaults to stdout only)")
    ver_p.add_argument("--seed", type=_seed, help="override the config seed")

    exp_p = sub.add_parser("export", help="re-export the fields of a finished run")
    exp_p.add_argument("--bundle", required=True, help="bundle directory from a previous run")
    exp_p.add_argument("--format", choices=("csv", "vtk"), default="vtk")
    exp_p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.mode:
        cfg.mode = args.mode
    if args.seed is not None:
        cfg.seed = args.seed
    if cfg.mode == "verify":
        return _cmd_verify(args, cfg)
    io.make_output_dir(args.out)  # an unwritable --out fails before the first iteration
    problem = build_problem(cfg)
    result = beso.run(
        problem,
        cfg.base_material,
        cfg.active_params,
        cfg.schedule,
        r_min_macro=cfg.r_min_macro,
        r_min_micro=cfg.r_min_micro,
        seed_fraction=cfg.seed_fraction,
        x_min=cfg.x_min,
        keep_snapshots=args.dump_iterations,
    )
    io.write_bundle(args.out, cfg, problem, result)
    final = result.history[-1]
    print(
        f"{cfg.mode} finished: {result.iterations} iterations, "
        f"objective {final.objective:.6f}, weight fraction {final.weight_fraction:.4f}, "
        f"converged={result.converged}"
    )
    print(f"bundle written to {args.out}")
    return 0


def _cmd_verify(args, cfg=None) -> int:
    if cfg is None:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
    if args.out:
        io.make_output_dir(args.out)  # before the Monte Carlo run
    problem = build_problem(cfg)
    state = beso.initial_state(problem, x_min=cfg.x_min, seed_fraction=cfg.seed_fraction)
    report, ihpa_calls = io.verify(
        problem,
        state,
        cfg.base_material,
        cfg.params,
        kappa=cfg.schedule.kappa,
        n_interval=cfg.mcs_interval,
        n_random=cfg.mcs_random,
        seed=cfg.seed,
    )
    table = report.format_table(ihpa_calls)
    print(table, end="")
    if args.out:
        path = os.path.join(args.out, "verification.txt")
        io.write_text(path, table)
        print(f"report written to {path}")
    return 0


def _cmd_export(args) -> int:
    cfg, problem, state, _summary = io.load_bundle(args.bundle)
    io.make_output_dir(args.out)
    writer = io.export_field_csv if args.format == "csv" else io.export_field_vtk
    ext = args.format
    writer(os.path.join(args.out, f"macro_density.{ext}"), problem.grid, state.x_macro)
    writer(os.path.join(args.out, f"micro_density.{ext}"), problem.cell, state.x_micro)
    print(f"exported macro and micro fields to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {"run": _cmd_run, "verify": _cmd_verify, "export": _cmd_export}
    try:
        return handlers[args.command](args)
    except RctoError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except Exception as exc:  # pragma: no cover - unexpected
        logger.exception("unexpected failure")
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

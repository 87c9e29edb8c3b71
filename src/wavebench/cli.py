"""Command-line interface.

Subcommands: reference (build/cache the fine-grid reference), fit (spectral
surrogate only), match (print the DoF-matched resolution), benchmark (full
pipeline), snapshots (CSV grid export). A config, seed or DoF that cannot
work is a one-line usage error (exit status 2). Logs go to stderr at INFO.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import runner
from .dof_matching import match_cn_to_dof
from .problem import IC_NAMES
from .runner import ExperimentConfig


class _StderrHandler(logging.StreamHandler):
    """Writes each record to the sys.stderr current when it is logged."""

    stream = property(lambda self: sys.stderr, lambda self, _: None)


def _load_config(args) -> ExperimentConfig:
    config = (ExperimentConfig.from_json(Path(args.config).read_text())
              if args.config else ExperimentConfig())
    overrides = {"ic": args.ic.replace("-", "_") if args.ic else None,
                 "seed": args.seed, "output_dir": args.output or None,
                 "paper_update": True if args.paper_update else None}
    config = replace(config, **{k: v for k, v in overrides.items()
                                if v is not None})
    return config.paper_scale() if args.paper_scale else config


def _add_common(p):
    p.add_argument("--config", help="path to a JSON config file")
    p.add_argument("--ic", choices=[n.replace("_", "-") for n in IC_NAMES],
                   help="initial condition")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--paper-scale", action="store_true",
                   help="use the full 400x400 reference resolution")
    p.add_argument("--paper-update", action="store_true",
                   help="one-sided stiffness average in the matched FEM solve")
    p.add_argument("--output", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebench",
        description="DoF-matched wave-equation solver benchmarking")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in [
        ("reference", "build and cache the fine-grid reference solution"),
        ("fit", "fit the spectral surrogate and write the model JSON"),
        ("benchmark", "full benchmark; writes report CSV/JSON"),
        ("snapshots", "export snapshot grids for plotting"),
    ]:
        p = sub.add_parser(name, help=help_)
        _add_common(p)

    p = sub.add_parser("match", help="print the DoF-matched FEM resolution")
    p.add_argument("dof", type=float, help="target effective DoF")
    p.add_argument("--T", type=float, default=1.0, help="final time")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    log = logging.getLogger("wavebench")
    log.setLevel(logging.INFO)
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        log.addHandler(_StderrHandler())

    if args.command == "match":
        try:
            r = match_cn_to_dof(args.dof, args.T)
        except ValueError as exc:
            parser.error(str(exc))
        print(json.dumps(asdict(r)))
        return 0

    try:
        config = _load_config(args)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "reference":
        ref = runner.get_reference(config)
        print(f"reference ready: {ref.grid_nx}x{ref.grid_ny}, "
              f"Nt={ref.Nt_ref}, dt={ref.dt_ref}")
        return 0

    if args.command == "fit":
        model, seconds = runner.fit_surrogate(config)
        path = out / f"model_{config.ic}.json"
        path.write_text(model.to_json())
        print(f"fitted in {seconds:.3f}s: lambda={model.lam:.3e}, "
              f"edof={model.edof:.1f} -> {path}")
        return 0

    if args.command == "benchmark":
        result = runner.run_benchmark(config)
        sys.stdout.write(result.csv_text())
        return 0

    if args.command == "snapshots":
        ref = runner.get_reference(config)
        model, _, traj, *_ = runner.fit_and_solve(config)
        files = runner.emit_snapshots(config, model, traj, ref)
        print(f"wrote {len(files)} snapshot files to "
              f"{Path(config.output_dir) / 'snapshots'}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())

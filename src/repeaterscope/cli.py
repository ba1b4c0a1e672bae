"""Command-line interface.

Subcommands: ``link`` (elementary-link budget numbers), ``couple`` (facet
coupling vs tilt angle), ``chain`` (one end-to-end evaluation), ``sweep``
(grid sweep from a JSON config) and ``figure`` (named preset sweeps).

Exit codes: 0 success, 2 configuration error (any ``ValueError`` or
``OSError``), 3 numeric failure (any ``ArithmeticError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import metrics, sweep
from .channel import (
    ConfigurationError,
    LinkBudget,
    MediumProfile,
    conversion_threshold,
    default_media,
    elementary_success,
    select_wavelength,
)
from .protocol import ProtocolConfig, cascade_config, plan_chains
from .states import NoiseParams, key_fraction

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _link_inputs(args: argparse.Namespace) -> tuple[MediumProfile, LinkBudget]:
    """The medium and link budget that ``link`` and ``chain`` share."""
    media = default_media()
    key = args.medium.upper()
    if key not in media:
        raise ConfigurationError(f"unknown medium {args.medium!r}; choose from {sorted(media)}")
    return media[key], LinkBudget(args.eta_hardware, args.conv_eff, args.l0)


def _emit(records: dict | list[dict], fmt: str, out: str | None) -> None:
    """Write one record, or a list of records, as JSON or CSV to ``out`` or
    to stdout."""
    if fmt == "json":
        text = json.dumps(records, indent=2, default=float) + "\n"
    else:
        rows = [records] if isinstance(records, dict) else records
        # nested structures (trace, oracle) only fit the json format
        keys = [k for k, v in rows[0].items() if not isinstance(v, (dict, list))]
        text = sweep.csv_text(keys, ([row[k] for k in keys] for row in rows))
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_link(args: argparse.Namespace) -> None:
    medium, budget = _link_inputs(args)
    wavelength, pi0 = select_wavelength(medium, budget)
    payload = {
        "medium": medium.name,
        "l0_km": budget.l0_km,
        "eta_hardware": budget.eta_hardware,
        "conv_eff": budget.conv_eff,
        "wavelength_nm": wavelength,
        "pi0": pi0,
    }
    for wl in sorted(medium.att_length_km):
        payload[f"pi0_{wl}nm"] = elementary_success(medium, budget, wl)
    payload["conv_eff_threshold"] = conversion_threshold(medium, budget.l0_km)
    _emit(payload, args.format, args.out)


def _cmd_couple(args: argparse.Namespace) -> None:
    # only this command loads the mode solver
    from . import coupling

    if args.points < 1:
        raise ConfigurationError("--points must be at least 1")
    fiber = coupling.near_cutoff_smf(args.wavelength)
    mode = coupling.fiber_mode(fiber, args.wavelength)
    w_opt, _ = coupling.optimize_waist(fiber, mode)
    beam = coupling.GaussianBeam(waist_um=w_opt, wavelength_nm=args.wavelength)
    facet = coupling.facet_transmission(fiber)
    rows = [
        {
            "theta_rad": theta,
            "eta_smf_1550": coupling.tilted_eta(beam, fiber, mode, theta) * facet,
            "eta_constants_hcf": coupling.effective_coupling("HCF", theta),
        }
        for theta in map(float, np.linspace(0.0, args.theta_max, args.points))
    ]
    _emit(rows, "csv", args.out)


def _chain_payload(args: argparse.Namespace) -> dict:
    medium, budget = _link_inputs(args)
    config = ProtocolConfig(
        medium=medium,
        budget=budget,
        noise=NoiseParams(args.eps_g, t2=args.t2),
        n=args.n,
        m=args.m,
        f_th=args.f_th,
    )
    plan = plan_chains([config])
    point = plan.evaluate()[0]
    payload = {
        "medium": medium.name,
        "n": point.n,
        "m": point.m,
        "l0_km": point.l0_km,
        "total_distance_km": point.l0_km * (1 << point.n),
        "wavelength_used_nm": point.wavelength_used_nm,
        "skr_pcu": point.skr_pcu,
        "expected_end_pairs": point.expected_end_pairs,
        "completion_prob": point.completion_prob,
        "end_fidelity": point.end_state.fidelity(),
        "key_fraction": key_fraction(point.end_state),
        "ops_per_secret_bit": metrics.ops_per_secret_bit(point),
        "two_qubit_gates_per_burst": point.ops.two_qubit_gates,
        "measurements_per_burst": point.ops.measurements,
        "mass_defect": point.mass_defect,
    }
    if point.diagnostic:
        payload["diagnostic"] = point.diagnostic
    if args.trace:
        payload["trace"] = [
            {
                "level": step.level,
                "wait_s": step.wait_s,
                "pre_fidelity": step.pre_state.fidelity(),
                "distilled": step.distilled,
                "distill_success": step.distill_success,
                "post_fidelity": step.fidelity,
            }
            for step in plan.trace.steps
        ]
    if args.oracle:
        from .oracle import MonteCarloConfig, mc_cascade

        _, pi0 = plan.choices[0]
        cc = cascade_config(config, plan.trace, pi0)
        mc = mc_cascade(cc, MonteCarloConfig(trials=args.trials, seed=args.seed))
        comp, comp_se = mc.completion_estimate()
        payload["oracle"] = {
            "trials": args.trials,
            "seed": args.seed,
            "completion": comp,
            "completion_stderr": comp_se,
            "clean_fraction": mc.clean_trials / mc.trials,
        }
    return payload


def _cmd_chain(args: argparse.Namespace) -> None:
    _emit(_chain_payload(args), args.format, args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    spec, profiles = sweep.load_config(args.config)
    rows = sweep.run_sweep(spec, profiles)
    _emit([dataclasses.asdict(r) for r in rows], args.format, args.out or spec.output_path)


def _cmd_figure(args: argparse.Namespace) -> None:
    spec = sweep.figure_preset(args.name)
    rows = sweep.run_sweep(spec)
    _emit([dataclasses.asdict(r) for r in rows], args.format, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeaterscope",
        description="Repeater-chain rate models over silica and hollow-core fiber",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by link and chain, and by sweep and figure
    link_opts = argparse.ArgumentParser(add_help=False)
    link_opts.add_argument("--medium", default="HCF")
    link_opts.add_argument("--l0", type=float, default=20.0, help="spacing in km")
    link_opts.add_argument("--conv-eff", type=float, default=0.5, dest="conv_eff")
    link_opts.add_argument("--eta-hardware", type=float, default=1.0, dest="eta_hardware")
    link_opts.add_argument("--format", choices=("json", "csv"), default="json")
    link_opts.add_argument("--out")
    grid_opts = argparse.ArgumentParser(add_help=False)
    grid_opts.add_argument("--out")
    grid_opts.add_argument("--format", choices=("csv", "json"), default="csv")

    link = sub.add_parser("link", parents=[link_opts],
                          help="elementary-link budget for one spacing")
    link.set_defaults(func=_cmd_link)

    couple = sub.add_parser("couple", help="facet coupling vs tilt angle (CSV)")
    couple.add_argument("--wavelength", type=float, default=1550.0)
    couple.add_argument("--theta-max", type=float, default=0.05, dest="theta_max")
    couple.add_argument("--points", type=int, default=26)
    couple.add_argument("--out")
    couple.set_defaults(func=_cmd_couple)

    chain = sub.add_parser("chain", parents=[link_opts],
                           help="evaluate one chain configuration")
    chain.add_argument("--n", type=int, default=2)
    chain.add_argument("--m", type=int, default=1024)
    chain.add_argument("--eps-g", type=float, default=1e-3, dest="eps_g")
    chain.add_argument("--t2", type=float, default=1.0)
    chain.add_argument("--f-th", type=float, default=ProtocolConfig.f_th, dest="f_th")
    chain.add_argument("--trace", action="store_true", help="include per-level trace")
    chain.add_argument("--oracle", action="store_true",
                       help="attach Monte-Carlo validation numbers")
    chain.add_argument("--trials", type=int, default=100_000)
    chain.add_argument("--seed", type=int, default=20260809)
    chain.set_defaults(func=_cmd_chain)

    sweep_cmd = sub.add_parser(
        "sweep", parents=[grid_opts], help="run a sweep from a JSON config"
    )
    sweep_cmd.add_argument("--config", required=True)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    figure = sub.add_parser("figure", parents=[grid_opts], help="run a named preset sweep")
    figure.add_argument("name")
    figure.set_defaults(func=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())

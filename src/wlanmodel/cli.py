"""Command-line front end: generate | evaluate | sweep | mc-validate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import pipeline


def _add_setting_flags(p: argparse.ArgumentParser, settings, required=()):
    for setting in settings:
        choices = setting.kind if isinstance(setting.kind, tuple) else None
        p.add_argument("--" + setting.name.replace("_", "-"), choices=choices,
                       help=setting.help, required=setting.name in required,
                       default=argparse.SUPPRESS)


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON run config; flags override its fields")
    p.add_argument("--scenario-file", help="evaluate a saved scenario JSON")
    _add_setting_flags(p, [s for s in pipeline.SETTINGS if s.flag])
    p.add_argument("--dump-artifacts", action="store_true",
                   help="also write gains/plan/association/chain CSVs")
    p.add_argument("--out-dir", default="out", help="output directory")


def _literal(text: str):
    """A flag or sweep-value string as the JSON value it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _build_config(args) -> pipeline.RunConfig:
    config = pipeline.RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = pipeline.RunConfig(**json.load(fh))
    tree = asdict(config)
    if getattr(args, "scenario_file", None):
        tree["scenario"] = {"file": args.scenario_file}
    for name, text in vars(args).items():
        if name in pipeline.SETTING:
            parent, key = pipeline.SETTING[name].slot(tree)
            parent[key] = _literal(text)
    if getattr(args, "sweep_axis", None):
        tree["sweep_axis"] = args.sweep_axis
        tree["sweep_values"] = [_literal(v.strip()) for v in args.sweep_values.split(",")]
    return pipeline.RunConfig(**tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wlanmodel",
        description="Analytical throughput model for dense multi-AP WLANs")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a scenario JSON file")
    # The scenario keys the default config spells out are the ones every
    # generator needs.
    _add_setting_flags(gen, [s for s in pipeline.SETTINGS if s.generator],
                       required=pipeline.RunConfig().scenario)
    gen.add_argument("--seed", dest="seed_topology", metavar="SEED",
                     default=argparse.SUPPRESS,
                     help=f"topology seed (default {pipeline.Seeds().topology})")
    gen.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="single evaluation")
    _add_run_flags(ev)

    sw = sub.add_parser("sweep", help="evaluate along one axis")
    _add_run_flags(sw)
    sw.add_argument("--sweep-axis", required=True,
                    choices=pipeline.SWEEP_AXES)
    sw.add_argument("--sweep-values", required=True,
                    help="comma-separated axis values")

    mv = sub.add_parser("mc-validate",
                        help="deterministic model vs Monte Carlo oracle")
    _add_run_flags(mv)

    args = parser.parse_args(argv)

    try:
        config = _build_config(args)
        if args.command == "generate":
            scenario = pipeline.build_scenario(config)
    except (TypeError, ValueError) as exc:  # unknown keys, refused values
        parser.error(str(exc))

    if args.command == "generate":
        scenario.save(args.out)
        print(f"wrote {args.out}: {scenario.n_aps} APs, "
              f"{scenario.n_users} users, {len(scenario.walls)} walls")
        return 0

    if args.command == "evaluate":
        result = pipeline.evaluate(config)
        paths = pipeline.write_report(result, args.out_dir)
        if args.dump_artifacts:
            pipeline.dump_artifacts(result, args.out_dir)
        s = result.report.summary
        print(f"mean throughput {s['mean']/1e6:.3f} Mb/s, "
              f"median {s['median']/1e6:.3f} Mb/s over {s['n']} users")
        print(f"wrote {paths['report']}, {paths['cdf']}, {paths['summary']}")
        return 0

    if args.command == "sweep":
        result = pipeline.sweep(config)
        paths = pipeline.write_sweep(config, result, args.out_dir)
        for v in result.values:
            if v in result.summaries:
                print(f"{result.axis}={v}: mean "
                      f"{result.summaries[v]['mean']/1e6:.3f} Mb/s")
            else:
                print(f"{result.axis}={v}: FAILED ({result.errors[v]})")
        print(f"wrote {paths['sweep']}")
        return 1 if result.errors else 0

    if args.command == "mc-validate":
        result = pipeline.mc_validate(config)
        paths = pipeline.write_validation(result, args.out_dir)
        mean_det = float(result.det_rates.mean())
        mean_mc = float(result.mc_rates.mean())
        z = result.z_summary()
        print(f"deterministic mean {mean_det:.4f} bit/s/Hz, "
              f"oracle mean {mean_mc:.4f} bit/s/Hz "
              f"({abs(mean_mc-mean_det)/mean_det*100 if mean_det else 0:.2f}% apart); "
              f"per user mean |z| {z['mean_abs_z']:.2f}, max |z| {z['max_abs_z']:.2f}"
              + (f" ({z['users_without_z']} users without z: no draw reached them)"
                 if "users_without_z" in z else ""))
        print(f"wrote {paths['comparison']}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())

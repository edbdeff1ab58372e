"""Command-line front end: generate | evaluate | sweep | mc-validate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import pipeline
from .scenario import GENERATORS


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON run config; flags override its fields")
    p.add_argument("--scenario-file", help="evaluate a saved scenario JSON")
    p.add_argument("--generator", choices=sorted(GENERATORS),
                   help="scenario generator name")
    p.add_argument("--n-aps", type=int)
    p.add_argument("--n-users", type=int)
    p.add_argument("--n-rooms", type=int, help="walled_office only")
    p.add_argument("--technology", choices=["su_beamforming",
                                            "concentrated_mu_mimo",
                                            "distributed_mu_mimo"])
    p.add_argument("--channelization", choices=["4x20", "2x40", "1x80"])
    p.add_argument("--cca-db",
                   help="clear-channel threshold in dB, or 'disabled'")
    p.add_argument("--power-db", type=float)
    p.add_argument("--antennas", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--rate-mode", choices=["gaussian", "quantized"])
    p.add_argument("--n-clusters", type=int)
    p.add_argument("--overhead-discount", type=float)
    p.add_argument("--sector-width-deg", type=float,
                   help="sectorize every AP to this beamwidth")
    p.add_argument("--sector-orientation-deg", type=float)
    p.add_argument("--outage-threshold-bps", type=float)
    p.add_argument("--seed-topology", type=int)
    p.add_argument("--seed-plan", type=int)
    p.add_argument("--seed-shadowing", type=int)
    p.add_argument("--seed-oracle", type=int)
    p.add_argument("--realizations", type=int, help="oracle realization count")
    p.add_argument("--dump-artifacts", action="store_true",
                   help="also write gains/plan/association/chain CSVs")
    p.add_argument("--out-dir", default="out", help="output directory")


def _build_config(args) -> pipeline.RunConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    cfg = pipeline.RunConfig.from_dict(data) if data else pipeline.RunConfig()

    scenario = dict(cfg.scenario)
    if args.scenario_file:
        scenario = {"file": args.scenario_file}
    if args.generator:
        scenario = {"generator": args.generator}
    for key, val in (("n_aps", args.n_aps), ("n_users", args.n_users),
                     ("n_rooms", args.n_rooms)):
        if val is not None:
            scenario[key] = val

    overrides = {"scenario": scenario}
    for key in ("technology", "channelization", "power_db", "antennas", "rho",
                "rate_mode", "n_clusters", "overhead_discount", "sector_width_deg",
                "sector_orientation_deg", "outage_threshold_bps"):
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    if args.cca_db is not None:
        overrides["cca_db"] = (None if args.cca_db == "disabled"
                               else float(args.cca_db))
    seeds = dict(cfg.to_dict()["seeds"])
    for name in ("topology", "plan", "shadowing", "oracle"):
        val = getattr(args, f"seed_{name}")
        if val is not None:
            seeds[name] = val
    overrides["seeds"] = pipeline.Seeds(**seeds)
    if args.realizations is not None:
        overrides["oracle"] = replace(cfg.oracle, n_realizations=args.realizations)
    if getattr(args, "sweep_axis", None):
        overrides["sweep_axis"] = args.sweep_axis
        overrides["sweep_values"] = _parse_values(args.sweep_values)

    merged = cfg.to_dict()
    merged.update(overrides)
    return pipeline.RunConfig.from_dict(merged)


def _parse_values(raw: str) -> list:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        try:
            out.append(int(tok))
        except ValueError:
            try:
                out.append(float(tok))
            except ValueError:
                out.append(tok)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wlanmodel",
        description="Analytical throughput model for dense multi-AP WLANs")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a scenario JSON file")
    gen.add_argument("--generator", choices=sorted(GENERATORS), required=True)
    gen.add_argument("--n-aps", type=int, required=True)
    gen.add_argument("--n-users", type=int, required=True)
    gen.add_argument("--n-rooms", type=int)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--antennas", type=int, default=4)
    gen.add_argument("--power-db", type=float, default=90.0)
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

    if args.command == "generate":
        kwargs = dict(n_aps=args.n_aps, n_users=args.n_users, seed=args.seed,
                      antennas=args.antennas, power_db=args.power_db)
        if args.generator == "walled_office":
            if args.n_rooms is None:
                parser.error("walled_office needs --n-rooms")
            kwargs = {"n_rooms": args.n_rooms, **kwargs}
        scenario = GENERATORS[args.generator](**kwargs)
        scenario.save(args.out)
        print(f"wrote {args.out}: {scenario.n_aps} APs, "
              f"{scenario.n_users} users, {len(scenario.walls)} walls")
        return 0

    config = _build_config(args)

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
        print(f"deterministic mean {mean_det:.4f} bit/s/Hz, "
              f"oracle mean {mean_mc:.4f} bit/s/Hz "
              f"({abs(mean_mc-mean_det)/mean_det*100 if mean_det else 0:.2f}% apart); "
              f"per user mean |z| {float(abs(result.z).mean()):.2f}, "
              f"max |z| {float(abs(result.z).max()):.2f}")
        print(f"wrote {paths['comparison']}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())

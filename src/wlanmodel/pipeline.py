"""Experiment orchestration: run configs, the evaluation pipeline, sweeps,
and Monte Carlo validation, with CSV/JSON emission.

Every output file embeds the fully resolved run configuration (including
all seeds) so results can be reproduced from any single artifact.
"""

from __future__ import annotations

import csv
import itertools
import json
import numbers
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import csma, oracle, radio_plan, rates
from .propagation import GainMatrix, PathlossParams, gain_matrix
from .scenario import DEFAULT_ANTENNAS, DEFAULT_POWER_DB, GENERATORS, Scenario, Sector, from_tree


@dataclass(frozen=True)
class Seeds:
    topology: int = 1
    plan: int = 2
    shadowing: int = 3
    oracle: int = 4


class Setting(NamedTuple):
    """One run setting. Its name is also its CLI flag and sweep-axis name."""

    name: str
    kind: type | tuple      # int, float, or the strings it may take
    at: str = ""            # place in asdict(RunConfig), if not `name`
    nulls: tuple = ()       # values that stand for None
    sweep: bool = False
    generator: bool = False  # read only to generate the scenario
    flag: bool = True
    help: str | None = None
    minimum: int | None = None  # smallest value allowed, if any

    def slot(self, tree: dict) -> tuple[dict, str]:
        """The dict of an asdict(RunConfig) tree that holds this setting, and its key."""
        head, _, key = (self.at or self.name).rpartition(".")
        return (tree[head] if head else tree), key

    def parse(self, value):
        """The one parser for constructor arguments, JSON values, CLI flag
        literals and sweep points: a string is never a number, a number is
        never truncated, and NaN, infinities, integers beyond the float range
        and values below the minimum are refused."""
        if value in self.nulls:
            return None
        if isinstance(self.kind, tuple):
            if value in self.kind:
                return value
        elif isinstance(value, numbers.Integral if self.kind is int else numbers.Real) \
                and not isinstance(value, bool) and abs(value) <= sys.float_info.max \
                and (self.minimum is None or value >= self.minimum):
            return self.kind(value)
        raise ValueError(f"{self.at or self.name} cannot be {value!r}")


SETTINGS = (
    Setting("generator", tuple(sorted(GENERATORS)), "scenario.generator",
            generator=True, help="scenario generator name"),
    Setting("n_aps", int, "scenario.n_aps", sweep=True, generator=True, minimum=1),
    Setting("n_users", int, "scenario.n_users", sweep=True, generator=True, minimum=1),
    Setting("n_rooms", int, "scenario.n_rooms", generator=True, help="walled_office only"),
    Setting("technology", tuple(t.value for t in rates.Technology)),
    Setting("channelization", tuple(radio_plan.CHANNELIZATIONS), sweep=True),
    Setting("cca_db", float, nulls=(None, "disabled"), sweep=True,
            help="clear-channel threshold in dB, or 'disabled'"),
    Setting("power_db", float, sweep=True, generator=True),
    Setting("antennas", int, sweep=True, generator=True, minimum=1),
    Setting("rho", float, sweep=True),
    Setting("rate_mode", tuple(m.value for m in rates.RateMode)),
    Setting("n_clusters", int, sweep=True, minimum=1),
    Setting("overhead_discount", float),
    Setting("sector_width_deg", float, nulls=(None,), generator=True,
            help="sectorize every AP to this beamwidth"),
    Setting("sector_orientation_deg", float, generator=True),
    Setting("outage_threshold_bps", float),
    Setting("state_cap", int, flag=False, minimum=1),
    *(Setting(f"seed_{f.name}", int, f"seeds.{f.name}", minimum=0) for f in fields(Seeds)),
    Setting("realizations", int, "oracle.n_realizations", help="oracle realization count",
            minimum=1),
)
SETTING = {s.name: s for s in SETTINGS}
SWEEP_AXES = tuple(s.name for s in SETTINGS if s.sweep)
# What a scenario dict may hold: a saved scenario file, or the scenario.*
# settings. Every other quantity is set at the top level only.
SCENARIO_KEYS = ("file", *(s.name for s in SETTINGS if s.at.startswith("scenario.")))


@dataclass
class RunConfig:
    scenario: dict = field(default_factory=lambda: {
        "generator": "conference_hall", "n_aps": 4, "n_users": 20})
    technology: str = "su_beamforming"
    channelization: str = "4x20"
    cca_db: float | None = 10.0
    power_db: float = DEFAULT_POWER_DB
    antennas: int = DEFAULT_ANTENNAS
    rho: float = csma.DEFAULT_RHO
    rate_mode: str = "gaussian"
    n_clusters: int = 1
    overhead_discount: float = 1.0
    sector_width_deg: float | None = None   # sectorize every generated AP
    sector_orientation_deg: float = 0.0     # same bearing for all APs
    pathloss: dict | None = None
    mcs_table: dict | None = None
    outage_threshold_bps: float = 0.0
    state_cap: int = csma.DEFAULT_STATE_CAP
    seeds: Seeds = field(default_factory=Seeds)
    oracle: oracle.OracleConfig = field(default_factory=oracle.OracleConfig)
    sweep_axis: str | None = None
    sweep_values: list = field(default_factory=list)

    def __post_init__(self):
        # Every setting goes through its parser, however the config was made;
        # seeds and oracle may arrive as dicts (the asdict() layout).
        tree = asdict(self)
        for setting in SETTINGS:
            parent, key = setting.slot(tree)
            if key in parent:
                parent[key] = setting.parse(parent[key])
        for key, value in tree["scenario"].items():
            if key not in SCENARIO_KEYS:
                raise ValueError(f"scenario.{key} cannot be {value!r}: the scenario "
                                 f"dict holds only {', '.join(SCENARIO_KEYS)}")
        if not tree["scenario"].keys() & {"file", "generator"}:
            raise ValueError("scenario.generator is missing (or give scenario.file)")
        tree["seeds"] = Seeds(**tree["seeds"])
        tree["oracle"] = oracle.OracleConfig(**tree["oracle"])
        vars(self).update(tree)
        if self.sweep_axis is not None and self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.sweep_axis!r} "
                             f"(choose from {SWEEP_AXES})")
        if (self.sweep_axis is None) != (not self.sweep_values):
            raise ValueError("sweep_axis and sweep_values must come together")
        # Compared parsed, so 10 and 10.0 are one point; a value that does not
        # parse is compared as given and stays that point's own error.
        points = []
        for value in self.sweep_values:
            try:
                value = SETTING[self.sweep_axis].parse(value)
            except ValueError:
                pass
            if value in points:
                raise ValueError(f"sweep value {value!r} of {self.sweep_axis} repeats")
            points.append(value)
        if not 0.0 < self.overhead_discount <= 1.0:
            raise ValueError("overhead_discount must be in (0, 1]")
        # The overrides parse now. Each pathloss rule reads one field, so a
        # check over the defaults holds for every scenario class's profile.
        _tech_config(self)
        from_tree(PathlossParams, self.pathloss or {})
        if "profile" in (self.pathloss or {}):
            raise ValueError("pathloss.profile cannot be set: the scenario class sets it")
        if "file" in self.scenario:  # a saved scenario fixes every node
            default = {f.name: f.default for f in fields(self)}
            ignored = [k for k in self.scenario if k != "file"] + [
                s.name for s in SETTINGS if s.generator and (
                    s.name == self.sweep_axis or
                    s.name in default and getattr(self, s.name) != default[s.name])]
            if ignored:
                raise ValueError(f"{', '.join(ignored)} cannot change scenario "
                                 f"file {self.scenario['file']!r}")
        rooms = self.scenario.get("n_rooms")
        office = self.scenario.get("generator") == "walled_office"
        if office != (rooms is not None) or office and (rooms < 2 or rooms % 2):
            raise ValueError(f"scenario.n_rooms cannot be {rooms!r}: walled_office needs "
                             "n_rooms (--n-rooms), even and >= 2; no other generator has rooms")
        if self.sector_width_deg is not None:
            try:  # the sector's own rule
                Sector(self.sector_orientation_deg, self.sector_width_deg)
            except ValueError as exc:
                raise ValueError(f"sector_width_deg: {exc}") from None
        elif self.sector_orientation_deg:
            raise ValueError("sector_orientation_deg needs sector_width_deg")


def build_scenario(config: RunConfig) -> Scenario:
    """The scenario file, which fixes every node, or the generated scenario."""
    spec = dict(config.scenario)
    if "file" in spec:
        with open(spec["file"]) as fh:
            return from_tree(Scenario, json.load(fh))
    scenario = GENERATORS[spec.pop("generator")](
        **spec, seed=config.seeds.topology, antennas=config.antennas, power_db=config.power_db)
    if config.sector_width_deg is not None:
        sector = Sector(config.sector_orientation_deg, config.sector_width_deg)
        scenario = replace(scenario, aps=tuple(replace(ap, sector=sector) for ap in scenario.aps))
    return scenario


def _tech_config(config: RunConfig) -> rates.TechConfig:
    tree = {"technology": config.technology, "rate_mode": config.rate_mode}
    if config.mcs_table:
        tree["mcs_table"] = config.mcs_table
    return from_tree(rates.TechConfig, tree)


def _pathloss_params(config: RunConfig, scenario: Scenario) -> PathlossParams:
    base = asdict(PathlossParams.for_scenario(scenario.scenario_class))
    return from_tree(PathlossParams, {**base, **(config.pathloss or {})})


@dataclass
class EvaluationResult:
    report: rates.RateReport
    scenario: Scenario
    gains: GainMatrix
    tech: rates.TechConfig
    groups: dict[int, rates.ChannelGroups]  # by channel: every technology's groups and chain
    plan: radio_plan.ChannelPlan | None = None
    assoc: radio_plan.AssociationMap | None = None
    graph: csma.ContentionGraph | None = None
    cluster_plan: radio_plan.ClusterPlan | None = None
    # MU-MIMO: channel -> {S: (state, active group with users) pairs that
    # chose S}; a pooled channel has one state, so S counts its clusters.
    stream_choice: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class _StageError(RuntimeError):
    pass


@contextmanager
def _stage(label: str):
    """Wrap stage errors with the pipeline stage that raised them."""
    try:
        yield
    except _StageError:
        raise
    except Exception as exc:
        raise _StageError(f"[{label}] {exc}") from exc


def evaluate(config: RunConfig) -> EvaluationResult:
    """Full pipeline: scenario -> gains -> plan -> MAC -> rates -> report."""
    echo = asdict(config)
    with _stage("scenario"):
        scenario = build_scenario(config)
    with _stage("pathloss"):
        pl_params = _pathloss_params(config, scenario)
        echo["resolved_pathloss"] = asdict(pl_params)
        gains = gain_matrix(scenario, pl_params, config.seeds.shadowing)
    tech = _tech_config(config)
    channels = radio_plan.channel_preset(config.channelization)
    aps, n_users = scenario.aps, scenario.n_users
    plan = assoc = graph = cluster_plan = None
    notes = []
    if tech.technology == rates.Technology.DISTRIBUTED_MU_MIMO:
        with _stage("clusters"):
            cluster_plan = radio_plan.build_clusters(aps, config.n_clusters, channels,
                                                     config.seeds.plan)
            radio_plan.associate_users_to_clusters(gains, aps, cluster_plan,
                                                   config.seeds.plan)
            groups = rates.cluster_groups(cluster_plan)
        zero_rate, attached = cluster_plan.zero_rate_users, "to cluster 0"
        blind = [(c, int((gains.ap_to_ut[np.ix_(tx, cell)] == 0).any(axis=0).sum()))
                 for ch in groups.values() for c, tx, cell in zip(ch.ids, ch.groups, ch.cells)]
        notes += [f"cluster {c}: {n} users are outside some of its APs' sectors; pooled "
                  "zero-forcing still counts all its antennas for them" for c, n in blind if n]
        if len(cluster_plan.clusters) > len(channels):
            notes.append(
                "co-channel clusters transmit concurrently; inter-cluster "
                "interference uses summed received powers from foreign APs")
    else:
        with _stage("channel-plan"):
            plan = radio_plan.assign_channels(gains, aps, channels, config.seeds.plan)
        with _stage("association"):
            peak, snr = rates.peak_rate_matrix(gains, aps, tech)
            assoc = radio_plan.associate_users(peak, config.seeds.plan,
                                               fallback_metric=snr)
        zero_rate, attached = assoc.zero_rate_users, "by raw SNR"
        with _stage("contention"):
            graph = csma.build_contention_graph(gains, plan, aps, config.cca_db)
            groups = rates.ap_groups(
                assoc, csma.channel_ctmcs(graph, config.rho, cap=config.state_cap))
        notes += [f"channel {ch}: more than {config.state_cap} independent sets; "
                  f"chain uses its {c.chain.n_states} maximal independent sets only"
                  for ch, c in groups.items() if c.chain.mode == csma.CtmcMode.MAXIMAL_ONLY]
    if zero_rate:
        notes.append(f"{len(zero_rate)} zero-rate users attached {attached}")
    stream_choice: dict = {}
    with _stage("rates"):
        avg = np.zeros(n_users)
        for ch_id, channel in groups.items():
            ch_avg, streams = rates.chain_average_rates(gains, aps, channel, tech, n_users)
            avg += ch_avg
            if tech.technology != rates.Technology.SU_BEAMFORMING:
                stream_choice[ch_id] = streams
    with _stage("report"):
        serving = np.zeros(n_users, dtype=int)
        width = np.zeros(n_users)
        width_of = {c.id: c.width_hz for c in channels}
        for ch_id, channel in groups.items():
            for label, cell in zip(channel.ids, channel.cells):
                serving[list(cell)] = label
                width[list(cell)] = width_of[ch_id]
        report = rates.throughput_report(
            avg, serving, width, tech,
            overhead_discount=config.overhead_discount, config=echo,
            outage_threshold=config.outage_threshold_bps)
    return EvaluationResult(
        report=report, scenario=scenario, gains=gains, tech=tech, groups=groups,
        plan=plan, assoc=assoc, graph=graph, cluster_plan=cluster_plan,
        stream_choice=stream_choice, notes=notes)


# ---------------------------------------------------------------------------
# File emission

def _write(out_dir: str | Path, echo: dict, files: dict) -> dict[str, Path]:
    """Write {path key: (file name, body)} under out_dir; return the paths. A (columns,
    rows) body is a CSV (config line, rows as iterated, floats %.10g); else JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, body in files.values():
        with open(out / name, "w", newline="") as fh:
            if isinstance(body, tuple):
                fh.write("# config=" + json.dumps(echo, sort_keys=True, default=str) + "\n")
                writer = csv.writer(fh)
                writer.writerow(body[0])
                writer.writerows([f"{v:.10g}" if isinstance(v, float) else v for v in row]
                                 for row in body[1])
            else:
                json.dump(body, fh, indent=2, sort_keys=True, default=str)
    return {key: out / name for key, (name, _) in files.items()}


def write_report(result: EvaluationResult, out_dir: str | Path) -> dict[str, Path]:
    report = result.report
    return _write(out_dir, report.config, {
        "report": ("report.csv", (
            ["ut_id", "serving", "spectral_efficiency_bps_hz", "throughput_bps"],
            zip(range(report.throughput_bps.size), report.serving.tolist(),
                report.spectral_efficiency.tolist(), report.throughput_bps.tolist()))),
        "cdf": ("cdf.csv", (["throughput_bps", "fraction"],
                            zip(report.cdf_values.tolist(), report.cdf_fractions.tolist()))),
        "summary": ("summary.json", {"config": report.config, "summary": report.summary,
                                     "notes": result.notes}),
    })


def _state_rows(groups: dict[int, rates.ChannelGroups]):
    """(channel, member bitmask, probability) of every chain state, one row
    block at a time: a state row plus ord("0") is its mask's ASCII bytes."""
    for ch_id in sorted(groups):
        model = groups[ch_id].chain
        width = model.n_members
        for block in rates.row_blocks(model.n_states, width):
            masks = (model.rows(block) + ord("0")).view(f"S{width}").ravel()
            yield from zip(itertools.repeat(ch_id), map(bytes.decode, masks),
                           map(float, model.pi(block)))


def dump_artifacts(result: EvaluationResult, out_dir: str | Path) -> None:
    """Optional intermediate dumps: gains, plan, association, contention, chain."""
    g, clusters = result.gains, result.cluster_plan
    files = {
        "gains_ap_ut": ("gains_ap_ut.csv", (["ap_id", "ut_id", "gain"], (
            (i, k, v) for i, row in enumerate(g.ap_to_ut) for k, v in enumerate(row.tolist())))),
        "gains_ap_ap": ("gains_ap_ap.csv", (["tx_ap", "rx_ap", "gain"], (
            (i, j, v) for i, row in enumerate(g.ap_to_ap) for j, v in enumerate(row.tolist())
            if i != j))),
    }
    if result.plan is not None:
        files["channel_plan"] = ("channel_plan.csv", (
            ["ap_id", "channel_id"], sorted(result.plan.ap_channel.items())))
        files["association"] = ("association.csv", (
            ["ut_id", "ap_id"], sorted(result.assoc.serving_ap.items())))
    if result.graph is not None:
        files["contention_edges"] = ("contention_edges.csv", (
            ["ap_i", "ap_j"], result.graph.edges()))
        files["ctmc_states"] = ("ctmc_states.csv", (
            ["channel_id", "state_bitmask", "probability"], _state_rows(result.groups)))
    if clusters is not None:
        files["clusters"] = ("clusters.csv", (
            ["cluster", "channel_id", "ap_ids"],
            [(ci, c.channel_id, " ".join(map(str, c.ap_ids)))
             for ci, c in enumerate(clusters.clusters)]))
        files["cluster_association"] = ("cluster_association.csv", (
            ["ut_id", "cluster"], sorted(clusters.user_cluster.items())))
    _write(out_dir, result.report.config, files)


def resolve_sweep_point(config: RunConfig, value) -> RunConfig:
    """Resolved single-run config for one sweep point (no sweep fields)."""
    tree = {**asdict(config), "sweep_axis": None, "sweep_values": []}
    parent, key = SETTING[config.sweep_axis].slot(tree)
    parent[key] = value
    return RunConfig(**tree)


@dataclass
class SweepResult:
    axis: str
    values: list
    summaries: dict          # axis value -> summary dict
    errors: dict             # axis value -> error string
    point_results: dict      # axis value -> EvaluationResult


def sweep(config: RunConfig) -> SweepResult:
    """Evaluate each sweep point in turn (seeds shared), collecting failures."""
    if config.sweep_axis is None:
        raise ValueError("sweep needs a sweep_axis")
    values = list(config.sweep_values)
    errors, results = {}, {}
    for v in values:
        try:
            results[v] = evaluate(resolve_sweep_point(config, v))
        except Exception as exc:  # per-point failures recorded
            errors[v] = str(exc)
    summaries = {v: res.report.summary for v, res in results.items()}
    return SweepResult(axis=config.sweep_axis, values=values,
                       summaries=summaries, errors=errors, point_results=results)


def write_sweep(config: RunConfig, result: SweepResult,
                out_dir: str | Path) -> dict[str, Path]:
    paths = {}
    for v in result.values:
        if v in result.point_results:
            paths[f"point_{v}"] = Path(out_dir) / f"point_{result.axis}={v}"
            write_report(result.point_results[v], paths[f"point_{v}"])
    echo = asdict(config)
    rows = ((v, *(result.summaries[v][k] for k in ("mean", "median", "p5", "outage")))
            for v in result.values if v in result.summaries)
    return paths | _write(out_dir, echo, {
        "sweep": ("sweep.csv", ([result.axis, "mean_throughput_bps", "median_throughput_bps",
                                 "p5_throughput_bps", "outage"], rows)),
        "summary": ("sweep_summary.json", {
            "config": echo, "errors": result.errors,
            "summaries": {str(k): v for k, v in result.summaries.items()}}),
    })


@dataclass
class ValidationResult:
    deterministic: EvaluationResult
    oracle_report: oracle.OracleReport
    det_rates: np.ndarray
    mc_rates: np.ndarray
    abs_error: np.ndarray   # |mc - det|
    z: np.ndarray           # (mc - det) / std_error: 0 where both are 0, NaN
                            # where only the error is (no draw reached the user)

    def z_summary(self) -> dict:
        """Mean and max |z| and the share above 3, over the users with a z.
        A sampled chain can leave a user's group off in every drawn state,
        so that no draw measured it; their count is added when nonzero."""
        abs_z = np.abs(self.z[~np.isnan(self.z)])
        stats = ((np.mean(abs_z), np.max(abs_z), np.mean(abs_z > 3.0)) if abs_z.size
                 else (np.nan,) * 3)
        summary = dict(zip(("mean_abs_z", "max_abs_z", "share_abs_z_above_3"),
                           map(float, stats)))
        if abs_z.size < self.z.size:
            summary["users_without_z"] = self.z.size - abs_z.size
        return summary


def mc_validate(config: RunConfig) -> ValidationResult:
    """Run the fading oracle on the deterministic evaluation's own groups.

    The comparison is in Gaussian rates (the oracle's native domain), and
    the echo records that Gaussian run: a quantized request is echoed with
    rate_mode "gaussian", the mode that was compared.
    """
    det = evaluate(replace(config, rate_mode="gaussian"))
    # Looked up at call time, so a caller that rebinds oracle.mc_* sees it.
    simulate = {rates.Technology.SU_BEAMFORMING: oracle.mc_su_rate,
                rates.Technology.CONCENTRATED_MU_MIMO: oracle.mc_mu_rate,
                rates.Technology.DISTRIBUTED_MU_MIMO: oracle.mc_dist_rate}[det.tech.technology]
    orep = simulate(det.scenario, det.gains, det.groups, config.oracle, config.seeds.oracle)
    det_rates = det.report.spectral_efficiency
    diff = orep.mean_rate - det_rates
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(orep.std_error > 0, diff / orep.std_error,
                     np.where(diff == 0, 0.0, np.nan))
    return ValidationResult(deterministic=det, oracle_report=orep,
                            det_rates=det_rates, mc_rates=orep.mean_rate,
                            abs_error=np.abs(diff), z=z)


def write_validation(result: ValidationResult, out_dir: str | Path) -> dict[str, Path]:
    echo = result.deterministic.report.config
    files = {"comparison": ("comparison.csv", (
        ["ut_id", "deterministic_bps_hz", "monte_carlo_bps_hz", "mc_std_error",
         "abs_error", "z"],
        zip(range(result.det_rates.size), result.det_rates.tolist(),
            result.mc_rates.tolist(), result.oracle_report.std_error.tolist(),
            result.abs_error.tolist(), result.z.tolist())))}
    for name, arr in (("deterministic", result.det_rates),
                      ("monte_carlo", result.mc_rates)):
        v, f = rates.throughput_cdf(arr)
        files[f"cdf_{name}"] = (f"cdf_{name}.csv", (["rate_bps_hz", "fraction"],
                                                   zip(v.tolist(), f.tolist())))
    files["summary"] = ("validation_summary.json", {
        "config": echo,
        "mean_deterministic_bps_hz": float(np.mean(result.det_rates)),
        "mean_monte_carlo_bps_hz": float(np.mean(result.mc_rates)),
        "mean_abs_error": float(np.mean(result.abs_error)),
        "max_abs_error": float(np.max(result.abs_error)),
        **result.z_summary(),
        "n_realizations": result.oracle_report.n_realizations,
        "realizations_drawn": result.oracle_report.realizations_drawn,
        "resample_events": result.oracle_report.resample_events,
    })
    return _write(out_dir, echo, files)

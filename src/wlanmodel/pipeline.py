"""Experiment orchestration: run configs, the evaluation pipeline, sweeps,
and Monte Carlo validation, with CSV/JSON emission.

Every output file embeds the fully resolved run configuration (including
all seeds) so results can be reproduced from any single artifact.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import csma, metrics, oracle, radio_plan, rates
from .propagation import GainMatrix, PathlossParams, gain_matrix
from .scenario import GENERATORS, Scenario, Sector

THREADS_ENV = "WLANMODEL_THREADS"

SWEEP_AXES = ("n_aps", "n_users", "cca_db", "power_db", "channelization",
              "n_clusters", "rho", "antennas")
#: Sweep axes that set one RunConfig field, with the field's type.
_FIELD_AXES = {"power_db": float, "channelization": str, "n_clusters": int,
               "rho": float, "antennas": int}


@dataclass(frozen=True)
class Seeds:
    topology: int = 1
    plan: int = 2
    shadowing: int = 3
    oracle: int = 4


@dataclass
class RunConfig:
    scenario: dict = field(default_factory=lambda: {
        "generator": "conference_hall", "n_aps": 4, "n_users": 20})
    technology: str = "su_beamforming"
    channelization: str = "4x20"
    cca_db: float | None = 10.0
    power_db: float = 90.0
    antennas: int = 4
    rho: float = csma.DEFAULT_RHO
    rate_mode: str = "gaussian"
    n_clusters: int = 1
    overhead_discount: float = 1.0
    sector_width_deg: float | None = None   # sectorize every AP when set
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
        if self.sweep_axis is not None and self.sweep_axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.sweep_axis!r} "
                             f"(choose from {SWEEP_AXES})")
        if (self.sweep_axis is None) != (not self.sweep_values):
            raise ValueError("sweep_axis and sweep_values must come together")
        rates.Technology(self.technology)
        rates.RateMode(self.rate_mode)
        if not 0.0 < self.overhead_discount <= 1.0:
            raise ValueError("overhead_discount must be in (0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        if "seeds" in data and isinstance(data["seeds"], dict):
            data["seeds"] = Seeds(**data["seeds"])
        if "oracle" in data and isinstance(data["oracle"], dict):
            data["oracle"] = oracle.OracleConfig(**data["oracle"])
        if data.get("cca_db") in ("disabled", "none", None):
            data["cca_db"] = None
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def build_scenario(config: RunConfig) -> tuple[Scenario, dict]:
    """Materialize the scenario and any extras carried by a scenario file."""
    spec = dict(config.scenario)
    if "file" in spec:
        with open(spec["file"]) as fh:
            raw = json.load(fh)
        extras = {k: raw.get(k) for k in ("pathloss", "mcs_table") if k in raw}
        return _apply_sector(Scenario.from_dict(raw), config), extras
    name = spec.pop("generator")
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r} "
                         f"(choose from {sorted(GENERATORS)})")
    spec.setdefault("seed", config.seeds.topology)
    spec.setdefault("antennas", config.antennas)
    spec.setdefault("power_db", config.power_db)
    return _apply_sector(GENERATORS[name](**spec), config), {}


def _apply_sector(scenario: Scenario, config: RunConfig) -> Scenario:
    if config.sector_width_deg is None:
        return scenario
    sector = Sector(orientation_deg=config.sector_orientation_deg,
                    width_deg=config.sector_width_deg)
    aps = tuple(replace(ap, sector=sector) for ap in scenario.aps)
    return replace(scenario, aps=aps)


def _tech_config(config: RunConfig, extras: dict) -> rates.TechConfig:
    table = metrics.DEFAULT_MCS_TABLE
    table_spec = config.mcs_table or extras.get("mcs_table")
    if table_spec:
        table = metrics.McsTable.from_dict(table_spec)
    return rates.TechConfig(
        technology=rates.Technology(config.technology),
        rate_mode=rates.RateMode(config.rate_mode),
        mcs_table=table,
    )


def _pathloss_params(config: RunConfig, scenario: Scenario,
                     extras: dict) -> PathlossParams:
    base = PathlossParams.for_scenario(scenario.scenario_class)
    overrides = config.pathloss or extras.get("pathloss")
    if overrides:
        base = PathlossParams(**{**base.to_dict(), **overrides})
    return base


@dataclass
class EvaluationResult:
    report: rates.RateReport
    scenario: Scenario
    gains: GainMatrix
    tech: rates.TechConfig
    plan: radio_plan.ChannelPlan | None = None
    assoc: radio_plan.AssociationMap | None = None
    graph: csma.ContentionGraph | None = None
    mac: dict[int, csma.ChannelCtmc] | None = None
    cluster_plan: radio_plan.ClusterPlan | None = None
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
    echo = config.to_dict()
    with _stage("scenario"):
        scenario, extras = build_scenario(config)
    with _stage("pathloss"):
        pl_params = _pathloss_params(config, scenario, extras)
        echo["resolved_pathloss"] = pl_params.to_dict()
        gains = gain_matrix(scenario, pl_params, config.seeds.shadowing)
    tech = _tech_config(config, extras)
    channels = radio_plan.channel_preset(config.channelization)

    if tech.technology == rates.Technology.DISTRIBUTED_MU_MIMO:
        return _evaluate_distributed(config, scenario, gains, tech, channels, echo)
    return _evaluate_contended(config, scenario, gains, tech, channels, echo)


def _evaluate_contended(config, scenario, gains, tech, channels, echo):
    aps = scenario.aps
    n_users = scenario.n_users
    with _stage("channel-plan"):
        plan = radio_plan.assign_channels(gains, aps, channels, config.seeds.plan)
    with _stage("association"):
        peak, snr = rates.peak_rate_matrix(gains, aps, tech)
        assoc = radio_plan.associate_users(peak, config.seeds.plan,
                                           fallback_metric=snr)
    with _stage("contention"):
        graph = csma.build_contention_graph(gains, plan, aps, config.cca_db)
        # Disabled carrier sensing means nobody defers: single all-on state.
        mode = csma.CtmcMode.NO_CSMA if config.cca_db is None else None
        mac = csma.channel_ctmcs(graph, config.rho, mode, config.state_cap)
    notes = [f"channel {ch}: more than {config.state_cap} independent sets; "
             f"chain uses its {c.model.n_states} maximal independent sets only"
             for ch, c in sorted(mac.items())
             if c.model.mode == csma.CtmcMode.MAXIMAL_ONLY]
    stream_choice: dict = {}
    with _stage("rates"):
        avg = np.zeros(n_users)
        for ch_id in sorted(mac):
            ctmc = mac[ch_id]
            members = list(ctmc.members)
            if tech.technology == rates.Technology.SU_BEAMFORMING:
                state_rates = rates.su_channel_state_rates(
                    gains, assoc, aps, members, ctmc.model.states, tech, n_users)
            else:
                state_rates, streams = rates.mu_channel_state_rates(
                    gains, assoc, aps, members, ctmc.model.states, tech, n_users)
                stream_choice[ch_id] = streams
            avg += rates.average_over_ctmc(state_rates, ctmc.model)
    with _stage("report"):
        serving_map = assoc.serving_ap
        serving = np.array([serving_map[k] for k in range(n_users)])
        width = np.array([
            plan.width_hz(plan.ap_channel[serving_map[k]]) for k in range(n_users)])
        if assoc.zero_rate_users:
            notes.append(f"{len(assoc.zero_rate_users)} zero-rate users "
                         "attached by raw SNR")
        report = rates.throughput_report(
            avg, serving, width, tech,
            overhead_discount=config.overhead_discount, config=echo,
            outage_threshold=config.outage_threshold_bps)
    return EvaluationResult(
        report=report, scenario=scenario, gains=gains, tech=tech, plan=plan,
        assoc=assoc, graph=graph, mac=mac, stream_choice=stream_choice,
        notes=notes)


def _evaluate_distributed(config, scenario, gains, tech, channels, echo):
    aps = scenario.aps
    n_users = scenario.n_users
    with _stage("clusters"):
        plan = radio_plan.build_clusters(
            aps, gains, config.n_clusters, channels, config.seeds.plan)
        radio_plan.associate_users_to_clusters(gains, aps, plan, config.seeds.plan)
    notes = []
    if len(plan.clusters) > len(channels):
        notes.append(
            "co-channel clusters transmit concurrently; inter-cluster "
            "interference uses summed received powers from foreign APs")
    stream_choice: dict = {}
    with _stage("rates"):
        avg = np.zeros(n_users)
        serving = np.zeros(n_users, dtype=int)
        width = np.zeros(n_users)
        for ci, cluster in enumerate(plan.clusters):
            users = sorted(u for u, c in plan.user_cluster.items() if c == ci)
            if not users:
                continue
            interf = rates.cluster_interference(gains, aps, plan, ci, users)
            r, s_star = rates.dist_mu_rate(cluster, gains, aps, users, tech, interf)
            avg[users] = r
            serving[users] = ci
            width[users] = dict((c.id, c.width_hz) for c in channels)[cluster.channel_id]
            stream_choice[ci] = s_star
    with _stage("report"):
        report = rates.throughput_report(
            avg, serving, width, tech,
            overhead_discount=config.overhead_discount, config=echo,
            outage_threshold=config.outage_threshold_bps)
    return EvaluationResult(
        report=report, scenario=scenario, gains=gains, tech=tech,
        cluster_plan=plan, stream_choice=stream_choice, notes=notes)


# ---------------------------------------------------------------------------
# File emission

def _header(echo: dict) -> str:
    return "# config=" + json.dumps(echo, sort_keys=True, default=str)


def _write_csv(path: Path, echo: dict, columns: list[str], rows):
    with open(path, "w", newline="") as fh:
        fh.write(_header(echo) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return v


def write_report(result: EvaluationResult, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = result.report
    echo = report.config
    paths = {}
    n = report.throughput_bps.size
    paths["report"] = out / "report.csv"
    _write_csv(
        paths["report"], echo,
        ["ut_id", "serving", "spectral_efficiency_bps_hz", "throughput_bps"],
        [(k, int(report.serving[k]), float(report.spectral_efficiency[k]),
          float(report.throughput_bps[k])) for k in range(n)])
    paths["cdf"] = out / "cdf.csv"
    _write_csv(
        paths["cdf"], echo, ["throughput_bps", "fraction"],
        zip(report.cdf_values.tolist(), report.cdf_fractions.tolist()))
    paths["summary"] = out / "summary.json"
    with open(paths["summary"], "w") as fh:
        json.dump({"config": echo, "summary": report.summary,
                   "notes": result.notes}, fh, indent=2, sort_keys=True,
                  default=str)
    return paths


def dump_artifacts(result: EvaluationResult, out_dir: str | Path) -> None:
    """Optional intermediate dumps: gains, plan, association, contention, chain."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = result.report.config
    g = result.gains
    _write_csv(out / "gains_ap_ut.csv", echo, ["ap_id", "ut_id", "gain"],
               [(i, k, float(g.ap_to_ut[i, k]))
                for i in range(g.ap_to_ut.shape[0])
                for k in range(g.ap_to_ut.shape[1])])
    _write_csv(out / "gains_ap_ap.csv", echo, ["tx_ap", "rx_ap", "gain"],
               [(i, j, float(g.ap_to_ap[i, j]))
                for i in range(g.ap_to_ap.shape[0])
                for j in range(g.ap_to_ap.shape[0]) if i != j])
    if result.plan is not None:
        _write_csv(out / "channel_plan.csv", echo, ["ap_id", "channel_id"],
                   sorted(result.plan.ap_channel.items()))
        _write_csv(out / "association.csv", echo, ["ut_id", "ap_id"],
                   sorted(result.assoc.serving_ap.items()))
    if result.graph is not None:
        _write_csv(out / "contention_edges.csv", echo, ["ap_i", "ap_j"],
                   result.graph.edges())
        rows = []
        for ch_id in sorted(result.mac):
            ctmc = result.mac[ch_id]
            for s in range(ctmc.model.n_states):
                mask = "".join(str(int(b)) for b in ctmc.model.states[s])
                rows.append((ch_id, mask, float(ctmc.model.pi[s])))
        _write_csv(out / "ctmc_states.csv", echo,
                   ["channel_id", "state_bitmask", "probability"], rows)
    if result.cluster_plan is not None:
        _write_csv(out / "clusters.csv", echo,
                   ["cluster", "channel_id", "ap_ids"],
                   [(ci, c.channel_id, " ".join(map(str, c.ap_ids)))
                    for ci, c in enumerate(result.cluster_plan.clusters)])
        _write_csv(out / "cluster_association.csv", echo, ["ut_id", "cluster"],
                   sorted(result.cluster_plan.user_cluster.items()))


def resolve_sweep_point(config: RunConfig, value) -> RunConfig:
    """Resolved single-run config for one sweep point (no sweep fields)."""
    axis = config.sweep_axis
    point = replace(config, sweep_axis=None, sweep_values=[])
    if axis in ("n_aps", "n_users"):
        return replace(point, scenario={**config.scenario, axis: int(value)})
    if axis == "cca_db":
        return replace(point, cca_db=None if value in ("disabled", None) else float(value))
    if axis not in _FIELD_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return replace(point, **{axis: _FIELD_AXES[axis](value)})


@dataclass
class SweepResult:
    axis: str
    values: list
    summaries: dict          # axis value -> summary dict
    errors: dict             # axis value -> error string
    point_results: dict      # axis value -> EvaluationResult


def sweep(config: RunConfig) -> SweepResult:
    """Evaluate each sweep point (seeds shared), collecting failures.

    A config without a sweep axis degenerates to a single evaluation,
    reported as the one point of a trivial sweep.
    """
    if config.sweep_axis is None:
        result = evaluate(config)
        return SweepResult(axis="single", values=["run"],
                           summaries={"run": result.report.summary},
                           errors={}, point_results={"run": result})
    values = list(config.sweep_values)
    threads = int(os.environ.get(THREADS_ENV, "1"))
    if threads < 1:
        raise ValueError(f"{THREADS_ENV} must be at least 1, got {threads}")
    errors, results = {}, {}

    def _run(value):
        return evaluate(resolve_sweep_point(config, value))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {v: pool.submit(_run, v) for v in values}
        for v in values:
            try:
                results[v] = futures[v].result()
            except Exception as exc:  # per-point failures recorded
                errors[v] = str(exc)
    summaries = {v: res.report.summary for v, res in results.items()}
    return SweepResult(axis=config.sweep_axis, values=values,
                       summaries=summaries, errors=errors, point_results=results)


def write_sweep(config: RunConfig, result: SweepResult,
                out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = config.to_dict()
    paths = {}
    for v in result.values:
        if v in result.point_results:
            paths[f"point_{v}"] = out / f"point_{result.axis}={v}"
            write_report(result.point_results[v], paths[f"point_{v}"])
    rows = []
    for v in result.values:
        s = result.summaries.get(v)
        if s is None:
            continue
        rows.append((v, s["mean"], s["median"], s["p5"], s["outage"]))
    paths["sweep"] = out / "sweep.csv"
    _write_csv(paths["sweep"], echo,
               [result.axis, "mean_throughput_bps", "median_throughput_bps",
                "p5_throughput_bps", "outage"], rows)
    paths["summary"] = out / "sweep_summary.json"
    with open(paths["summary"], "w") as fh:
        json.dump({"config": echo, "errors": result.errors,
                   "summaries": {str(k): v for k, v in result.summaries.items()}},
                  fh, indent=2, sort_keys=True, default=str)
    return paths


@dataclass
class ValidationResult:
    deterministic: EvaluationResult
    oracle_report: oracle.OracleReport
    det_rates: np.ndarray
    mc_rates: np.ndarray
    abs_error: np.ndarray   # |mc - det|
    z: np.ndarray           # (mc - det) / std_error, 0 where both are 0


def mc_validate(config: RunConfig) -> ValidationResult:
    """Run the fading oracle next to the deterministic model on one plan.

    The comparison is in Gaussian rates (the oracle's native domain); the
    requested rate mode is restored in the echo for traceability.
    """
    det = evaluate(replace(config, rate_mode="gaussian"))
    ocfg, seed = config.oracle, config.seeds.oracle
    tech = det.tech.technology
    if tech == rates.Technology.SU_BEAMFORMING:
        orep = oracle.mc_su_rate(det.scenario, det.gains, det.plan, det.assoc,
                                 det.mac, ocfg, seed)
    elif tech == rates.Technology.CONCENTRATED_MU_MIMO:
        orep = oracle.mc_mu_rate(det.scenario, det.gains, det.plan, det.assoc,
                                 det.mac, ocfg, seed)
    else:
        orep = oracle.mc_dist_rate(det.scenario, det.gains, det.cluster_plan, ocfg, seed)
    det_rates = det.report.spectral_efficiency
    diff = orep.mean_rate - det_rates
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where((diff == 0) & (orep.std_error == 0), 0.0, diff / orep.std_error)
    return ValidationResult(deterministic=det, oracle_report=orep,
                            det_rates=det_rates, mc_rates=orep.mean_rate,
                            abs_error=np.abs(diff), z=z)


def write_validation(result: ValidationResult, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = result.deterministic.report.config
    paths = {"comparison": out / "comparison.csv"}
    _write_csv(paths["comparison"], echo,
               ["ut_id", "deterministic_bps_hz", "monte_carlo_bps_hz",
                "mc_std_error", "abs_error", "z"],
               zip(range(result.det_rates.size), result.det_rates.tolist(),
                   result.mc_rates.tolist(),
                   result.oracle_report.std_error.tolist(),
                   result.abs_error.tolist(), result.z.tolist()))
    for name, arr in (("deterministic", result.det_rates),
                      ("monte_carlo", result.mc_rates)):
        v, f = rates.throughput_cdf(arr)
        paths[f"cdf_{name}"] = out / f"cdf_{name}.csv"
        _write_csv(paths[f"cdf_{name}"], echo, ["rate_bps_hz", "fraction"],
                   zip(v.tolist(), f.tolist()))
    paths["summary"] = out / "validation_summary.json"
    abs_z = np.abs(result.z)
    with open(paths["summary"], "w") as fh:
        json.dump({
            "config": echo,
            "mean_deterministic_bps_hz": float(np.mean(result.det_rates)),
            "mean_monte_carlo_bps_hz": float(np.mean(result.mc_rates)),
            "mean_abs_error": float(np.mean(result.abs_error)),
            "max_abs_error": float(np.max(result.abs_error)),
            "mean_abs_z": float(np.mean(abs_z)),
            "max_abs_z": float(np.max(abs_z)),
            "share_abs_z_above_3": float(np.mean(abs_z > 3.0)),
            "n_realizations": result.oracle_report.n_realizations,
            "resample_events": result.oracle_report.resample_events,
        }, fh, indent=2, sort_keys=True, default=str)
    return paths

"""The output writers against the per-file writers they replaced.

Each writer once opened its own files, wrote its own config line and
formatted its own floats, and the artifact dump built every row in a list
before writing any. Those writers are kept here as references: the streamed
writers must produce the same files, byte for byte, for a report, every
artifact, a validation run and a two-point sweep. README "Outputs" must
name every file they write.
"""

import csv
import json
import re
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from wlanmodel import pipeline, rates
from wlanmodel.oracle import OracleConfig

_HALL = {"generator": "conference_hall", "n_aps": 8, "n_users": 60}
_FLOOR = {"generator": "open_floor", "n_aps": 12, "n_users": 90}

CONFIGS = {
    "su": dict(scenario=_HALL, technology="su_beamforming"),
    "mu_quantized_no_cca": dict(scenario=_HALL, technology="concentrated_mu_mimo",
                                rate_mode="quantized", cca_db=None),
    "dist_co_channel": dict(scenario=_FLOOR, technology="distributed_mu_mimo",
                            channelization="2x40", n_clusters=4, rate_mode="quantized"),
    "su_sectorized": dict(scenario=_HALL, technology="su_beamforming",
                          sector_width_deg=90.0, cca_db=None),
}


def ref_header(echo):
    return "# config=" + json.dumps(echo, sort_keys=True, default=str)


def ref_fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return v


def ref_write_csv(path, echo, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(ref_header(echo) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([ref_fmt(v) for v in row])


def ref_write_report(result, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = result.report
    echo = report.config
    paths = {}
    n = report.throughput_bps.size
    paths["report"] = out / "report.csv"
    ref_write_csv(
        paths["report"], echo,
        ["ut_id", "serving", "spectral_efficiency_bps_hz", "throughput_bps"],
        [(k, int(report.serving[k]), float(report.spectral_efficiency[k]),
          float(report.throughput_bps[k])) for k in range(n)])
    paths["cdf"] = out / "cdf.csv"
    ref_write_csv(
        paths["cdf"], echo, ["throughput_bps", "fraction"],
        zip(report.cdf_values.tolist(), report.cdf_fractions.tolist()))
    paths["summary"] = out / "summary.json"
    with open(paths["summary"], "w") as fh:
        json.dump({"config": echo, "summary": report.summary,
                   "notes": result.notes}, fh, indent=2, sort_keys=True,
                  default=str)
    return paths


def ref_dump_artifacts(result, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = result.report.config
    g = result.gains
    ref_write_csv(out / "gains_ap_ut.csv", echo, ["ap_id", "ut_id", "gain"],
                  [(i, k, float(g.ap_to_ut[i, k]))
                   for i in range(g.ap_to_ut.shape[0])
                   for k in range(g.ap_to_ut.shape[1])])
    ref_write_csv(out / "gains_ap_ap.csv", echo, ["tx_ap", "rx_ap", "gain"],
                  [(i, j, float(g.ap_to_ap[i, j]))
                   for i in range(g.ap_to_ap.shape[0])
                   for j in range(g.ap_to_ap.shape[0]) if i != j])
    if result.plan is not None:
        ref_write_csv(out / "channel_plan.csv", echo, ["ap_id", "channel_id"],
                      sorted(result.plan.ap_channel.items()))
        ref_write_csv(out / "association.csv", echo, ["ut_id", "ap_id"],
                      sorted(result.assoc.serving_ap.items()))
    if result.graph is not None:
        ref_write_csv(out / "contention_edges.csv", echo, ["ap_i", "ap_j"],
                      result.graph.edges())
        rows = []
        for ch_id in sorted(result.groups):
            chain = result.groups[ch_id].chain
            states, pi = chain.rows(), chain.pi()
            for s in range(chain.n_states):
                mask = "".join(str(int(b)) for b in states[s])
                rows.append((ch_id, mask, float(pi[s])))
        ref_write_csv(out / "ctmc_states.csv", echo,
                      ["channel_id", "state_bitmask", "probability"], rows)
    if result.cluster_plan is not None:
        ref_write_csv(out / "clusters.csv", echo,
                      ["cluster", "channel_id", "ap_ids"],
                      [(ci, c.channel_id, " ".join(map(str, c.ap_ids)))
                       for ci, c in enumerate(result.cluster_plan.clusters)])
        ref_write_csv(out / "cluster_association.csv", echo, ["ut_id", "cluster"],
                      sorted(result.cluster_plan.user_cluster.items()))


def ref_write_sweep(config, result, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = asdict(config)
    paths = {}
    for v in result.values:
        if v in result.point_results:
            paths[f"point_{v}"] = out / f"point_{result.axis}={v}"
            ref_write_report(result.point_results[v], paths[f"point_{v}"])
    rows = []
    for v in result.values:
        s = result.summaries.get(v)
        if s is None:
            continue
        rows.append((v, s["mean"], s["median"], s["p5"], s["outage"]))
    paths["sweep"] = out / "sweep.csv"
    ref_write_csv(paths["sweep"], echo,
                  [result.axis, "mean_throughput_bps", "median_throughput_bps",
                   "p5_throughput_bps", "outage"], rows)
    paths["summary"] = out / "sweep_summary.json"
    with open(paths["summary"], "w") as fh:
        json.dump({"config": echo, "errors": result.errors,
                   "summaries": {str(k): v for k, v in result.summaries.items()}},
                  fh, indent=2, sort_keys=True, default=str)
    return paths


def ref_write_validation(result, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = result.deterministic.report.config
    paths = {"comparison": out / "comparison.csv"}
    ref_write_csv(paths["comparison"], echo,
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
        ref_write_csv(paths[f"cdf_{name}"], echo, ["rate_bps_hz", "fraction"],
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
            "realizations_drawn": result.oracle_report.realizations_drawn,
            "resample_events": result.oracle_report.resample_events,
        }, fh, indent=2, sort_keys=True, default=str)
    return paths


def write_all(evaluated, validated, swept, out, report, dump, validation, sweep):
    """Every output of one config under out, through the given writers."""
    paths = {"run": report(evaluated, out / "run")}
    dump(evaluated, out / "run")
    paths["val"] = validation(validated, out / "val")
    paths["sweep"] = sweep(*swept, out / "sweep")
    return paths


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Per config: (paths returned, directory) from the writers and the references."""
    out = {}
    for name, kwargs in CONFIGS.items():
        config = pipeline.RunConfig(**kwargs)
        evaluated = pipeline.evaluate(config)
        validated = pipeline.mc_validate(pipeline.RunConfig(
            **kwargs, oracle=OracleConfig(n_realizations=50)))
        sweep_config = pipeline.RunConfig(**kwargs, sweep_axis="rho",
                                          sweep_values=[10.0, 100.0])
        swept = (sweep_config, pipeline.sweep(sweep_config))
        base = tmp_path_factory.mktemp(name)
        out[name] = {
            side: (write_all(evaluated, validated, swept, base / side, *writers), base / side)
            for side, writers in (
                ("new", (pipeline.write_report, pipeline.dump_artifacts,
                         pipeline.write_validation, pipeline.write_sweep)),
                ("ref", (ref_write_report, ref_dump_artifacts,
                         ref_write_validation, ref_write_sweep)))}
    return out


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_writers_match_references_byte_for_byte(written, name):
    (new_paths, new_dir), (ref_paths, ref_dir) = written[name]["new"], written[name]["ref"]
    new, ref = _files(new_dir), _files(ref_dir)
    assert sorted(new) == sorted(ref)
    for rel in ref:
        assert new[rel] == ref[rel], rel
    for part in ref_paths:
        assert list(new_paths[part]) == list(ref_paths[part])
        assert [p.relative_to(new_dir) for p in new_paths[part].values()] == \
            [p.relative_to(ref_dir) for p in ref_paths[part].values()]


def test_readme_outputs_name_every_written_file(written):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    outputs = re.search(r"^## Outputs\n(.*?)^## ", readme, re.S | re.M).group(1)
    names = {p.name for side in written.values() for p in _files(side["new"][1])}
    assert "ctmc_states.csv" in names and "clusters.csv" in names
    assert sorted(n for n in names if f"`{n}`" not in outputs) == []


def test_state_dump_streams(tmp_path):
    # 43 344 chain states: the dump may copy one channel's states to form
    # their masks, but must not hold a row for every state.
    result = pipeline.evaluate(pipeline.RunConfig(
        scenario={"generator": "stadium", "n_aps": 100, "n_users": 100}, cca_db=10.0))
    state_bytes = sum(c.chain.n_states * c.chain.n_members for c in result.groups.values())
    assert sum(c.chain.n_states for c in result.groups.values()) == 43_344
    tracemalloc.start()
    try:
        pipeline.dump_artifacts(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < state_bytes + (1 << 20)
    assert len((tmp_path / "ctmc_states.csv").read_text().splitlines()) == 43_344 + 2

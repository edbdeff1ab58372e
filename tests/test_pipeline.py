import json
import math

import numpy as np
import pytest

from wlanmodel import cli, pipeline
from wlanmodel.metrics import DEFAULT_MCS_TABLE
from wlanmodel.oracle import OracleConfig
from wlanmodel.pipeline import RunConfig, Seeds
from wlanmodel.scenario import Scenario


def desk_config(**overrides):
    base = dict(scenario={"generator": "conference_hall", "n_aps": 4, "n_users": 12})
    base.update(overrides)
    return RunConfig(**base)


def test_config_roundtrip_and_validation():
    cfg = desk_config(technology="concentrated_mu_mimo", rate_mode="quantized",
                      cca_db=None, sweep_axis="n_aps", sweep_values=[10, 20])
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        RunConfig(sweep_axis="bogus", sweep_values=[1])
    with pytest.raises(ValueError):
        RunConfig(sweep_axis="n_aps", sweep_values=[])
    with pytest.raises(ValueError):
        RunConfig(technology="laser")
    with pytest.raises(ValueError):
        RunConfig(overhead_discount=1.5)
    assert RunConfig.from_dict({"cca_db": "disabled"}).cca_db is None
    assert RunConfig.from_dict({"oracle": {"n_realizations": 300}}).oracle == \
        OracleConfig(n_realizations=300)


def test_single_link_hand_calculation():
    # One AP, one user, quantized rates, carrier sensing off, no shadowing:
    # throughput = W * ofdm * mcs(g M P) exactly.
    cfg = desk_config(
        scenario={"generator": "conference_hall", "n_aps": 1, "n_users": 1},
        rate_mode="quantized", cca_db=None,
        pathloss={"shadowing_sigma_db": 0.0},
    )
    res = pipeline.evaluate(cfg)
    scen = res.scenario
    d = max(math.dist(scen.aps[0].position, scen.users[0].position), 1.0)
    pl = 46.8 + 18.7 * math.log10(d)
    sinr_db = 90.0 - pl + 10 * math.log10(4)
    eff = 0.0
    for row in DEFAULT_MCS_TABLE.rows:
        if sinr_db >= row.min_snr_db:
            eff = row.efficiency
    expected = 20e6 * 0.65 * eff
    assert res.report.throughput_bps[0] == pytest.approx(expected, rel=1e-9)


def test_evaluate_reproducible():
    cfg = desk_config()
    a = pipeline.evaluate(cfg)
    b = pipeline.evaluate(cfg)
    assert np.array_equal(a.report.throughput_bps, b.report.throughput_bps)
    shifted = desk_config(seeds=Seeds(topology=9, plan=9, shadowing=9, oracle=9))
    c = pipeline.evaluate(shifted)
    assert not np.array_equal(a.report.throughput_bps, c.report.throughput_bps)


def test_distributed_single_cluster_skips_contention():
    cfg = desk_config(technology="distributed_mu_mimo", channelization="1x80")
    res = pipeline.evaluate(cfg)
    assert res.graph is None and res.mac is None
    assert len(res.cluster_plan.clusters) == 1
    assert np.all(res.report.throughput_bps > 0)


def test_distributed_co_channel_clusters_noted_and_slower():
    clean = pipeline.evaluate(desk_config(
        technology="distributed_mu_mimo", channelization="4x20", n_clusters=4))
    crowded = pipeline.evaluate(desk_config(
        technology="distributed_mu_mimo", channelization="2x40", n_clusters=4))
    assert any("co-channel" in n for n in crowded.notes)
    assert not any("co-channel" in n for n in clean.notes)
    assert crowded.report.summary["mean"] < clean.report.summary["mean"] * 1.5


def test_evaluate_outputs_embed_config(tmp_path):
    cfg = desk_config()
    res = pipeline.evaluate(cfg)
    paths = pipeline.write_report(res, tmp_path / "run")
    for name in ("report", "cdf"):
        first = paths[name].read_text().splitlines()[0]
        assert first.startswith("# config=")
        echo = json.loads(first[len("# config="):])
        assert echo["seeds"] == {"topology": 1, "plan": 2, "shadowing": 3,
                                 "oracle": 4}
        assert "resolved_pathloss" in echo
    summary = json.loads(paths["summary"].read_text())
    assert summary["config"]["channelization"] == "4x20"


def test_dump_artifacts(tmp_path):
    res = pipeline.evaluate(desk_config())
    pipeline.dump_artifacts(res, tmp_path)
    for name in ("gains_ap_ut.csv", "channel_plan.csv", "association.csv",
                 "contention_edges.csv", "ctmc_states.csv"):
        assert (tmp_path / name).exists()
    dist = pipeline.evaluate(desk_config(technology="distributed_mu_mimo",
                                         channelization="1x80"))
    pipeline.dump_artifacts(dist, tmp_path / "dist")
    assert (tmp_path / "dist" / "clusters.csv").exists()


def test_sweep_single_point_matches_evaluate_bytes(tmp_path):
    cfg = desk_config(sweep_axis="cca_db", sweep_values=[10.0])
    sweep_res = pipeline.sweep(cfg)
    pipeline.write_sweep(cfg, sweep_res, tmp_path / "sweep")

    resolved = pipeline.resolve_sweep_point(cfg, 10.0)
    single = pipeline.evaluate(resolved)
    pipeline.write_report(single, tmp_path / "single")

    point_dir = tmp_path / "sweep" / "point_cca_db=10.0"
    for name in ("report.csv", "cdf.csv", "summary.json"):
        assert (point_dir / name).read_bytes() == \
            (tmp_path / "single" / name).read_bytes()


def test_sweep_shares_user_placement_across_ap_counts():
    cfg = desk_config(sweep_axis="n_aps", sweep_values=[4, 9])
    res = pipeline.sweep(cfg)
    a = res.point_results[4].scenario
    b = res.point_results[9].scenario
    assert [u.position for u in a.users] == [u.position for u in b.users]


def test_sweep_records_failures_and_continues():
    cfg = desk_config(sweep_axis="channelization",
                      sweep_values=["4x20", "3x30"])
    res = pipeline.sweep(cfg)
    assert "4x20" in res.summaries
    assert "3x30" in res.errors
    assert "channel" in res.errors["3x30"]


def test_sweep_results_do_not_depend_on_thread_count(monkeypatch):
    cfg = desk_config(technology="distributed_mu_mimo", sweep_axis="n_clusters",
                      sweep_values=[1, 2, 3, 99])
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv(pipeline.THREADS_ENV, threads)
        runs[threads] = pipeline.sweep(cfg)
    assert set(runs["1"].errors) == {99}  # more clusters than APs
    assert runs["1"].errors == runs["2"].errors
    assert runs["1"].summaries == runs["2"].summaries
    monkeypatch.setenv(pipeline.THREADS_ENV, "0")
    with pytest.raises(ValueError, match=pipeline.THREADS_ENV):
        pipeline.sweep(cfg)


def test_maximal_only_channels_are_noted(tmp_path):
    # Four mutually sensing APs: 5 independent sets, 4 of them maximal.
    cfg = desk_config(channelization="1x80", state_cap=4)
    res = pipeline.evaluate(cfg)
    assert res.mac[0].model.mode.value == "maximal_only"
    note = (f"channel 0: more than 4 independent sets; chain uses its "
            f"{res.mac[0].model.n_states} maximal independent sets only")
    assert res.notes == [note]
    paths = pipeline.write_report(res, tmp_path)
    assert json.loads(paths["summary"].read_text())["notes"] == [note]
    assert pipeline.evaluate(desk_config(channelization="1x80")).notes == []


def test_stage_labels_in_errors():
    cfg = desk_config(pathloss={"a_db": -40.0, "shadowing_sigma_db": 0.0})
    with pytest.raises(RuntimeError) as err:
        pipeline.evaluate(cfg)
    assert "[pathloss]" in str(err.value)


def test_mc_validate_outputs(tmp_path):
    cfg = desk_config(oracle=OracleConfig(n_realizations=400))
    res = pipeline.mc_validate(cfg)
    assert res.det_rates.shape == res.mc_rates.shape
    paths = pipeline.write_validation(res, tmp_path)
    lines = paths["comparison"].read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1].split(",")[0] == "ut_id"
    assert len(lines) == 2 + res.det_rates.size
    assert lines[1].split(",") == ["ut_id", "deterministic_bps_hz",
                                   "monte_carlo_bps_hz", "mc_std_error",
                                   "abs_error", "z"]
    diff = res.mc_rates - res.det_rates
    se = res.oracle_report.std_error
    assert np.allclose(res.abs_error, np.abs(diff))
    assert np.allclose(res.z[se > 0], diff[se > 0] / se[se > 0])
    assert np.all(res.z[(diff == 0) & (se == 0)] == 0)
    last = lines[-1].split(",")
    k = int(last[0])
    assert float(last[4]) == pytest.approx(res.abs_error[k], rel=1e-9, abs=1e-12)
    assert float(last[5]) == pytest.approx(res.z[k], rel=1e-9, abs=1e-12)
    summary = json.loads(paths["summary"].read_text())
    assert summary["n_realizations"] == 400
    abs_z = np.abs(res.z)
    assert summary["mean_abs_z"] == pytest.approx(abs_z.mean())
    assert summary["max_abs_z"] == pytest.approx(abs_z.max())
    assert summary["share_abs_z_above_3"] == pytest.approx(np.mean(abs_z > 3))
    assert summary["mean_abs_error"] == pytest.approx(res.abs_error.mean())
    assert summary["max_abs_error"] == pytest.approx(res.abs_error.max())
    assert summary["mean_monte_carlo_bps_hz"] == pytest.approx(res.mc_rates.mean())
    # quantized request is run in the Gaussian comparison domain
    q = desk_config(rate_mode="quantized",
                    oracle=OracleConfig(n_realizations=50))
    vres = pipeline.mc_validate(q)
    assert vres.deterministic.tech.rate_mode.value == "gaussian"
    # users at zero rate in both model and oracle score z = 0, not NaN
    silent = pipeline.mc_validate(desk_config(
        power_db=-math.inf, oracle=OracleConfig(n_realizations=50)))
    assert np.all(silent.oracle_report.std_error == 0)
    assert np.array_equal(silent.z, np.zeros(silent.z.size))


def test_scenario_file_roundtrip_through_pipeline(tmp_path):
    path = tmp_path / "scen.json"
    base = pipeline.evaluate(desk_config())
    base.scenario.save(path)
    cfg = desk_config(scenario={"file": str(path)})
    res = pipeline.evaluate(cfg)
    assert res.scenario == base.scenario


def test_scenario_file_carries_pathloss_and_mcs(tmp_path):
    base = pipeline.evaluate(desk_config())
    raw = base.scenario.to_dict()
    raw["pathloss"] = {"a_db": 50.0, "b_db_per_decade": 20.0,
                       "shadowing_sigma_db": 0.0}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(raw))
    res = pipeline.evaluate(desk_config(scenario={"file": str(path)}))
    assert res.report.config["resolved_pathloss"]["a_db"] == 50.0


def test_cli_generate_evaluate_sweep(tmp_path, capsys):
    scen_path = tmp_path / "hall.json"
    rc = cli.main(["generate", "--generator", "conference_hall",
                   "--n-aps", "4", "--n-users", "8", "--seed", "5",
                   "--out", str(scen_path)])
    assert rc == 0
    assert Scenario.load(scen_path).n_aps == 4

    out_dir = tmp_path / "run"
    rc = cli.main(["evaluate", "--scenario-file", str(scen_path),
                   "--rate-mode", "quantized", "--out-dir", str(out_dir),
                   "--dump-artifacts"])
    assert rc == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "gains_ap_ut.csv").exists()
    assert "mean throughput" in capsys.readouterr().out

    rc = cli.main(["sweep", "--generator", "conference_hall", "--n-aps", "4",
                   "--n-users", "8", "--sweep-axis", "power_db",
                   "--sweep-values", "80,90", "--out-dir", str(tmp_path / "sw")])
    assert rc == 0
    assert (tmp_path / "sw" / "sweep.csv").exists()

    rc = cli.main(["mc-validate", "--generator", "conference_hall",
                   "--n-aps", "2", "--n-users", "4", "--realizations", "200",
                   "--out-dir", str(tmp_path / "mv")])
    assert rc == 0
    assert (tmp_path / "mv" / "comparison.csv").exists()


def test_cli_sweep_failure_exit_code(tmp_path):
    rc = cli.main(["sweep", "--generator", "conference_hall", "--n-aps", "4",
                   "--n-users", "8", "--sweep-axis", "channelization",
                   "--sweep-values", "4x20,3x30",
                   "--out-dir", str(tmp_path / "sw")])
    assert rc == 1


def test_cli_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(desk_config(rate_mode="quantized").to_dict()))
    out_dir = tmp_path / "out"
    rc = cli.main(["evaluate", "--config", str(cfg_path),
                   "--power-db", "85", "--out-dir", str(out_dir)])
    assert rc == 0
    echo = json.loads((out_dir / "summary.json").read_text())["config"]
    assert echo["power_db"] == 85.0
    assert echo["rate_mode"] == "quantized"


def test_sweep_without_axis_is_single_evaluation():
    cfg = desk_config()
    res = pipeline.sweep(cfg)
    assert res.values == ["run"] and not res.errors
    single = pipeline.evaluate(cfg)
    point = res.point_results["run"]
    assert np.array_equal(point.report.throughput_bps,
                          single.report.throughput_bps)


def test_cca_sweep_axis_includes_disabled():
    cfg = desk_config(sweep_axis="cca_db",
                      sweep_values=[0.0, 10.0, 30.0, "disabled"])
    res = pipeline.sweep(cfg)
    assert not res.errors
    assert res.point_results["disabled"].mac[0].model.mode.value == "no_csma"
    means = [res.summaries[v]["mean"] for v in cfg.sweep_values]
    assert all(m > 0 for m in means)

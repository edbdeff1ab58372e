import json
import math
import re
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np
import pytest

from wlanmodel import cli, oracle, pipeline, radio_plan, rates
from wlanmodel.metrics import DEFAULT_MCS_TABLE, McsTable
from wlanmodel.oracle import OracleConfig
from wlanmodel.pipeline import RunConfig, Seeds
from wlanmodel.scenario import Scenario, from_tree


# Two rows of the default table: no user can get more than QPSK 1/2.
TWO_ROW_MCS = {"rows": [
    {"index": 0, "modulation": "BPSK", "bits_per_symbol": 1, "code_rate": "1/2",
     "min_snr_db": 2.0},
    {"index": 1, "modulation": "QPSK", "bits_per_symbol": 2, "code_rate": "1/2",
     "min_snr_db": 5.0}]}


def desk_config(**overrides):
    base = dict(scenario={"generator": "conference_hall", "n_aps": 4, "n_users": 12})
    base.update(overrides)
    return RunConfig(**base)


def test_config_roundtrip_and_validation():
    cfg = desk_config(technology="concentrated_mu_mimo", rate_mode="quantized",
                      cca_db=None, sweep_axis="n_aps", sweep_values=[10, 20])
    again = RunConfig(**asdict(cfg))
    assert again == cfg
    with pytest.raises(ValueError):
        RunConfig(sweep_axis="bogus", sweep_values=[1])
    with pytest.raises(ValueError):
        RunConfig(sweep_axis="n_aps", sweep_values=[])
    with pytest.raises(ValueError):
        RunConfig(technology="laser")
    with pytest.raises(ValueError):
        RunConfig(overhead_discount=1.5)
    assert RunConfig(**{"cca_db": "disabled"}).cca_db is None
    assert RunConfig(**{"oracle": {"n_realizations": 300}}).oracle == \
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
    assert res.graph is None and all(g.chain.n_states == 1 for g in res.groups.values())
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


@pytest.mark.parametrize("sector", [90.0, None])
def test_pooled_users_outside_some_sectors_are_noted(tmp_path, sector):
    # With 90-degree sectors the one cluster's APs cannot all reach every
    # user, while its zero-forcing rates still count all of its antennas.
    res = pipeline.evaluate(desk_config(
        scenario={"generator": "conference_hall", "n_aps": 8, "n_users": 60},
        technology="distributed_mu_mimo", sector_width_deg=sector, cca_db=None))
    (cluster,) = res.cluster_plan.clusters
    blind = int((res.gains.ap_to_ut[list(cluster.ap_ids)] == 0).any(axis=0).sum())
    notes = [n for n in res.notes if "sectors" in n]
    assert notes == ([f"cluster 0: {blind} users are outside some of its APs' sectors; "
                      "pooled zero-forcing still counts all its antennas for them"]
                     if sector else [])
    assert blind > 0 if sector else blind == 0
    paths = pipeline.write_report(res, tmp_path)
    assert json.loads(paths["summary"].read_text())["notes"] == res.notes


@pytest.mark.parametrize("sector", [90.0, None])
def test_distributed_zero_rate_users_are_noted(tmp_path, sector):
    # With 90-degree sectors some users are outside every AP's sector: no
    # cluster reaches them, so they join cluster 0 at zero rate, as SU notes.
    cfg = desk_config(scenario={"generator": "conference_hall", "n_aps": 8, "n_users": 60},
                      technology="distributed_mu_mimo", n_clusters=2,
                      sector_width_deg=sector, cca_db=None)
    res = pipeline.evaluate(cfg)
    unreached = np.flatnonzero((res.gains.ap_to_ut == 0).all(axis=0))
    assert unreached.size > 0 if sector else unreached.size == 0
    assert res.cluster_plan.zero_rate_users == frozenset(unreached.tolist())
    assert np.all(res.report.spectral_efficiency[unreached] == 0)
    assert np.all(res.report.serving[unreached] == 0)
    want = [f"{unreached.size} zero-rate users attached to cluster 0"] if sector else []
    assert [n for n in res.notes if "zero-rate" in n] == want
    su = pipeline.evaluate(replace(cfg, technology="su_beamforming"))
    assert [n for n in su.notes if "zero-rate" in n] == (
        [f"{unreached.size} zero-rate users attached by raw SNR"] if sector else [])
    paths = pipeline.write_report(res, tmp_path)
    assert json.loads(paths["summary"].read_text())["notes"] == res.notes


def test_userless_co_channel_cluster_interferes_with_nobody():
    # Six one-AP clusters on one channel and two users: four clusters have
    # no users, so they transmit nothing, and each user sees only the other
    # served cluster's power.
    res = pipeline.evaluate(desk_config(
        scenario={"generator": "conference_hall", "n_aps": 6, "n_users": 2},
        technology="distributed_mu_mimo", channelization="1x80", n_clusters=6))
    plan, gains, aps = res.cluster_plan, res.gains, res.scenario.aps
    served = set(plan.user_cluster.values())
    assert len(served) == 2
    for ut, ci in plan.user_cluster.items():
        foreign = [a for j in served - {ci} for a in plan.clusters[j].ap_ids]
        interf = sum(aps[a].power_linear * gains.ap_to_ut[a, ut] for a in foreign)
        want, _ = rates.dist_mu_rate(plan.clusters[ci], gains, aps, [ut], res.tech,
                                     co_channel_interference=np.array([interf]))
        assert res.report.spectral_efficiency[ut] == pytest.approx(want[0], rel=1e-12)
        assert res.report.serving[ut] == ci


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
    # A failing last point leaves the points before it whole.
    cfg = desk_config(technology="distributed_mu_mimo", sweep_axis="n_clusters",
                      sweep_values=[1, 2, 3, 99])
    res = pipeline.sweep(cfg)
    assert set(res.errors) == {99}  # more clusters than APs
    assert list(res.summaries) == [1, 2, 3]


def test_sweep_results_do_not_depend_on_thread_count():
    # The sweep keeps no state between calls: two sweeps run at once on two
    # threads give what one sweep gives on the calling thread.
    from concurrent.futures import ThreadPoolExecutor
    cfg = desk_config(technology="distributed_mu_mimo", sweep_axis="n_clusters",
                      sweep_values=[1, 2, 3, 99])
    alone = pipeline.sweep(cfg)
    with ThreadPoolExecutor(max_workers=2) as pool:
        both = list(pool.map(lambda _: pipeline.sweep(cfg), range(2)))
    assert set(alone.errors) == {99}  # more clusters than APs
    for run in both:
        assert run.errors == alone.errors
        assert run.summaries == alone.summaries


def test_maximal_only_channels_are_noted(tmp_path):
    # Four mutually sensing APs: 5 independent sets, 4 of them maximal.
    cfg = desk_config(channelization="1x80", state_cap=4)
    res = pipeline.evaluate(cfg)
    assert res.groups[0].chain.mode.value == "maximal_only"
    note = (f"channel 0: more than 4 independent sets; chain uses its "
            f"{res.groups[0].chain.n_states} maximal independent sets only")
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
    # (10^-400 underflows to a zero transmit power; an infinite one is refused)
    silent = pipeline.mc_validate(desk_config(
        power_db=-4000.0, oracle=OracleConfig(n_realizations=50)))
    assert np.all(silent.oracle_report.std_error == 0)
    assert np.array_equal(silent.z, np.zeros(silent.z.size))


def test_validation_echo_records_the_gaussian_run_compared(tmp_path):
    # A quantized request is compared in Gaussian rates, and its files say so.
    val = pipeline.mc_validate(desk_config(rate_mode="quantized",
                                           oracle=OracleConfig(n_realizations=20)))
    paths = pipeline.write_validation(val, tmp_path)
    summary = json.loads(paths["summary"].read_text())
    config_line = paths["comparison"].read_text().splitlines()[0]
    echoed = json.loads(config_line.removeprefix("# config="))
    assert summary["config"]["rate_mode"] == echoed["rate_mode"] == "gaussian"


@pytest.mark.parametrize("technology, entry", [
    ("su_beamforming", "mc_su_rate"), ("concentrated_mu_mimo", "mc_mu_rate"),
    ("distributed_mu_mimo", "mc_dist_rate")])
def test_oracle_receives_the_evaluations_own_groups(monkeypatch, technology, entry):
    # mc_validate looks its oracle entry point up when called, so a rebound
    # oracle.mc_* (as a tracer rebinds it) sees the call and its groups.
    calls, run = [], getattr(oracle, entry)
    monkeypatch.setattr(oracle, entry, lambda scenario, gains, groups, *rest: (
        calls.append(groups) or run(scenario, gains, groups, *rest)))
    val = pipeline.mc_validate(desk_config(technology=technology,
                                           oracle=OracleConfig(n_realizations=20)))
    assert len(calls) == 1 and calls[0] is val.deterministic.groups


def test_scenario_file_roundtrip_through_pipeline(tmp_path):
    path = tmp_path / "scen.json"
    base = pipeline.evaluate(desk_config())
    base.scenario.save(path)
    cfg = desk_config(scenario={"file": str(path)})
    res = pipeline.evaluate(cfg)
    assert res.scenario == base.scenario


def test_scenario_file_carrying_model_inputs_is_refused(tmp_path):
    # A scenario file is the deployment only; pathloss and the MCS table are
    # run-config keys, so a file carrying one is refused by name rather than
    # merged with (or overridden by) the run config.
    for key, value in (("pathloss", {"a_db": 50.0}), ("mcs_table", TWO_ROW_MCS)):
        raw = asdict(pipeline.build_scenario(desk_config()))
        raw[key] = value
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(RuntimeError,
                           match=re.escape(f"[scenario] Scenario has no field {key}")):
            pipeline.evaluate(desk_config(scenario={"file": str(path)}))


def test_mcs_table_override_sets_the_quantized_rates():
    default = pipeline.evaluate(RunConfig(rate_mode="quantized"))
    capped = pipeline.evaluate(RunConfig(rate_mode="quantized", mcs_table=TWO_ROW_MCS))
    assert default.report.spectral_efficiency.max() > 1.0
    assert capped.report.spectral_efficiency.max() <= 1.0
    assert capped.report.spectral_efficiency.max() > 0.0
    assert capped.tech.mcs_table == from_tree(McsTable, TWO_ROW_MCS)
    assert capped.report.config["mcs_table"] == TWO_ROW_MCS


@pytest.mark.parametrize("key, value, message", [
    ("antenas", 8, "Scenario.aps: ApNode has no field antenas"),
    ("antennas", 4.5, "Scenario.aps: ApNode.antennas: expected int, got 4.5"),
    pytest.param("power_db", 10**400, "Scenario.aps: ApNode.power_db: expected a finite "
                 f"number, got {10**400!r}", id="power_db-beyond-float-range"),
])
def test_scenario_file_refuses_what_its_records_cannot_hold(tmp_path, key, value,
                                                          message):
    raw = asdict(pipeline.build_scenario(desk_config()))
    raw["aps"][0][key] = value
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=re.escape(message)):
        pipeline.build_scenario(desk_config(scenario={"file": str(path)}))


def test_model_overrides_are_refused_when_the_config_is_built(tmp_path, capsys):
    rows = TWO_ROW_MCS["rows"]
    for key, value, message in (
            ("pathloss", {"a_db": "40"}, "PathlossParams.a_db: expected float"),
            ("pathloss", {"a_dB": 40.0}, "PathlossParams has no field a_dB"),
            ("pathloss", {"a_db": 10**400}, "PathlossParams.a_db: expected a finite number"),
            ("pathloss", {"shadowing_sigma_db": -1.0}, "shadowing sigma must be nonnegative"),
            ("mcs_table", {"rows": rows[::-1]}, "thresholds must be strictly increasing"),
            ("mcs_table", {"rows": [{**rows[0], "index": 0.5}]}, "McsRow.index: expected int")):
        with pytest.raises(ValueError, match=re.escape(message)):
            desk_config(**{key: value})
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exit_:
            cli.main(["evaluate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_generate_evaluate_sweep(tmp_path, capsys):
    scen_path = tmp_path / "hall.json"
    rc = cli.main(["generate", "--generator", "conference_hall",
                   "--n-aps", "4", "--n-users", "8", "--seed", "5",
                   "--out", str(scen_path)])
    assert rc == 0
    assert from_tree(Scenario, json.loads(scen_path.read_text())).n_aps == 4

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
    cfg_path.write_text(json.dumps(asdict(desk_config(rate_mode="quantized"))))
    out_dir = tmp_path / "out"
    rc = cli.main(["evaluate", "--config", str(cfg_path),
                   "--power-db", "85", "--out-dir", str(out_dir)])
    assert rc == 0
    echo = json.loads((out_dir / "summary.json").read_text())["config"]
    assert echo["power_db"] == 85.0
    assert echo["rate_mode"] == "quantized"


def test_sweep_without_axis_is_refused():
    with pytest.raises(ValueError, match="sweep_axis"):
        pipeline.sweep(desk_config())


def test_cca_sweep_axis_includes_disabled():
    cfg = desk_config(sweep_axis="cca_db",
                      sweep_values=[0.0, 10.0, 30.0, "disabled"])
    res = pipeline.sweep(cfg)
    assert not res.errors
    assert res.point_results["disabled"].groups[0].chain.mode.value == "no_csma"
    means = [res.summaries[v]["mean"] for v in cfg.sweep_values]
    assert all(m > 0 for m in means)


@pytest.mark.parametrize("budget", [None, 1 << 18])
def test_contended_rates_stage_streams_own_user_blocks(monkeypatch, budget):
    # 15 APs, none sensing another: channel 0 holds 14 of them (2^14 chain
    # states) and 20 users, channel 1 one AP and the other 580 users. A
    # [states x all users] array of channel 0 alone would be 78.6 MB.
    n_aps, n_users, n_loud = 15, 600, 14
    if budget is not None:
        monkeypatch.setattr(rates, "BLOCK_BYTES", budget)
    monkeypatch.setattr(radio_plan, "assign_channels", lambda gains, aps, channels, seed:
                        radio_plan.ChannelPlan({a: int(a >= n_loud) for a in range(n_aps)}))
    sets = {a: tuple(range(a, 20, n_loud)) for a in range(n_loud)}
    sets[n_loud] = tuple(range(20, n_users))
    monkeypatch.setattr(radio_plan, "associate_users", lambda peak, seed, fallback_metric:
                        radio_plan.AssociationMap(sets))
    real_stage, peaks = pipeline._stage, {}

    @contextmanager
    def measured_stage(label):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with real_stage(label):
            yield
        peaks[label] = tracemalloc.get_traced_memory()[1] - start

    monkeypatch.setattr(pipeline, "_stage", measured_stage)
    tracemalloc.start()
    try:
        result = pipeline.evaluate(desk_config(
            scenario={"generator": "conference_hall", "n_aps": n_aps, "n_users": n_users},
            cca_db=300.0))
    finally:
        tracemalloc.stop()
    model = result.groups[0].chain
    assert (model.n_states, model.n_members) == (2 ** n_loud, n_loud)
    assert peaks["rates"] < rates.BLOCK_BYTES + model.n_states * model.n_members

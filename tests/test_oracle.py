import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from wlanmodel import oracle, pipeline, rates
from wlanmodel.csma import (
    ChannelCtmc,
    CtmcMode,
    build_contention_graph,
    channel_ctmcs,
    stationary_distribution,
)
from wlanmodel.oracle import (
    OracleConfig,
    _zf_factor,
    _zf_precoders,
    mc_dist_rate,
    mc_mu_rate,
    mc_su_rate,
)
from wlanmodel.propagation import GainMatrix, PathlossParams, gain_matrix
from wlanmodel.radio_plan import (
    AssociationMap,
    ChannelPlan,
    Cluster,
    ClusterPlan,
    associate_users,
    assign_channels,
    channel_preset,
)
from wlanmodel.rates import (
    TechConfig,
    ap_groups,
    cluster_groups,
    dist_mu_rate,
    mu_channel_state_rates,
    peak_rate_matrix,
    su_channel_state_rates,
)
from wlanmodel.scenario import ApNode, Scenario, UtNode, build_conference_hall

NO_SHADOW = PathlossParams(shadowing_sigma_db=0.0)


def _rayleigh(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def test_zfbf_single_column_is_squared_norm():
    rng = np.random.default_rng(0)
    h = _rayleigh(rng, (6, 1))
    _, xi = _zf_precoders(h)
    assert xi[0] == pytest.approx(float(np.sum(np.abs(h) ** 2)))


def test_zfbf_orthogonal_columns():
    h = np.zeros((4, 2), dtype=complex)
    h[0, 0] = 2.0
    h[1, 1] = 3.0 * 1j
    _, xi = _zf_precoders(h)
    assert xi == pytest.approx([4.0, 9.0])


def test_zfbf_mean_matches_array_surplus():
    # E[xi] = M - S + 1 for i.i.d. unit-variance Rayleigh columns.
    rng = np.random.default_rng(1)
    for m, s in ((4, 2), (8, 4)):
        draws = _rayleigh(rng, (4000, m, s))
        _, xi = _zf_precoders(draws)
        assert xi.mean() == pytest.approx(m - s + 1, rel=0.05)


def test_zfbf_gives_inseparable_streams_no_gain():
    # The ridged Cholesky inverse matches the plain inverse at full rank.
    # Streams ZF cannot separate get xi of the ridge's order, not a
    # singular-matrix error, and a stream independent of them keeps its
    # least-squares distance to the span of the others.
    rng = np.random.default_rng(3)
    h = _rayleigh(rng, (200, 8, 5))
    inv = np.linalg.inv(np.swapaxes(h.conj(), -1, -2) @ h)
    want = 1.0 / np.real(np.einsum("...ss->...s", inv))
    assert np.allclose(_zf_precoders(h, beams=False)[1], want, rtol=1e-10, atol=0.0)
    v, xi = _zf_precoders(np.ones((2, 3), dtype=complex))  # more streams than antennas
    assert np.all(np.isfinite(v)) and np.all(xi <= 2e-9)
    h = _rayleigh(rng, (6, 3))
    h[:, 1] = 2j * h[:, 0]  # streams 0 and 1 are one direction
    v, xi = _zf_precoders(h)
    assert np.all(np.isfinite(v)) and xi[:2].max() <= 2e-9 * np.sum(np.abs(h) ** 2)
    others = h[:, :2]
    rest = h[:, 2] - others @ np.linalg.lstsq(others, h[:, 2], rcond=None)[0]
    assert xi[2] == pytest.approx(np.sum(np.abs(rest) ** 2), rel=1e-9)


def test_zf_precoder_nulls_intra_cell_interference():
    rng = np.random.default_rng(2)
    h = _rayleigh(rng, (16, 8, 3))
    v, xi = _zf_precoders(h)
    cross = np.swapaxes(v.conj(), -1, -2) @ h
    diag = np.sqrt(xi)
    for b in range(16):
        off = cross[b] - np.diag(diag[b])
        assert np.max(np.abs(off)) < 1e-10


def _single_ap_setup(m_antennas, g, power_db=90.0, n_users=1):
    aps = (ApNode(0, (0.0, 0.0), antennas=m_antennas, power_db=power_db),)
    gains = GainMatrix(ap_to_ut=np.full((1, n_users), g),
                       ap_to_ap=np.zeros((1, 1)))
    plan = ChannelPlan({0: 0})
    assoc = AssociationMap(sets={0: tuple(range(n_users))})
    users = tuple(UtNode(k, (5.0, float(k))) for k in range(n_users))
    scenario = Scenario(width_m=10, height_m=max(10.0, float(n_users)),
                        aps=aps, users=users)
    graph = build_contention_graph(gains, plan, aps, cca_db=10.0)
    return scenario, gains, assoc, ap_groups(assoc, channel_ctmcs(graph, rho=100.0))


def _det_single_ap(kernel, gains, assoc, scenario):
    """Deterministic rates of the single AP's always-on state."""
    return kernel(gains, assoc, scenario.aps, [0], np.array([[1]]),
                  TechConfig(), scenario.n_users)


def test_mc_su_matches_quadrature_at_single_antenna():
    # M=1, no interferers: E[log2(1 + gP |h|^2)] with |h|^2 ~ Exp(1).
    g, p_db = 1e-7, 90.0
    scenario, gains, assoc, groups = _single_ap_setup(1, g, p_db)
    cfg = OracleConfig(n_realizations=40_000)
    rep = mc_su_rate(scenario, gains, groups, cfg, seed=3)
    gp = g * 10 ** (p_db / 10)
    expected, _ = integrate.quad(
        lambda t: math.log2(1 + gp * t) * math.exp(-t), 0, 60)
    share = 100.0 / 101.0  # single-AP chain on-probability
    assert rep.mean_rate[0] == pytest.approx(share * expected, rel=0.02)


def test_mc_su_zero_power():
    scenario, gains, assoc, groups = _single_ap_setup(4, 1e-7, power_db=-math.inf)
    rep = mc_su_rate(scenario, gains, groups, OracleConfig(n_realizations=200), seed=0)
    assert rep.mean_rate[0] == 0.0


def test_mc_su_isolated_large_array_close_to_deterministic():
    scenario, gains, assoc, groups = _single_ap_setup(10, 1e-7)
    cfg = OracleConfig(n_realizations=20_000)
    rep = mc_su_rate(scenario, gains, groups, cfg, seed=4)
    det = _det_single_ap(su_channel_state_rates, gains, assoc, scenario)[0, 0]
    det_avg = det * 100.0 / 101.0
    assert abs(rep.mean_rate[0] - det_avg) / det_avg < 0.03


def test_mc_su_reproducible():
    scenario, gains, assoc, groups = _single_ap_setup(4, 1e-7, n_users=3)
    cfg = OracleConfig(n_realizations=500)
    a = mc_su_rate(scenario, gains, groups, cfg, seed=11)
    b = mc_su_rate(scenario, gains, groups, cfg, seed=11)
    assert np.array_equal(a.mean_rate, b.mean_rate)
    c = mc_su_rate(scenario, gains, groups, cfg, seed=12)
    assert not np.array_equal(a.mean_rate, c.mean_rate)


def test_mc_mu_single_stream_matches_su_distribution():
    # A single-user cell forces S=1, where the ZF pipeline degenerates to
    # conjugate beamforming: means must agree within Monte Carlo error.
    scenario, gains, assoc, groups = _single_ap_setup(6, 1e-7)
    cfg = OracleConfig(n_realizations=20_000)
    su = mc_su_rate(scenario, gains, groups, cfg, seed=5)
    mu = mc_mu_rate(scenario, gains, groups, cfg, seed=5)
    tol = 4 * math.sqrt(su.std_error[0] ** 2 + mu.std_error[0] ** 2)
    assert abs(su.mean_rate[0] - mu.mean_rate[0]) < max(tol, 0.02)


def test_mc_mu_two_streams_close_to_deterministic():
    scenario, gains, assoc, groups = _single_ap_setup(10, 1e-7, n_users=2)
    cfg = OracleConfig(n_realizations=20_000)
    rep = mc_mu_rate(scenario, gains, groups, cfg, seed=6)
    det, streams = _det_single_ap(mu_channel_state_rates, gains, assoc, scenario)
    assert streams[0, 0] == 2
    det = det[0]
    det_avg = det * 100.0 / 101.0
    rel = np.abs(rep.mean_rate - det_avg) / det_avg
    assert np.all(rel < 0.05)


def _cluster_setup(b_aps, m_antennas, n_users, g=1e-7, power_db=90.0):
    aps = tuple(ApNode(i, (float(i), 0.0), antennas=m_antennas,
                       power_db=power_db) for i in range(b_aps))
    users = tuple(UtNode(k, (float(k), 5.0)) for k in range(n_users))
    scenario = Scenario(width_m=max(10.0, float(max(b_aps, n_users))),
                        height_m=10.0, aps=aps, users=users)
    gains = GainMatrix(ap_to_ut=np.full((b_aps, n_users), g),
                       ap_to_ap=np.zeros((b_aps, b_aps)))
    cluster = Cluster(ap_ids=tuple(range(b_aps)), channel_id=0)
    plan = ClusterPlan(clusters=(cluster,), user_cluster={k: 0 for k in range(n_users)})
    return scenario, gains, plan


def test_mc_dist_single_ap_matches_mu():
    scenario, gains, plan = _cluster_setup(1, 6, 2)
    cfg = OracleConfig(n_realizations=20_000)
    dist = mc_dist_rate(scenario, gains, cluster_groups(plan), cfg, seed=7)

    assoc = AssociationMap(sets={0: (0, 1)})
    mac = {0: ChannelCtmc((0,), stationary_distribution(
        np.array([[1]]), rho=100.0, mode=CtmcMode.NO_CSMA))}
    mu = mc_mu_rate(scenario, gains, ap_groups(assoc, mac), cfg, seed=7)
    rel = np.abs(dist.mean_rate - mu.mean_rate) / mu.mean_rate
    assert np.all(rel < 0.05)


def test_mc_dist_symmetric_close_to_deterministic():
    scenario, gains, plan = _cluster_setup(5, 4, 10)
    cfg = OracleConfig(n_realizations=4000)
    rep = mc_dist_rate(scenario, gains, cluster_groups(plan), cfg, seed=8)
    det, s_star = dist_mu_rate(plan.clusters[0], gains, scenario.aps,
                               list(range(10)))
    rel = np.abs(rep.mean_rate - det) / det
    assert np.all(rel < 0.10)


def test_mc_dist_full_rank_square_case():
    # S = B*M: the composite matrix is square and a.s. invertible.
    scenario, gains, plan = _cluster_setup(2, 2, 4, g=1e-6)
    det, s_star = dist_mu_rate(plan.clusters[0], gains, scenario.aps,
                               list(range(4)))
    cfg = OracleConfig(n_realizations=2000)
    rep = mc_dist_rate(scenario, gains, cluster_groups(plan), cfg, seed=9)
    assert rep.resample_events == 0
    assert np.all(rep.mean_rate > 0)


def test_deterministic_error_shrinks_with_antennas():
    # Fixed desk instance: the large-array approximation improves with M.
    errors = {}
    for m in (2, 10):
        rel_sum = 0.0
        for seed in (0, 1, 2):
            scenario, gains, assoc, groups = _single_ap_setup(m, 1e-7, n_users=4)
            cfg = OracleConfig(n_realizations=4000)
            rep = mc_su_rate(scenario, gains, groups, cfg, seed=seed)
            det = _det_single_ap(su_channel_state_rates, gains, assoc,
                                 scenario)[0] * 100.0 / 101.0
            rel_sum += float(np.mean(np.abs(rep.mean_rate - det) / det))
        errors[m] = rel_sum / 3
    assert errors[10] < errors[2]


def test_mc_pipeline_on_generated_hall():
    # End-to-end coherence on a generated scenario with contention.
    scenario = build_conference_hall(4, 12, seed=3)
    gains = gain_matrix(scenario, NO_SHADOW, seed=1)
    chans = channel_preset("2x40")
    plan = assign_channels(gains, scenario.aps, chans, seed=2)
    peak, _ = peak_rate_matrix(gains, scenario.aps)
    assoc = associate_users(peak, seed=2)
    graph = build_contention_graph(gains, plan, scenario.aps, cca_db=10.0)
    mac = channel_ctmcs(graph, rho=100.0)
    cfg = OracleConfig(n_realizations=6000)
    rep = mc_su_rate(scenario, gains, ap_groups(assoc, mac), cfg, seed=5)
    assert np.all(rep.mean_rate > 0)
    assert np.all(np.isfinite(rep.std_error))
    # coarse agreement with the deterministic chain average
    det = np.zeros(scenario.n_users)
    from wlanmodel.rates import average_over_ctmc
    for ch_id, ctmc in mac.items():
        sr = su_channel_state_rates(gains, assoc, scenario.aps,
                                    list(ctmc.members), ctmc.model.rows(),
                                    TechConfig(), scenario.n_users)
        det += average_over_ctmc(sr, ctmc.model)
    assert abs(rep.mean_rate.mean() - det.mean()) / det.mean() < 0.10


def test_mc_dist_co_channel_clusters_converge_with_antennas():
    # Four pooled clusters on two channels: each cluster's users see the
    # co-channel cluster's ZF beams, which the model counts as the summed
    # received power of its APs. The gap closes as the arrays grow.
    gaps = {}
    for m in (4, 16):
        cfg = pipeline.RunConfig(
            scenario={"generator": "conference_hall", "n_aps": 16,
                      "n_users": 100},
            technology="distributed_mu_mimo", channelization="2x40",
            n_clusters=4, antennas=m)
        det = pipeline.evaluate(cfg)
        rep = mc_dist_rate(det.scenario, det.gains, det.groups, cfg.oracle,
                           seed=cfg.seeds.oracle)
        model = float(det.report.spectral_efficiency.mean())
        gaps[m] = (float(rep.mean_rate.mean()) - model) / model
    assert abs(gaps[16]) <= 0.05
    assert abs(gaps[16]) < abs(gaps[4])


def test_oracle_jobs_choose_the_streams_of_the_chain_average():
    # The oracle's jobs and the chain average read their stream counts from
    # one kernel: on enumerated chains every (state, active group with
    # users) pair is one job group, so their stream counts sum to the
    # average's histogram.
    cfg = pipeline.RunConfig(
        scenario={"generator": "stadium", "n_aps": 12, "n_users": 40},
        technology="concentrated_mu_mimo", channelization="1x80")
    det = pipeline.evaluate(cfg)
    channels = det.groups
    assert max(c.chain.n_states for c in channels.values()) <= oracle.STATE_ENUM_THRESHOLD
    want: dict = {}
    for histogram in det.stream_choice.values():
        for s, n in histogram.items():
            want[s] = want.get(s, 0) + n
    assert len(want) == 3
    got: dict = {}
    for _, _, sampled, _, groups in oracle._jobs(
            det.scenario, det.gains, channels, rates.Technology.CONCENTRATED_MU_MIMO,
            OracleConfig(n_realizations=10), seed=0):
        assert not sampled
        for g in groups:
            got[g.streams] = got.get(g.streams, 0) + 1
    assert got == want


@pytest.mark.parametrize("kernel", [mc_su_rate, mc_mu_rate])
def test_sampled_chain_states_match_enumeration(monkeypatch, kernel):
    # A chain above the enumeration threshold is sampled from pi; its means
    # and std errors (which then include the state-count spread) must agree
    # with the enumerated run.
    scenario = build_conference_hall(6, 16, seed=3)
    gains = gain_matrix(scenario, NO_SHADOW, seed=1)
    plan = assign_channels(gains, scenario.aps, channel_preset("1x80"), seed=2)
    peak, _ = peak_rate_matrix(gains, scenario.aps)
    assoc = associate_users(peak, seed=2)
    graph = build_contention_graph(gains, plan, scenario.aps, cca_db=10.0)
    mac = channel_ctmcs(graph, rho=2.0)
    assert max(c.model.n_states for c in mac.values()) > 2
    cfg = OracleConfig(n_realizations=4000)
    groups = ap_groups(assoc, mac)
    enumerated = kernel(scenario, gains, groups, cfg, seed=1)
    monkeypatch.setattr(oracle, "STATE_ENUM_THRESHOLD", 2)
    sampled = kernel(scenario, gains, groups, cfg, seed=1)
    tol = 4 * np.hypot(enumerated.std_error, sampled.std_error)
    assert np.all(np.abs(sampled.mean_rate - enumerated.mean_rate) <= tol)
    assert np.all(sampled.std_error > enumerated.std_error)


@pytest.mark.parametrize("technology", ["su_beamforming", "concentrated_mu_mimo"])
def test_users_no_sampled_state_reaches_get_no_z(monkeypatch, tmp_path, technology):
    # Twenty realizations sampled from a 7-state chain can leave some APs
    # off in every drawn state: the oracle then measured none of their users
    # (mean and std error 0 against a positive model rate), so they get no
    # z, the |z| summary leaves them out, and the summary says how many they
    # are. The oracle seed is the first whose sampled states reach some of
    # the users but not all.
    def config(seed):
        return pipeline.RunConfig(
            scenario={"generator": "conference_hall", "n_aps": 6, "n_users": 24},
            technology=technology, channelization="1x80",
            seeds=pipeline.Seeds(oracle=seed), oracle=OracleConfig(n_realizations=20))

    enumerated = pipeline.mc_validate(config(0))
    assert not np.isnan(enumerated.z).any()
    assert "users_without_z" not in enumerated.z_summary()
    monkeypatch.setattr(oracle, "STATE_ENUM_THRESHOLD", 2)
    det = enumerated.deterministic

    def reached(seed):
        return {int(u) for *_, groups in oracle._jobs(
                    det.scenario, det.gains, det.groups, rates.Technology(technology),
                    config(seed).oracle, seed) for g in groups for u in g.users}
    seed = next((s for s in range(200)
                 if 0 < len(reached(s)) < det.scenario.n_users), None)
    assert seed is not None
    val = pipeline.mc_validate(config(seed))
    missing = np.isnan(val.z)
    assert 0 < missing.sum() < missing.size
    assert np.all(val.oracle_report.std_error[missing] == 0)
    assert np.all(val.mc_rates[missing] == 0) and np.all(val.det_rates[missing] > 0)
    assert np.all(np.isfinite(val.z[~missing]))
    summary = json.loads(pipeline.write_validation(val, tmp_path)["summary"].read_text())
    assert summary["users_without_z"] == missing.sum()
    assert summary["max_abs_z"] == np.abs(val.z[~missing]).max()
    assert summary["mean_abs_z"] == pytest.approx(np.abs(val.z[~missing]).mean(), rel=1e-15)
    assert all(math.isfinite(summary[k])
               for k in ("mean_abs_z", "max_abs_z", "share_abs_z_above_3"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("technology", ["su_beamforming", "concentrated_mu_mimo",
                                        "distributed_mu_mimo"])
def test_mc_validate_with_users_outside_every_sector(technology):
    # 90-degree sectors leave some users with zero gain to their AP (attached
    # by the raw-SNR fallback) and pooled clusters whose APs are blind to
    # some users: the oracle must give zero or finite rates, never NaN or a
    # singular-matrix error.
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 8, "n_users": 60},
        technology=technology, sector_width_deg=90.0, cca_db=None,
        oracle=OracleConfig(n_realizations=200))
    val = pipeline.mc_validate(cfg)
    assert np.all(np.isfinite(val.mc_rates))
    assert np.all(np.isfinite(val.oracle_report.std_error))
    silent = val.det_rates == 0
    assert silent.any()
    assert np.all(val.mc_rates[silent] == 0)


def test_pooled_cluster_with_inseparable_users_validates():
    # With 120-degree sectors the cluster on channel 2 serves 7 users from
    # 8 antennas, 4 of them seen by one AP only: their Gram matrices are
    # singular, so the ridged inverse gives those streams no gain instead
    # of failing.
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 8, "n_users": 60},
        technology="distributed_mu_mimo", sector_width_deg=120.0, n_clusters=4,
        oracle=OracleConfig(n_realizations=200))
    val = pipeline.mc_validate(cfg)
    assert np.all(np.isfinite(val.mc_rates))
    assert np.all(np.isfinite(val.oracle_report.std_error))
    assert val.oracle_report.resample_events == 0


def test_pooled_validation_stays_under_the_byte_budget():
    # Four pooled clusters of 64 antennas on two channels (S about 25): each
    # job draws its realizations in chunks sized by rates.BLOCK_BYTES, so the
    # whole validation's traced peak stays within a few budgets.
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 16, "n_users": 100},
        technology="distributed_mu_mimo", channelization="2x40",
        n_clusters=4, antennas=16)
    tracemalloc.start()
    try:
        val = pipeline.mc_validate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(s for counts in val.deterministic.stream_choice.values()
               for s in counts) > 16
    assert peak < 4 * rates.BLOCK_BYTES


@pytest.mark.parametrize("technology", ["su_beamforming", "concentrated_mu_mimo",
                                        "distributed_mu_mimo"])
def test_chunk_budget_leaves_the_estimates_unchanged(monkeypatch, technology):
    # Without carrier sensing every AP of the one channel transmits (one job
    # of six co-channel groups; pooled: two co-channel clusters). A job's
    # chunks fit half the budget. Chunks of one realization, then of seven
    # (600 = 85 * 7 + 5), must estimate the same per-user means, and a mean
    # std error no larger than 1.25 times the default budget's (one user's
    # std error is itself noisy).
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 6, "n_users": 30},
        technology=technology, channelization="1x80", cca_db=None,
        n_clusters=2, oracle=OracleConfig(n_realizations=600))
    per_realization, chunks = [], []
    count_bytes, realize = oracle._realization_bytes, oracle._realize
    monkeypatch.setattr(oracle, "_realization_bytes", lambda groups: (
        per_realization.append(count_bytes(groups)) or per_realization[-1]))
    monkeypatch.setattr(oracle, "_realize", lambda rng, gains, groups, r, *rest: (
        chunks.append(r) or realize(rng, gains, groups, r, *rest)))
    default = pipeline.mc_validate(cfg).oracle_report
    assert len(per_realization) == 1
    for budget, sizes in ((1, {1}), (14 * per_realization[0], {7, 5})):
        chunks.clear()
        monkeypatch.setattr(rates, "BLOCK_BYTES", budget)
        got = pipeline.mc_validate(cfg).oracle_report
        assert set(chunks) == sizes
        tol = 4 * np.hypot(default.std_error, got.std_error)
        assert np.all(np.abs(got.mean_rate - default.mean_rate) <= tol)
        assert got.std_error.mean() <= 1.25 * default.std_error.mean()


def _two_channel_evaluation(technology, **fields):
    """Open floor 8/40 on two channels (pooled: clusters sharing each)."""
    return pipeline.evaluate(pipeline.RunConfig(
        scenario={"generator": "open_floor", "n_aps": 8, "n_users": 40},
        technology=technology, channelization="2x40", **fields))


@pytest.mark.parametrize("setting", ["enumerated", "sampled", "co_channel"])
@pytest.mark.parametrize("kernel", [mc_su_rate, mc_mu_rate, mc_dist_rate])
def test_estimates_do_not_depend_on_the_pool_size(monkeypatch, kernel, setting):
    # Each job draws from its own stream, in chunks sized without regard to
    # the pool, and the caller adds the sums in job order: pools of one, two
    # and three workers give the same bits. Two channels of contending APs
    # (pooled: two co-channel clusters each), the same sampled from pi (a
    # threshold of 0 samples even a pooled channel's one state), and two
    # channels without carrier sensing (pooled: three clusters each). A
    # small budget splits jobs into several chunks.
    technology = {mc_su_rate: "su_beamforming", mc_mu_rate: "concentrated_mu_mimo",
                  mc_dist_rate: "distributed_mu_mimo"}[kernel]
    fields = ({"cca_db": None, "n_clusters": 6} if setting == "co_channel"
              else {"n_clusters": 4})
    if setting == "sampled":
        monkeypatch.setattr(oracle, "STATE_ENUM_THRESHOLD", 0)
    det = _two_channel_evaluation(technology, **fields)
    monkeypatch.setattr(rates, "BLOCK_BYTES", 1 << 16)
    chunks, realize = [], oracle._realize
    monkeypatch.setattr(oracle, "_realize", lambda rng, gains, groups, *rest: (
        chunks.append(groups) or realize(rng, gains, groups, *rest)))
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(oracle, "_pool_size", lambda n=workers: n)
        reports.append(kernel(det.scenario, det.gains, det.groups,
                              OracleConfig(n_realizations=200), seed=7))
    jobs = {id(groups) for groups in chunks}
    assert len(chunks) > len(jobs) >= 3 * 2
    first = reports[0]
    for rep in reports[1:]:
        assert rep.mean_rate.tobytes() == first.mean_rate.tobytes()
        assert rep.std_error.tobytes() == first.std_error.tobytes()
        assert (rep.n_realizations, rep.realizations_drawn) == (
            first.n_realizations, first.realizations_drawn)


def test_a_failing_job_raises_and_leaves_no_threads(monkeypatch):
    # The third job's draws fail: the error reaches the caller before every
    # job is drawn (the queue bound stops the walk), and the pool's threads
    # are joined.
    det = _two_channel_evaluation("su_beamforming")
    config = OracleConfig(n_realizations=200)
    total = sum(1 for _ in oracle._jobs(det.scenario, det.gains, det.groups,
                                        rates.Technology.SU_BEAMFORMING, config, 0))
    made, drawn, jobs, realize = [], set(), oracle._jobs, oracle._realize

    def failing(rng, gains, groups, *rest):
        drawn.add(id(groups))
        if len(made) > 2 and groups is made[2]:
            raise RuntimeError("job 2 failed")
        return realize(rng, gains, groups, *rest)
    monkeypatch.setattr(oracle, "_jobs", lambda *a: (
        made.append(job[4]) or job for job in jobs(*a)))
    monkeypatch.setattr(oracle, "_realize", failing)
    monkeypatch.setattr(oracle, "_pool_size", lambda: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="job 2 failed"):
        mc_su_rate(det.scenario, det.gains, det.groups, config)
    assert threading.active_count() == before
    assert len(drawn) < total


def _explicit_realize(rng, gains, groups, r, sums):
    """Reference for `oracle._realize` that draws every group explicitly.

    A one-stream group draws its users' N-antenna Rayleigh channels, takes
    each user's signal from its channel's energy and forms the conjugate
    beam to the first user of a random order; every other group's users hear
    that beam through fresh channels, as they hear ZF beams.
    """
    picks, signals, beams = [], [], []
    for g in groups:
        k = len(g.users)
        pick = oracle._random_subsets(rng, r, k, k if g.streams == 1 else g.streams)
        link = gains.ap_to_ut[g.aps[:, None], g.users[pick][:, None]]
        scale = g.antennas @ link / g.antennas.sum()
        link /= np.where(scale > 0, scale, 1.0)[:, None]
        link += (scale == 0)[:, None]
        h = oracle._draw(rng, link, g.antennas)
        if g.streams == 1:
            xi = np.sum(np.abs(h) ** 2, axis=1)
            v = h[..., :1] / np.sqrt(xi[:, None, :1])
        else:
            v, xi = _zf_precoders(h)
        picks.append(pick)
        signals.append(xi * scale * (g.power / g.streams))
        beams.append(v)
    for i, g in enumerate(groups):
        cols = g.users[picks[i]]
        interf = 0.0
        for j, other in enumerate(groups):
            if j != i:
                h = oracle._draw(rng, gains.ap_to_ut[other.aps[:, None], cols[:, None]],
                                 other.antennas)
                interf = interf + other.power / other.streams * np.sum(
                    np.abs(np.swapaxes(h, 1, 2) @ beams[j]) ** 2, axis=2)
        x = np.log2(1.0 + signals[i] / (1.0 + interf))
        x /= len(g.users) if g.streams == 1 else 1
        for row, y in zip(sums[i], (x, x**2)):
            row += np.bincount(picks[i].ravel(), y.ravel(), len(row))
    return 0


def _assert_matches_explicit_draws(monkeypatch, run):
    """`run()` gives the same per-user law with exact one-stream draws as
    with explicit ones: |z| <= 4 per user and a mean std error within
    0.8-1.25 times the reference's. Returns the groups of every job of the
    exact run, in job order."""
    seen, jobs = [], oracle._jobs
    monkeypatch.setattr(oracle, "_jobs", lambda *args: (
        seen.append(job[4]) or job for job in jobs(*args)))
    exact = run()
    monkeypatch.setattr(oracle, "_jobs", jobs)
    monkeypatch.setattr(oracle, "_realize", _explicit_realize)
    explicit = run()
    se = np.hypot(exact.std_error, explicit.std_error)
    silent = se == 0
    assert np.all(exact.mean_rate[silent] == explicit.mean_rate[silent])
    assert np.all(np.abs(exact.mean_rate - explicit.mean_rate)[~silent] <= 4 * se[~silent])
    ratio = exact.std_error.mean() / explicit.std_error.mean()
    assert 0.8 <= ratio <= 1.25
    return seen


def test_su_co_channel_subcarriers_match_explicit_draws(monkeypatch):
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 6, "n_users": 30},
        technology="su_beamforming", channelization="1x80", cca_db=None,
        oracle=OracleConfig(n_realizations=6000))
    seen = _assert_matches_explicit_draws(
        monkeypatch, lambda: pipeline.mc_validate(cfg).oracle_report)
    assert max(len(groups) for groups in seen) == 6


def test_mu_single_user_cells_match_explicit_draws(monkeypatch):
    # Cells of one user choose S = 1 next to a three-user ZF cell.
    aps = tuple(ApNode(i, (float(i), 0.0), antennas=4) for i in range(3))
    users = tuple(UtNode(k, (float(k), 5.0)) for k in range(5))
    scenario = Scenario(width_m=10.0, height_m=10.0, aps=aps, users=users)
    cells = {0: (0,), 1: (1, 2, 3), 2: (4,)}
    g = np.random.default_rng(0).uniform(5e-9, 3e-8, (3, 5))
    for ap, cell in cells.items():
        g[ap, list(cell)] = 1e-7
    gains = GainMatrix(ap_to_ut=g, ap_to_ap=np.zeros((3, 3)))
    mac = {0: ChannelCtmc((0, 1, 2), stationary_distribution(
        np.ones((1, 3)), rho=100.0, mode=CtmcMode.NO_CSMA))}
    groups = ap_groups(AssociationMap(sets=cells), mac)
    seen = _assert_matches_explicit_draws(monkeypatch, lambda: mc_mu_rate(
        scenario, gains, groups, OracleConfig(n_realizations=4000), seed=3))
    assert [grp.streams for grp in seen[0]][::2] == [1, 1]
    assert seen[0][1].streams > 1


def test_pooled_one_stream_clusters_match_explicit_draws(monkeypatch):
    # Two one-stream clusters of two APs with unequal arrays next to a ZF
    # cluster: one serves two weak users, one of them far from its first AP,
    # the other is blind to its user (the unit-gain beam). The ZF cluster's
    # users hear mostly the AP block on which each one-stream beam puts its
    # smaller share, so the lead user and the shares set their interference.
    aps = tuple(ApNode(i, (float(i), 0.0), antennas=m)
                for i, m in enumerate((2, 4, 4, 2, 4)))
    users = tuple(UtNode(k, (float(k), 5.0)) for k in range(6))
    scenario = Scenario(width_m=10.0, height_m=10.0, aps=aps, users=users)
    g = np.random.default_rng(1).uniform(2e-9, 2e-8, (5, 6))
    g[:2, [0, 5]] = [[1e-11, 1e-10], [1e-10, 1e-10]]
    g[2:4, 1] = 0.0
    g[:4, 2:5] = np.array([1e-7, 1e-10, 1e-10, 1e-7])[:, None]
    g[4, 2:5] = 1e-7
    gains = GainMatrix(ap_to_ut=g, ap_to_ap=np.zeros((5, 5)))
    clusters = tuple(Cluster(ids, 0) for ids in ((0, 1), (2, 3), (4,)))
    plan = ClusterPlan(clusters=clusters, user_cluster={0: 0, 5: 0, 1: 1, 2: 2, 3: 2, 4: 2})
    seen = _assert_matches_explicit_draws(monkeypatch, lambda: mc_dist_rate(
        scenario, gains, cluster_groups(plan), OracleConfig(n_realizations=4000), seed=4))
    assert [grp.streams for grp in seen[0]][:2] == [1, 1]
    assert seen[0][2].streams > 1


def test_sectorized_ap_blind_to_its_user_matches_explicit_draws(monkeypatch):
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 8, "n_users": 60},
        technology="su_beamforming", sector_width_deg=90.0, cca_db=None,
        oracle=OracleConfig(n_realizations=1500))
    validations = []

    def run():
        validations.append(pipeline.mc_validate(cfg))
        return validations[-1].oracle_report
    _assert_matches_explicit_draws(monkeypatch, run)
    assert np.any(validations[0].det_rates == 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda s: st.tuples(st.integers(s, s + 6), st.just(s))),
       st.integers(0, 2**32 - 1))
def test_zf_factor_gives_unit_interference_free_beams(antennas_streams, seed):
    # Every beam row has unit norm and nulls the other streams' columns of
    # R (W R = diag(sqrt(xi))); each stream's gain is Gamma(N - S + 1), and
    # a fresh z ~ CN(0, I_S) meets the S unit rows with mean energy S.
    n, s = antennas_streams
    rng = np.random.default_rng(seed)
    draws = 4000
    r, xi, w = _zf_factor(rng, n, s, (draws,))
    assert np.allclose(np.linalg.norm(w, axis=-1), 1.0)
    assert np.allclose(w @ r, np.sqrt(xi)[..., None] * np.eye(s), atol=1e-9)
    assert np.allclose(r, np.triu(r))
    shape = n - s + 1
    assert np.all(np.abs(xi.mean(axis=0) - shape) <= 5 * math.sqrt(shape / draws))
    z = _rayleigh(rng, (draws, s))
    energy = np.sum(np.abs(np.einsum("dst,dt->ds", w, z)) ** 2, axis=-1)
    assert abs(energy.mean() - s) <= 5 * s / math.sqrt(draws)


def test_co_channel_mu_subcarriers_match_explicit_draws(monkeypatch):
    # Six single-AP ZF cells on one channel without carrier sensing, every
    # one at S >= 2, each hearing the other five through their beams.
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 6, "n_users": 30},
        technology="concentrated_mu_mimo", channelization="1x80", cca_db=None,
        oracle=OracleConfig(n_realizations=6000))
    seen = _assert_matches_explicit_draws(
        monkeypatch, lambda: pipeline.mc_validate(cfg).oracle_report)
    assert all(len(groups) == 6 for groups in seen)
    assert min(grp.streams for groups in seen for grp in groups) >= 2


def test_sectorized_mu_ap_blind_to_served_users_matches_explicit_draws(monkeypatch):
    # 90-degree sectors leave AP 0 blind to most of its 15 users, which it
    # still serves (zero signal) and whose streams still use its antennas.
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 8, "n_users": 60},
        technology="concentrated_mu_mimo", sector_width_deg=90.0, cca_db=None,
        oracle=OracleConfig(n_realizations=1500))
    validations = []

    def run():
        validations.append(pipeline.mc_validate(cfg))
        return validations[-1].oracle_report
    seen = _assert_matches_explicit_draws(monkeypatch, run)
    det = validations[0].deterministic
    blind = [grp for groups in seen for grp in groups if grp.streams > 1
             and np.any(det.gains.ap_to_ut[grp.aps[0], grp.users] == 0)]
    assert blind


def test_mu_cells_at_full_rank_match_explicit_draws(monkeypatch):
    # Two strong cells of S = N users (N = 3 and N = 2) that contend: alone,
    # nobody hears their beams; together, each hears the other's.
    aps = (ApNode(0, (0.0, 0.0), antennas=3), ApNode(1, (9.0, 0.0), antennas=2))
    users = tuple(UtNode(k, (float(k), 5.0)) for k in range(5))
    scenario = Scenario(width_m=10.0, height_m=10.0, aps=aps, users=users)
    cells = {0: (0, 1, 2), 1: (3, 4)}
    g = np.full((2, 5), 5e-8)
    for ap, cell in cells.items():
        g[ap, list(cell)] = [1e-6, 3e-6, 1e-5][:len(cell)]
    gains = GainMatrix(ap_to_ut=g, ap_to_ap=np.zeros((2, 2)))
    mac = {0: ChannelCtmc((0, 1), stationary_distribution(
        np.array([[1, 0], [0, 1], [1, 1]]), rho=1.0))}
    channels = ap_groups(AssociationMap(sets=cells), mac)
    seen = _assert_matches_explicit_draws(monkeypatch, lambda: mc_mu_rate(
        scenario, gains, channels, OracleConfig(n_realizations=4000), seed=5))
    assert sorted(len(groups) for groups in seen) == [1, 1, 2]
    assert all(grp.streams == grp.antennas[0] for groups in seen for grp in groups)


def test_mu_validation_stays_under_the_byte_budget(monkeypatch):
    # Six co-channel ZF cells of 16 antennas (S about 8): the one job's
    # realizations take several chunks, and the whole validation's traced
    # peak stays within a few budgets (in one chunk it would not).
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 6, "n_users": 60},
        technology="concentrated_mu_mimo", channelization="1x80", cca_db=None,
        antennas=16)
    chunks, realize = [], oracle._realize
    monkeypatch.setattr(oracle, "_realize", lambda rng, gains, groups, r, *rest: (
        chunks.append(r) or realize(rng, gains, groups, r, *rest)))
    tracemalloc.start()
    try:
        pipeline.mc_validate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chunks) > 1
    assert peak < 4 * rates.BLOCK_BYTES


def _all_n(weights, on, n):
    """The allocation before proportional allocation: n for every state."""
    return np.full(len(weights), n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda states: st.tuples(
           st.lists(st.floats(1e-6, 1.0), min_size=states, max_size=states),
           st.lists(st.lists(st.booleans(), min_size=4, max_size=4),
                    min_size=states, max_size=states))),
       st.integers(1, 5000))
def test_draw_counts_are_proportional_and_bounded(weights_on, n):
    # Every count lies in [1, n]; each group's heaviest on-state keeps n;
    # equal weights give n wherever some group is on; and for each group the
    # variance of its pi-weighted mean (equal per-state variances) grows by
    # at most pi*_g sum(pi) / sum(pi^2) over its states.
    weights, on = np.array(weights_on[0]), np.array(weights_on[1])
    counts = oracle._draw_counts(weights, on, n)
    assert counts.dtype.kind == "i" and np.all((1 <= counts) & (counts <= n))
    for g in range(on.shape[1]):
        pi, c = weights[on[:, g]], counts[on[:, g]]
        if not pi.size:
            continue
        assert np.all(c[pi == pi.max()] == n)
        bound = pi.max() * pi.sum() / np.sum(pi**2)
        assert np.sum(pi**2 / c) <= bound * np.sum(pi**2 / n) * (1 + 1e-12)
    equal = oracle._draw_counts(np.full(len(weights), weights[0]), on, n)
    assert np.all(equal[on.any(axis=1)] == n)


@pytest.mark.parametrize("place", [
    # A 30 dB threshold leaves the hall's two channels 8- and 32-state chains.
    dict(scenario={"generator": "conference_hall", "n_aps": 8, "n_users": 60},
         channelization="2x40", cca_db=30.0),
    dict(scenario={"generator": "open_floor", "n_aps": 12, "n_users": 90})])
@pytest.mark.parametrize("technology", ["su_beamforming", "concentrated_mu_mimo"])
def test_proportional_allocation_keeps_the_law(monkeypatch, place, technology):
    # At rho = 100 the chain's weight sits on a few states, so far fewer
    # realizations are drawn than n per state, and the per-user means agree
    # with the all-n allocation's at a mean std error at most 5% larger.
    cfg = pipeline.RunConfig(**place, technology=technology, rho=100.0)
    got = pipeline.mc_validate(cfg).oracle_report
    monkeypatch.setattr(oracle, "_draw_counts", _all_n)
    want = pipeline.mc_validate(cfg).oracle_report
    assert got.n_realizations == want.n_realizations == 2000
    assert got.realizations_drawn < 0.5 * want.realizations_drawn
    tol = 4 * np.hypot(got.std_error, want.std_error)
    assert np.all(np.abs(got.mean_rate - want.mean_rate) <= tol)
    assert got.std_error.mean() <= 1.05 * want.std_error.mean()


@pytest.mark.parametrize("technology", ["su_beamforming", "concentrated_mu_mimo"])
def test_equal_weight_chains_draw_as_before(monkeypatch, tmp_path, technology):
    # At rho = 1 every state is equally heavy and draws n realizations, so
    # the validation files are byte-identical to the all-n allocation's.
    cfg = pipeline.RunConfig(
        scenario={"generator": "open_floor", "n_aps": 12, "n_users": 90},
        technology=technology, rho=1.0, oracle=OracleConfig(n_realizations=300))
    files = {}
    for label in ("proportional", "all_n"):
        if label == "all_n":
            monkeypatch.setattr(oracle, "_draw_counts", _all_n)
        val = pipeline.mc_validate(cfg)
        paths = pipeline.write_validation(val, tmp_path / label)
        files[label] = {k: p.read_bytes() for k, p in paths.items()}
    assert files["proportional"] == files["all_n"]
    summary = json.loads(files["proportional"]["summary"])
    assert summary["realizations_drawn"] % 300 == 0
    assert summary["realizations_drawn"] > summary["n_realizations"] == 300


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.lists(st.integers(1, 3), max_size=2), st.integers(0, 2**32 - 1))
def test_upper_inverse_inverts_and_gives_the_gram_diagonal(s, batch, seed):
    # Any batch of upper-triangular factors with a positive diagonal: r^-1
    # inverts r, and the row norms are the diagonal of (r^H r)^-1.
    rng = np.random.default_rng(seed)
    shape = tuple(batch)
    r = np.triu(0.5 * _rayleigh(rng, shape + (s, s)), 1)
    r[..., range(s), range(s)] = rng.uniform(1.0, 2.0, shape + (s,))
    inv, norm = oracle._upper_inverse(r)
    assert inv.shape == r.shape and norm.shape == shape + (s,)
    assert np.allclose(r @ inv, np.eye(s), rtol=0.0, atol=1e-10)
    gram_inv = np.linalg.inv(np.swapaxes(r.conj(), -1, -2) @ r)
    assert np.allclose(norm, np.einsum("...ii->...i", gram_inv).real, rtol=1e-10, atol=0.0)


def test_job_streams_are_sfc64_from_one_helper(monkeypatch):
    # Every job stream, and each channel's sampled-state stream, is made by
    # oracle._stream: SFC64 keyed [seed, channel, index]; the same seed
    # gives the same streams.
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 6, "n_users": 24},
        technology="su_beamforming", channelization="1x80")
    det = pipeline.evaluate(cfg)
    keys, made, stream = [], [], oracle._stream
    monkeypatch.setattr(oracle, "_stream", lambda *key: (
        keys.append(key) or made.append(stream(*key)) or made[-1]))

    def jobs(seed):
        return list(oracle._jobs(det.scenario, det.gains, det.groups,
                                 rates.Technology.SU_BEAMFORMING,
                                 OracleConfig(n_realizations=10), seed))
    first = jobs(5)
    assert len(first) > 1
    assert all(any(job[3] is rng for rng in made) for job in first)
    assert all(isinstance(job[3].bit_generator, np.random.SFC64) for job in first)
    assert sorted(k for k in keys if k[2] == 1 << 20) == [(5, ch, 1 << 20) for ch in det.groups]
    assert len(keys) == len(det.groups) + len(first) and {k[0] for k in keys} == {5}
    want = np.random.Generator(np.random.SFC64(list(keys[1]))).random(8)
    assert np.array_equal(first[0][3].random(8), want)
    again = jobs(5)
    assert all(np.array_equal(a[3].random(8), b[3].random(8)) for a, b in zip(first[1:], again[1:]))


def _per_antenna_draw(rng, power):
    """Rayleigh channels [r, N, c] from per-antenna powers [N, r, c]: the
    construction the per-AP oracle._draw replaces."""
    amp = np.sqrt(0.5 * np.moveaxis(power, 0, -2))
    h = rng.standard_normal(amp.shape + (2,))
    h *= amp[..., None]
    return h.view(np.complex128)[..., 0]


def _per_antenna_realize(rng, gains, groups, r, sums):
    """`oracle._realize` for one-stream and pooled groups, written as it was
    with per-antenna gathers: [N, r, S] channel powers, a one-stream beam's
    leakage as a per-realization product and every sum a bincount."""
    picks, signals, beams = [], [], []
    heard = len(groups) > 1
    for g in groups:
        k = len(g.users)
        if g.streams == 1:
            picks.append(np.broadcast_to(np.arange(k), (r, k)))
            gain = gains.ap_to_ut[g.aps[:, None], g.users]
            energy = rng.standard_gamma(g.antennas[:, None], (r,) + gain.shape)
            signals.append(g.power * np.einsum("rbk,bk->rk", energy, gain))
            lead = rng.integers(k, size=r)
            share = np.where(gain[:, lead].any(axis=0), gain[:, lead], 1.0).T
            share = share * energy[np.arange(r), :, lead]
            beams.append((share / share.sum(axis=1, keepdims=True))[:, None])
            continue
        assert len(g.aps) > 1
        picks.append(oracle._random_subsets(rng, r, k, g.streams))
        rows = np.repeat(g.aps, g.antennas)  # AP id of each antenna
        link = gains.ap_to_ut[rows[:, None, None], g.users[picks[-1]]]
        scale = link.mean(axis=0)
        link /= np.where(scale > 0, scale, 1.0)
        link += scale == 0
        v, xi = oracle._zf_precoders(_per_antenna_draw(rng, link), heard)
        signals.append(xi * scale * (g.power / g.streams))
        beams.append(v)
    for i, g in enumerate(groups):
        cols = g.users[picks[i]]
        interf = 0.0
        for j, other in enumerate(groups):
            if j == i:
                continue
            if other.streams == 1:
                power = np.moveaxis(gains.ap_to_ut[other.aps[:, None, None], cols], 0, -2)
                leak = (beams[j] @ power)[:, 0] * rng.standard_exponential(cols.shape)
            else:
                rows = np.repeat(other.aps, other.antennas)
                h = _per_antenna_draw(rng, gains.ap_to_ut[rows[:, None, None], cols])
                leak = np.sum(np.abs(np.swapaxes(h, 1, 2) @ beams[j]) ** 2, axis=2)
            interf = interf + other.power / other.streams * leak
        x = np.log2(1.0 + signals[i] / (1.0 + interf))
        x /= len(g.users) if g.streams == 1 else 1
        for row, y in zip(sums[i], (x, x**2)):
            row += np.bincount(picks[i].ravel(), y.ravel(), len(row))


def _pooled_groups(antennas, clusters):
    """Groups of the given (AP ids, users, streams) over APs with these
    array sizes, and gains in which user 2 is outside every sector of the
    first cluster and user 9 of the second."""
    aps = tuple(ApNode(i, (float(i), 0.0), antennas=m) for i, m in enumerate(antennas))
    g = np.random.default_rng(6).uniform(1e-9, 1e-7, (len(aps), 18))
    g[list(clusters[0][0]), 2] = 0.0
    g[list(clusters[1][0]), 9] = 0.0
    gains = GainMatrix(ap_to_ut=g, ap_to_ap=np.zeros((len(aps), len(aps))))
    return gains, [oracle._group(aps, ids, users, s) for ids, users, s in clusters]


def _realize_both(monkeypatch, gains, groups, r=64):
    """(ZF outputs, sums) of oracle._realize and of the per-antenna
    reference, each from the same generator state."""
    seen, zf = [], oracle._zf_precoders
    monkeypatch.setattr(oracle, "_zf_precoders", lambda h, beams=True: (
        seen.append(zf(h, beams)) or seen[-1]))
    out = []
    for realize in (oracle._realize, _per_antenna_realize):
        seen.clear()
        sums = [np.zeros((2, len(g.users))) for g in groups]
        realize(np.random.Generator(np.random.SFC64(11)), gains, groups, r, sums)
        out.append((list(seen), sums))
    return out


@pytest.mark.parametrize("antennas", [(4, 4, 4, 4, 4), (2, 4, 4, 2, 3)])
def test_per_ap_pooled_draw_matches_per_antenna_construction(monkeypatch, antennas):
    # Two co-channel pooled clusters, each with a user outside all of its
    # sectors (the scale == 0 column): the per-AP draws give the per-antenna
    # construction's xi and beams, and the same sums through the leakage.
    gains, groups = _pooled_groups(antennas, [((0, 1), range(6), 3),
                                              ((2, 3, 4), range(6, 12), 4)])
    (zf_new, sums_new), (zf_old, sums_old) = _realize_both(monkeypatch, gains, groups)
    assert len(zf_new) == len(zf_old) == 2
    for (v, xi), (v_old, xi_old) in zip(zf_new, zf_old):
        assert np.allclose(xi, xi_old, rtol=1e-12, atol=0.0)
        assert np.allclose(v, v_old, rtol=1e-12, atol=1e-12)
    for got, want in zip(sums_new, sums_old):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("with_zf", [False, True])
def test_one_stream_leakage_matches_per_realization_products(monkeypatch, with_zf):
    # Single-stream pooled clusters (B >= 2, one with unequal arrays, one
    # with equal ones) hear each other, and optionally a ZF cluster: the
    # hoisted leakage products and column sums give the per-realization
    # products' and bincounts' sums.
    clusters = [((0, 1), range(6), 1), ((2, 3), range(6, 12), 1)]
    if with_zf:
        clusters.append(((4, 5), range(12, 18), 2))
    gains, groups = _pooled_groups((2, 4, 3, 3, 4, 2), clusters)
    (_, sums_new), (_, sums_old) = _realize_both(monkeypatch, gains, groups)
    for got, want in zip(sums_new, sums_old):
        assert np.count_nonzero(got[0]) >= len(got[0]) - 1
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

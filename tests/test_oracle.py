import math

import numpy as np
import pytest
from scipy import integrate

from wlanmodel import oracle, pipeline
from wlanmodel.csma import build_contention_graph, channel_ctmcs
from wlanmodel.oracle import (
    OracleConfig,
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


def test_zfbf_rejects_wide_or_singular():
    with pytest.raises(np.linalg.LinAlgError):
        _zf_precoders(np.ones((2, 3), dtype=complex))  # more streams than antennas
    h = np.ones((4, 2), dtype=complex)  # duplicate columns: rank 1
    with pytest.raises(np.linalg.LinAlgError):
        _zf_precoders(h)


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
                       ap_to_ap=np.zeros((1, 1)), seed=0)
    plan = ChannelPlan(channel_preset("1x80"), {0: 0}, 0)
    assoc = AssociationMap(sets={0: tuple(range(n_users))}, permutation_seed=0)
    users = tuple(UtNode(k, (5.0, float(k))) for k in range(n_users))
    scenario = Scenario(width_m=10, height_m=max(10.0, float(n_users)),
                        aps=aps, users=users)
    graph = build_contention_graph(gains, plan, aps, cca_db=10.0)
    mac = channel_ctmcs(graph, rho=100.0)
    return scenario, gains, plan, assoc, mac


def _det_single_ap(kernel, gains, assoc, scenario):
    """Deterministic rates of the single AP's always-on state."""
    return kernel(gains, assoc, scenario.aps, [0], np.array([[1]]),
                  TechConfig(), scenario.n_users)


def test_mc_su_matches_quadrature_at_single_antenna():
    # M=1, no interferers: E[log2(1 + gP |h|^2)] with |h|^2 ~ Exp(1).
    g, p_db = 1e-7, 90.0
    scenario, gains, plan, assoc, mac = _single_ap_setup(1, g, p_db)
    cfg = OracleConfig(n_realizations=40_000)
    rep = mc_su_rate(scenario, gains, plan, assoc, mac, cfg, seed=3)
    gp = g * 10 ** (p_db / 10)
    expected, _ = integrate.quad(
        lambda t: math.log2(1 + gp * t) * math.exp(-t), 0, 60)
    share = 100.0 / 101.0  # single-AP chain on-probability
    assert rep.mean_rate[0] == pytest.approx(share * expected, rel=0.02)


def test_mc_su_zero_power():
    scenario, gains, plan, assoc, mac = _single_ap_setup(4, 1e-7,
                                                         power_db=-math.inf)
    rep = mc_su_rate(scenario, gains, plan, assoc, mac,
                     OracleConfig(n_realizations=200), seed=0)
    assert rep.mean_rate[0] == 0.0


def test_mc_su_isolated_large_array_close_to_deterministic():
    scenario, gains, plan, assoc, mac = _single_ap_setup(10, 1e-7)
    cfg = OracleConfig(n_realizations=20_000)
    rep = mc_su_rate(scenario, gains, plan, assoc, mac, cfg, seed=4)
    det = _det_single_ap(su_channel_state_rates, gains, assoc, scenario)[0, 0]
    det_avg = det * 100.0 / 101.0
    assert abs(rep.mean_rate[0] - det_avg) / det_avg < 0.03


def test_mc_su_reproducible():
    scenario, gains, plan, assoc, mac = _single_ap_setup(4, 1e-7, n_users=3)
    cfg = OracleConfig(n_realizations=500)
    a = mc_su_rate(scenario, gains, plan, assoc, mac, cfg, seed=11)
    b = mc_su_rate(scenario, gains, plan, assoc, mac, cfg, seed=11)
    assert np.array_equal(a.mean_rate, b.mean_rate)
    c = mc_su_rate(scenario, gains, plan, assoc, mac, cfg, seed=12)
    assert not np.array_equal(a.mean_rate, c.mean_rate)


def test_mc_mu_single_stream_matches_su_distribution():
    # A single-user cell forces S=1, where the ZF pipeline degenerates to
    # conjugate beamforming: means must agree within Monte Carlo error.
    scenario, gains, plan, assoc, mac = _single_ap_setup(6, 1e-7)
    cfg = OracleConfig(n_realizations=20_000)
    su = mc_su_rate(scenario, gains, plan, assoc, mac, cfg, seed=5)
    mu = mc_mu_rate(scenario, gains, plan, assoc, mac, cfg, seed=5)
    tol = 4 * math.sqrt(su.std_error[0] ** 2 + mu.std_error[0] ** 2)
    assert abs(su.mean_rate[0] - mu.mean_rate[0]) < max(tol, 0.02)


def test_mc_mu_two_streams_close_to_deterministic():
    scenario, gains, plan, assoc, mac = _single_ap_setup(10, 1e-7, n_users=2)
    cfg = OracleConfig(n_realizations=20_000)
    rep = mc_mu_rate(scenario, gains, plan, assoc, mac, cfg, seed=6)
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
                       ap_to_ap=np.zeros((b_aps, b_aps)), seed=0)
    cluster = Cluster(ap_ids=tuple(range(b_aps)), channel_id=0,
                      p_sum=sum(ap.power_linear for ap in aps))
    plan = ClusterPlan(clusters=(cluster,), channels=channel_preset("1x80"),
                       user_cluster={k: 0 for k in range(n_users)})
    return scenario, gains, plan


def test_mc_dist_single_ap_matches_mu():
    scenario, gains, plan = _cluster_setup(1, 6, 2)
    cfg = OracleConfig(n_realizations=20_000)
    dist = mc_dist_rate(scenario, gains, plan, cfg, seed=7)

    ch_plan = ChannelPlan(channel_preset("1x80"), {0: 0}, 0)
    assoc = AssociationMap(sets={0: (0, 1)}, permutation_seed=0)
    graph = build_contention_graph(gains, ch_plan, scenario.aps, None)
    from wlanmodel.csma import ChannelCtmc, CtmcMode, stationary_distribution
    mac = {0: ChannelCtmc(0, (0,), stationary_distribution(
        np.array([[1]]), rho=100.0, mode=CtmcMode.NO_CSMA))}
    mu = mc_mu_rate(scenario, gains, ch_plan, assoc, mac, cfg, seed=7)
    rel = np.abs(dist.mean_rate - mu.mean_rate) / mu.mean_rate
    assert np.all(rel < 0.05)


def test_mc_dist_symmetric_close_to_deterministic():
    scenario, gains, plan = _cluster_setup(5, 4, 10)
    cfg = OracleConfig(n_realizations=4000)
    rep = mc_dist_rate(scenario, gains, plan, cfg, seed=8)
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
    rep = mc_dist_rate(scenario, gains, plan, cfg, seed=9)
    assert rep.resample_events == 0
    assert np.all(rep.mean_rate > 0)


def test_deterministic_error_shrinks_with_antennas():
    # Fixed desk instance: the large-array approximation improves with M.
    errors = {}
    for m in (2, 10):
        rel_sum = 0.0
        for seed in (0, 1, 2):
            scenario, gains, plan, assoc, mac = _single_ap_setup(m, 1e-7,
                                                                 n_users=4)
            cfg = OracleConfig(n_realizations=4000)
            rep = mc_su_rate(scenario, gains, plan, assoc, mac, cfg, seed=seed)
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
    rep = mc_su_rate(scenario, gains, plan, assoc, mac, cfg, seed=5)
    assert np.all(rep.mean_rate > 0)
    assert np.all(np.isfinite(rep.std_error))
    # coarse agreement with the deterministic chain average
    det = np.zeros(scenario.n_users)
    from wlanmodel.rates import average_over_ctmc
    for ch_id, ctmc in mac.items():
        sr = su_channel_state_rates(gains, assoc, scenario.aps,
                                    list(ctmc.members), ctmc.model.states,
                                    TechConfig(), scenario.n_users)
        det += average_over_ctmc(sr, ctmc.model)
    assert abs(rep.mean_rate.mean() - det.mean()) / det.mean() < 0.10


def test_mc_su_multiple_subcarriers_same_mean_lower_variance():
    scenario, gains, plan, assoc, mac = _single_ap_setup(4, 1e-7)
    one = mc_su_rate(scenario, gains, plan, assoc, mac,
                     OracleConfig(n_realizations=4000, subcarriers=1), seed=13)
    four = mc_su_rate(scenario, gains, plan, assoc, mac,
                      OracleConfig(n_realizations=4000, subcarriers=4), seed=13)
    assert four.mean_rate[0] == pytest.approx(one.mean_rate[0], rel=0.03)
    assert four.std_error[0] < one.std_error[0]


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
        rep = mc_dist_rate(det.scenario, det.gains, det.cluster_plan,
                           cfg.oracle, seed=cfg.seeds.oracle)
        model = float(det.report.spectral_efficiency.mean())
        gaps[m] = (float(rep.mean_rate.mean()) - model) / model
    assert abs(gaps[16]) <= 0.05
    assert abs(gaps[16]) < abs(gaps[4])


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
    enumerated = kernel(scenario, gains, plan, assoc, mac, cfg, seed=1)
    monkeypatch.setattr(oracle, "STATE_ENUM_THRESHOLD", 2)
    sampled = kernel(scenario, gains, plan, assoc, mac, cfg, seed=1)
    tol = 4 * np.hypot(enumerated.std_error, sampled.std_error)
    assert np.all(np.abs(sampled.mean_rate - enumerated.mean_rate) <= tol)
    assert np.all(sampled.std_error > enumerated.std_error)


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

import math

import numpy as np
import pytest
from scipy import integrate

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
    cfg = OracleConfig(n_realizations=40_000, seed=3)
    rep = mc_su_rate(scenario, gains, plan, assoc, mac, cfg)
    gp = g * 10 ** (p_db / 10)
    expected, _ = integrate.quad(
        lambda t: math.log2(1 + gp * t) * math.exp(-t), 0, 60)
    share = 100.0 / 101.0  # single-AP chain on-probability
    assert rep.mean_rate[0] == pytest.approx(share * expected, rel=0.02)


def test_mc_su_zero_power():
    scenario, gains, plan, assoc, mac = _single_ap_setup(4, 1e-7,
                                                         power_db=-math.inf)
    rep = mc_su_rate(scenario, gains, plan, assoc, mac,
                     OracleConfig(n_realizations=200, seed=0))
    assert rep.mean_rate[0] == 0.0


def test_mc_su_isolated_large_array_close_to_deterministic():
    scenario, gains, plan, assoc, mac = _single_ap_setup(10, 1e-7)
    cfg = OracleConfig(n_realizations=20_000, seed=4)
    rep = mc_su_rate(scenario, gains, plan, assoc, mac, cfg)
    det = _det_single_ap(su_channel_state_rates, gains, assoc, scenario)[0, 0]
    det_avg = det * 100.0 / 101.0
    assert abs(rep.mean_rate[0] - det_avg) / det_avg < 0.03


def test_mc_su_reproducible():
    scenario, gains, plan, assoc, mac = _single_ap_setup(4, 1e-7, n_users=3)
    cfg = OracleConfig(n_realizations=500, seed=11)
    a = mc_su_rate(scenario, gains, plan, assoc, mac, cfg)
    b = mc_su_rate(scenario, gains, plan, assoc, mac, cfg)
    assert np.array_equal(a.mean_rate, b.mean_rate)
    c = mc_su_rate(scenario, gains, plan, assoc, mac,
                   OracleConfig(n_realizations=500, seed=12))
    assert not np.array_equal(a.mean_rate, c.mean_rate)


def test_mc_mu_single_stream_matches_su_distribution():
    # A single-user cell forces S=1, where the ZF pipeline degenerates to
    # conjugate beamforming: means must agree within Monte Carlo error.
    scenario, gains, plan, assoc, mac = _single_ap_setup(6, 1e-7)
    cfg = OracleConfig(n_realizations=20_000, seed=5)
    su = mc_su_rate(scenario, gains, plan, assoc, mac, cfg)
    mu = mc_mu_rate(scenario, gains, plan, assoc, mac, cfg)
    tol = 4 * math.sqrt(su.std_error[0] ** 2 + mu.std_error[0] ** 2)
    assert abs(su.mean_rate[0] - mu.mean_rate[0]) < max(tol, 0.02)


def test_mc_mu_two_streams_close_to_deterministic():
    scenario, gains, plan, assoc, mac = _single_ap_setup(10, 1e-7, n_users=2)
    cfg = OracleConfig(n_realizations=20_000, seed=6)
    rep = mc_mu_rate(scenario, gains, plan, assoc, mac, cfg)
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
    cfg = OracleConfig(n_realizations=20_000, seed=7)
    dist = mc_dist_rate(scenario, gains, plan, cfg)

    ch_plan = ChannelPlan(channel_preset("1x80"), {0: 0}, 0)
    assoc = AssociationMap(sets={0: (0, 1)}, permutation_seed=0)
    graph = build_contention_graph(gains, ch_plan, scenario.aps, None)
    from wlanmodel.csma import ChannelCtmc, CtmcMode, stationary_distribution
    mac = {0: ChannelCtmc(0, (0,), stationary_distribution(
        np.array([[1]]), rho=100.0, mode=CtmcMode.NO_CSMA))}
    mu = mc_mu_rate(scenario, gains, ch_plan, assoc, mac, cfg)
    rel = np.abs(dist.mean_rate - mu.mean_rate) / mu.mean_rate
    assert np.all(rel < 0.05)


def test_mc_dist_symmetric_close_to_deterministic():
    scenario, gains, plan = _cluster_setup(5, 4, 10)
    cfg = OracleConfig(n_realizations=4000, seed=8)
    rep = mc_dist_rate(scenario, gains, plan, cfg)
    det, s_star = dist_mu_rate(plan.clusters[0], gains, scenario.aps,
                               list(range(10)))
    rel = np.abs(rep.mean_rate - det) / det
    assert np.all(rel < 0.10)


def test_mc_dist_full_rank_square_case():
    # S = B*M: the composite matrix is square and a.s. invertible.
    scenario, gains, plan = _cluster_setup(2, 2, 4, g=1e-6)
    det, s_star = dist_mu_rate(plan.clusters[0], gains, scenario.aps,
                               list(range(4)))
    cfg = OracleConfig(n_realizations=2000, seed=9)
    rep = mc_dist_rate(scenario, gains, plan, cfg)
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
            cfg = OracleConfig(n_realizations=4000, seed=seed)
            rep = mc_su_rate(scenario, gains, plan, assoc, mac, cfg)
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
    cfg = OracleConfig(n_realizations=6000, seed=5)
    rep = mc_su_rate(scenario, gains, plan, assoc, mac, cfg)
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
                     OracleConfig(n_realizations=4000, seed=13, subcarriers=1))
    four = mc_su_rate(scenario, gains, plan, assoc, mac,
                      OracleConfig(n_realizations=4000, seed=13, subcarriers=4))
    assert four.mean_rate[0] == pytest.approx(one.mean_rate[0], rel=0.03)
    assert four.std_error[0] < one.std_error[0]

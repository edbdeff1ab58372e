import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlanmodel.csma import ChannelCtmc, CtmcMode, stationary_distribution
from wlanmodel.propagation import GainMatrix
from wlanmodel.radio_plan import AssociationMap, Cluster
from wlanmodel import rates as rates_module
from wlanmodel.rates import (
    RateMode,
    TechConfig,
    Technology,
    _zf_sinr,
    ap_groups,
    average_over_ctmc,
    chain_average_rates,
    dist_mu_rate,
    mu_channel_state_rates,
    peak_rate_matrix,
    spectral_efficiency,
    su_channel_state_rates,
    throughput_cdf,
    throughput_report,
    zf_rates,
)
from wlanmodel.scenario import ApNode

GAUSS = TechConfig()
QUANT = TechConfig(rate_mode=RateMode.QUANTIZED)


def _gains(ap_to_ut, ap_to_ap=None):
    ap_to_ut = np.asarray(ap_to_ut, dtype=float)
    n = ap_to_ut.shape[0]
    if ap_to_ap is None:
        ap_to_ap = np.zeros((n, n))
    return GainMatrix(ap_to_ut=ap_to_ut, ap_to_ap=np.asarray(ap_to_ap, float))


def _aps(n, antennas=4, power_db=90.0):
    return tuple(ApNode(i, (float(i), 0.0), antennas=antennas, power_db=power_db)
                 for i in range(n))


def _su(gains, assoc, aps, state, tech=GAUSS):
    """SU rates of one activation vector, every AP on one channel."""
    return su_channel_state_rates(gains, assoc, aps, list(range(len(aps))),
                                  np.array([state]), tech,
                                  gains.ap_to_ut.shape[1])[0]


def _mu(gains, assoc, aps, state, tech=GAUSS):
    """MU rates and per-AP stream counts of one activation vector."""
    rates, streams = mu_channel_state_rates(
        gains, assoc, aps, list(range(len(aps))), np.array([state]), tech,
        gains.ap_to_ut.shape[1])
    return rates[0], streams[0]


def _peak(gains, aps):
    return peak_rate_matrix(gains, aps)[0][0, 0]


def test_peak_rate_unit_snr():
    gains = _gains([[0.25]])
    aps = (ApNode(0, (0.0, 0.0), antennas=4, power_db=0.0),)  # g*M*P = 1
    assert _peak(gains, aps) == pytest.approx(1.0)


def test_peak_rate_direct_value():
    gains = _gains([[1e-7]])
    aps = _aps(1, antennas=4, power_db=90.0)  # g*M*P = 400
    assert _peak(gains, aps) == pytest.approx(math.log2(401))
    assert peak_rate_matrix(gains, aps)[1][0, 0] == pytest.approx(400.0)


def test_peak_rate_vanishing_gain():
    gains = _gains([[1e-300]])
    aps = _aps(1)
    assert _peak(gains, aps) == pytest.approx(0.0, abs=1e-12)


def test_su_rate_inactive_ap_zero():
    gains = _gains([[1e-7, 1e-7]])
    assoc = AssociationMap(sets={0: (0, 1)})
    rates = _su(gains, assoc, _aps(1), [0])
    assert np.all(rates == 0.0)


def test_su_rate_isolated_cell_of_two():
    gains = _gains([[1e-7, 1e-7]])
    assoc = AssociationMap(sets={0: (0, 1)})
    rates = _su(gains, assoc, _aps(1), [1])
    assert rates == pytest.approx([math.log2(401) / 2, math.log2(401) / 2])


def test_su_rate_matched_interferer():
    # Interferer received power equals the beamformed signal power, both
    # huge, so SINR -> 1 and each user rate -> log2(2)/|cell| = 1/1.
    g_signal = 1e-2   # g*M*P = 4e7
    g_interf = 4e-2   # g*P   = 4e7
    gains = _gains([[g_signal, 0.0], [0.0, g_interf]],
                   ap_to_ap=np.full((2, 2), 1e-9))
    assoc = AssociationMap(sets={0: (0,), 1: (1,)})
    aps = _aps(2, antennas=4, power_db=90.0)
    # user 0 of AP0 sees AP1's g=4e-2: swap roles so interference hits user 0
    gains.ap_to_ut[1, 0] = g_interf
    rates = _su(gains, assoc, aps, [1, 1])
    assert rates[0] == pytest.approx(1.0, rel=1e-6)


def test_mu_sinr_reduces_to_su_at_single_stream():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = float(rng.uniform(1e-9, 1e-4))
        m = int(rng.integers(1, 16))
        p = float(10 ** rng.uniform(6, 10))
        interf = float(rng.uniform(0, 1e3))
        su = g * m * p / (1.0 + interf)
        assert _zf_sinr(m, 1, g * p, 1, 1.0 + interf) == pytest.approx(su, rel=1e-12)


def test_mu_sinr_direct_value_and_limits():
    assert _zf_sinr(4, 1, 1e-7 * 1e9, 2, 1.0) == pytest.approx(150.0)
    assert _zf_sinr(4, 1, 1e-7 * 1e9, 2, 1.0 + 1e12) == pytest.approx(0.0, abs=1e-9)
    # Pooling B arrays of M antennas: (B*M - S + 1)/B per stream.
    assert _zf_sinr(8, 2, 1.0, 3, 1.0) == pytest.approx(1.0)


def test_zf_rates_respects_stream_caps():
    # Strong links favor full multiplexing, so the cap binds in each group.
    gp = np.full(6, 1e6)
    rates, streams = zf_rates(gp, np.ones(6), np.array([0, 0, 0, 1, 1, 1]),
                              np.array([8, 8]), np.array([1, 1]),
                              np.array([2, 0]), GAUSS)
    assert streams.tolist() == [2, 0]
    assert np.all(rates[:3] > 0) and np.all(rates[3:] == 0)


def _mu_oracle(g_cell, m, p, denom, n_cell, tech):
    """Independent brute-force stream search for one AP."""
    best = None
    for s in range(1, min(m, n_cell) + 1):
        sinr = (m - s + 1) * np.asarray(g_cell) * p / s / denom
        eff = spectral_efficiency(sinr, tech)
        obj = (s / n_cell) * float(np.sum(eff))
        if best is None or obj > best[1]:
            best = (s, obj, (s / n_cell) * eff)
    return best


def test_mu_rate_state_matches_brute_force():
    gains = _gains([[1e-7, 1e-7, 1e-7, 1e-7]])
    assoc = AssociationMap(sets={0: (0, 1, 2, 3)})
    aps = _aps(1, antennas=4)
    rates, streams = _mu(gains, assoc, aps, [1])
    s_star, _, expected = _mu_oracle([1e-7] * 4, 4, 1e9, 1.0, 4, GAUSS)
    assert streams[0] == s_star == 4  # high SNR favors full multiplexing
    assert rates == pytest.approx(expected)


def test_mu_rate_state_random_instances_match_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n_users = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        g_cell = rng.uniform(1e-9, 1e-5, n_users)
        gains = _gains(g_cell[None, :])
        assoc = AssociationMap(sets={0: tuple(range(n_users))})
        aps = _aps(1, antennas=m)
        tech = QUANT if rng.random() < 0.5 else GAUSS
        rates, streams = _mu(gains, assoc, aps, [1], tech)
        s_star, _, expected = _mu_oracle(g_cell, m, 1e9, 1.0, n_users, tech)
        assert streams[0] == s_star
        assert rates == pytest.approx(expected)


def test_mu_heavy_interference_reverts_to_single_stream():
    gains = _gains(np.full((2, 3), 1e-5), ap_to_ap=np.full((2, 2), 1e-9))
    gains.ap_to_ut[1, :2] = 1e-2  # crushing interference onto AP 0's users
    assoc = AssociationMap(sets={0: (0, 1), 1: (2,)})
    aps = _aps(2, antennas=4)
    rates, streams = _mu(gains, assoc, aps, [1, 1])
    assert streams[0] == 1


def test_mu_single_user_cell_equals_su():
    gains = _gains([[3e-7]])
    assoc = AssociationMap(sets={0: (0,)})
    aps = _aps(1, antennas=4)
    mu, streams = _mu(gains, assoc, aps, [1])
    su = _su(gains, assoc, aps, [1])
    assert streams[0] == 1
    assert mu == pytest.approx(su, abs=1e-12)


def _dist_oracle(g_sum, n_ant, b, p_sum, k, interf, tech):
    table = {}
    best = None
    for s in range(1, min(k, n_ant) + 1):
        factor = (n_ant - (s - 1)) / b
        sinr = factor * np.asarray(g_sum) * (p_sum / s) / (1.0 + interf)
        rates = (s / k) * np.asarray(spectral_efficiency(sinr, tech))
        table[s] = rates
        if best is None or rates.sum() > best[1]:
            best = (s, rates.sum())
    return best[0], table


def test_dist_rate_direct_value():
    # B=2, M=4, per-AP g = 1e-7 (sum 2e-7), per-AP P = 1e9 (sum 2e9), K=8.
    cluster = Cluster(ap_ids=(0, 1), channel_id=0)
    g = np.full((2, 8), 1e-7)
    gains = _gains(g)
    aps = _aps(2, antennas=4)
    users = list(range(8))
    rates, s_star = dist_mu_rate(cluster, gains, aps, users)
    oracle_s, table = _dist_oracle(np.full(8, 2e-7), 8, 2, 2e9, 8,
                                   np.zeros(8), GAUSS)
    assert s_star == oracle_s
    assert rates == pytest.approx(table[oracle_s])
    # the S=4 entry evaluates to (4/8) * log2(1 + 2.5 * 2e-7 * 5e8) per user
    assert table[4][0] == pytest.approx(0.5 * math.log2(251))


def test_dist_rate_single_user():
    cluster = Cluster(ap_ids=(0, 1, 2), channel_id=0)
    gains = _gains(np.full((3, 1), 1e-7))
    aps = _aps(3, antennas=4)
    rates, s_star = dist_mu_rate(cluster, gains, aps, [0])
    assert s_star == 1
    assert rates[0] == pytest.approx(math.log2(1 + 4 * 3e-7 * 3e9))


def test_dist_equals_concentrated_at_single_ap():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n_users = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        g = rng.uniform(1e-9, 1e-5, n_users)
        p_db = float(rng.uniform(60, 100))
        aps = _aps(1, antennas=m, power_db=p_db)
        gains = _gains(g[None, :])
        assoc = AssociationMap(sets={0: tuple(range(n_users))})
        mu, streams = _mu(gains, assoc, aps, [1])
        cluster = Cluster(ap_ids=(0,), channel_id=0)
        dist, s_star = dist_mu_rate(cluster, gains, aps, list(range(n_users)))
        assert s_star == streams[0]
        assert np.max(np.abs(dist - mu)) <= 1e-12


def test_dist_co_channel_interference_lowers_rates():
    cluster = Cluster(ap_ids=(0, 1), channel_id=0)
    gains = _gains(np.full((2, 4), 1e-7))
    aps = _aps(2, antennas=4)
    clean, _ = dist_mu_rate(cluster, gains, aps, list(range(4)))
    noisy, _ = dist_mu_rate(cluster, gains, aps, list(range(4)),
                            co_channel_interference=np.full(4, 50.0))
    assert np.all(noisy < clean)


def test_average_over_ctmc_cases():
    one = stationary_distribution(np.array([[1]]), rho=5.0)
    assert average_over_ctmc(np.array([[3.5]]), one)[0] == pytest.approx(3.5)

    two = stationary_distribution(np.array([[0], [1]]), rho=1.0)  # equiprobable
    avg = average_over_ctmc(np.array([[2.0], [0.0]]), two)
    assert avg[0] == pytest.approx(1.0)

    with pytest.raises(ValueError):
        average_over_ctmc(np.zeros((3, 2)), two)


def test_average_over_ctmc_prism_hand_sum():
    from tests.test_csma import PRISM_EDGES, make_graph
    from wlanmodel.csma import enumerate_states
    graph = make_graph(6, PRISM_EDGES)
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    rho = 3.0
    model = stationary_distribution(states, rho)
    # Symmetric rates: every user of AP0 gets 2.0 whenever AP0 is on.
    state_rates = 2.0 * np.tile(states[:, [0]], (1, 3)).astype(float)
    avg = average_over_ctmc(state_rates, model)
    z = 1 + 6 * rho + 6 * rho ** 2
    share0 = (rho + 2 * rho ** 2) / z  # AP0: one singleton + two pairs
    assert avg == pytest.approx(2.0 * share0)


def test_average_over_ctmc_linear():
    rng = np.random.default_rng(3)
    states = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    model = stationary_distribution(states, rho=2.0)
    rates = rng.uniform(0, 5, size=(4, 6))
    base = average_over_ctmc(rates, model)
    scaled = average_over_ctmc(3.0 * rates, model)
    assert scaled == pytest.approx(3.0 * base)


def test_throughput_report_cdf_example():
    rates = np.array([1.0, 2.0, 2.0, 4.0])
    rep = throughput_report(rates, np.zeros(4, int), np.full(4, 20e6), GAUSS)
    # F(40 Mb/s) = 3/4
    idx = np.searchsorted(rep.cdf_values, 40e6, side="right") - 1
    assert rep.cdf_fractions[idx] == pytest.approx(0.75)
    assert rep.throughput_bps == pytest.approx([20e6, 40e6, 40e6, 80e6])


def test_throughput_report_single_user_step():
    rep = throughput_report(np.array([2.0]), np.zeros(1, int),
                            np.array([20e6]), GAUSS)
    assert rep.cdf_values.tolist() == [40e6]
    assert rep.cdf_fractions.tolist() == [1.0]


def test_throughput_report_quantized_uses_ofdm_factor():
    rates = np.array([6.0])
    rep = throughput_report(rates, np.zeros(1, int), np.array([20e6]), QUANT)
    assert rep.throughput_bps[0] == pytest.approx(20e6 * 0.65 * 6.0)
    gauss = throughput_report(rates, np.zeros(1, int), np.array([20e6]), GAUSS)
    assert gauss.throughput_bps[0] == pytest.approx(20e6 * 6.0)


def test_throughput_report_quantized_factor_per_user_width():
    # One OFDM factor per distinct width, gathered back to every user.
    from wlanmodel.metrics import ofdm_efficiency
    widths = np.array([20e6, 80e6, 20e6, 40e6, 80e6])
    rates = np.linspace(0.5, 5.0, widths.size)
    rep = throughput_report(rates, np.zeros(widths.size, int), widths, QUANT)
    want = [w * ofdm_efficiency(round(w / 1e6)) * r for w, r in zip(widths, rates)]
    assert rep.throughput_bps.tolist() == want


def test_quantized_below_first_mcs_is_zero_throughput():
    # SINR of 1 dB quantizes to zero efficiency.
    sinr = 10 ** (1.0 / 10)
    assert spectral_efficiency(sinr, QUANT) == 0.0


def test_overhead_discount_bounds():
    with pytest.raises(ValueError):
        throughput_report(np.array([1.0]), np.zeros(1, int),
                          np.array([20e6]), GAUSS, overhead_discount=0.0)
    rep = throughput_report(np.array([1.0]), np.zeros(1, int),
                            np.array([20e6]), GAUSS, overhead_discount=0.5)
    assert rep.throughput_bps[0] == pytest.approx(10e6)


def test_cdf_contract_property():
    rng = np.random.default_rng(12)
    for _ in range(20):
        t = rng.uniform(0, 1e8, size=int(rng.integers(1, 50)))
        values, fractions = throughput_cdf(t)
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(fractions) > 0)
        assert fractions[-1] == 1.0


def test_adding_interferer_never_increases_sinr():
    rng = np.random.default_rng(8)
    for _ in range(300):
        g = float(rng.uniform(1e-9, 1e-4))
        m = int(rng.integers(1, 12))
        s = int(rng.integers(1, m + 1))
        p = float(10 ** rng.uniform(6, 10))
        base_i = float(rng.uniform(0, 100))
        extra = float(rng.uniform(1e-6, 100))
        assert _zf_sinr(m, 1, g * p, s, 1.0 + base_i + extra) < \
            _zf_sinr(m, 1, g * p, s, 1.0 + base_i)


_TECH = st.sampled_from([GAUSS, QUANT])
_GAIN = st.floats(1e-9, 1e-4)


@st.composite
def _groups(draw):
    """Per-user gP, 1 + I and group index, plus per-group antenna counts."""
    n_groups = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 5), min_size=n_groups, max_size=n_groups))
    n_users = sum(sizes)
    gp = np.array(draw(st.lists(st.floats(1e-2, 1e5), min_size=n_users,
                                max_size=n_users)))
    one_plus_i = 1.0 + np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=n_users,
                                              max_size=n_users)))
    group = np.repeat(np.arange(n_groups), sizes)
    n_ant = np.array(draw(st.lists(st.integers(1, 12), min_size=n_groups,
                                   max_size=n_groups)))
    return gp, one_plus_i, group, n_ant, np.array(sizes)


@settings(max_examples=60, deadline=None)
@given(_groups(), _TECH)
def test_zf_rates_single_stream_is_su_formula(case, tech):
    gp, one_plus_i, group, n_ant, sizes = case
    rates, streams = zf_rates(gp, one_plus_i, group, n_ant, np.ones_like(n_ant),
                              np.ones_like(n_ant), tech)
    expected = spectral_efficiency(n_ant[group] * gp / one_plus_i, tech) / sizes[group]
    assert np.all(streams == 1)
    assert np.allclose(rates, expected, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(_GAIN, min_size=1, max_size=6), st.integers(1, 9),
       st.floats(60.0, 100.0), _TECH)
def test_pooled_single_ap_equals_concentrated(g, m, power_db, tech):
    g = np.array(g)
    aps = _aps(1, antennas=m, power_db=power_db)
    gains = _gains(g[None, :])
    assoc = AssociationMap(sets={0: tuple(range(g.size))})
    mu, streams = _mu(gains, assoc, aps, [1], tech)
    cluster = Cluster(ap_ids=(0,), channel_id=0)
    dist, s_star = dist_mu_rate(cluster, gains, aps, list(range(g.size)), tech)
    assert s_star == streams[0]
    assert np.max(np.abs(dist - mu)) <= 1e-12 * max(1.0, np.max(mu))


@settings(max_examples=100, deadline=None)
@given(_groups(), _TECH, st.data())
def test_group_rate_never_rises_with_interference(case, tech, data):
    gp, one_plus_i, group, n_ant, sizes = case
    cap = np.minimum(n_ant, sizes)
    pool = np.ones_like(n_ant)
    k = data.draw(st.integers(0, gp.size - 1))
    louder = one_plus_i.copy()
    louder[k] += data.draw(st.floats(1e-3, 1e4))
    before, _ = zf_rates(gp, one_plus_i, group, n_ant, pool, cap, tech)
    after, _ = zf_rates(gp, louder, group, n_ant, pool, cap, tech)
    for j in range(n_ant.size):
        sel = group == j
        assert after[sel].sum() <= before[sel].sum() * (1.0 + 1e-12)


def test_small_array_group_leaves_other_groups_search_intact():
    # Group 1 has one antenna, so S = 3 would drive its SINR negative; the
    # four-antenna group 0 must still reach its best S = 4.
    gp = np.full(5, 1e6)
    rates, streams = zf_rates(gp, np.ones(5), np.array([0, 0, 0, 0, 1]),
                              np.array([4, 1]), np.array([1, 1]),
                              np.array([4, 1]), GAUSS)
    assert streams.tolist() == [4, 1]
    assert np.all(np.isfinite(rates))



def copying_zf_rates(gp, one_plus_i, group, n_ant, n_pool, cap, tech):
    """zf_rates with a fresh array at every step (np.where for the kept
    search result): the reference for the version that writes in place."""
    size = np.maximum(np.bincount(group, minlength=cap.size), 1)
    n_ant_u, n_pool_u = n_ant[group], n_pool[group]
    eff = spectral_efficiency(_zf_sinr(n_ant_u, n_pool_u, gp, 1, one_plus_i), tech)
    best_s = np.broadcast_to(np.minimum(cap, 1), eff.shape[:-1] + cap.shape)
    share = np.minimum(cap, 1) / size
    if cap.max(initial=0) > 1:
        member = np.zeros((group.size, cap.size))
        member[np.arange(group.size), group] = 1.0
        best_obj = (1 / size) * (eff @ member)
        best_s = best_s.copy()
        for s in range(2, int(cap.max()) + 1):
            eff_s = spectral_efficiency(
                _zf_sinr(n_ant_u, n_pool_u, gp, s, one_plus_i), tech)
            obj = (s / size) * (eff_s @ member)
            better = (obj > best_obj) & (s <= cap)
            best_obj = np.where(better, obj, best_obj)
            best_s[better] = s
            eff = np.where(better[..., group], eff_s, eff)
        share = best_s / size
    return eff * share[..., group], best_s


@settings(max_examples=100, deadline=None)
@given(_groups(), _TECH, st.booleans(), st.data())
def test_zf_rates_keeps_its_inputs_and_matches_copying_version(case, tech, multi, data):
    # SU (every cap 1) and MU (caps up to min(M, |cell|)), pooled or not,
    # over one state or a block of states with their own interference.
    gp, one_plus_i, group, n_ant, sizes = case
    cap = np.minimum(n_ant, sizes) if multi else np.ones_like(n_ant)
    pool = np.array(data.draw(st.lists(st.integers(1, 3), min_size=n_ant.size,
                                       max_size=n_ant.size)))
    scales = data.draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4))
    if len(scales) > 1:
        one_plus_i = 1.0 + np.array(scales)[:, None] * (one_plus_i - 1.0)
    gp_before, i_before = gp.copy(), one_plus_i.copy()
    rates, streams = zf_rates(gp, one_plus_i, group, n_ant, pool, cap, tech)
    assert gp.tobytes() == gp_before.tobytes()
    assert one_plus_i.tobytes() == i_before.tobytes()
    want_rates, want_streams = copying_zf_rates(gp, one_plus_i, group, n_ant, pool, cap, tech)
    assert rates.shape == want_rates.shape and rates.tobytes() == want_rates.tobytes()
    assert np.array_equal(streams, want_streams)

@st.composite
def _contended_channel(draw):
    """A channel of 1-5 member APs, the first user-less, among APs on other
    channels that hold users too; its chain runs over random 0/1 states."""
    n_members = draw(st.integers(1, 5))
    n_aps = n_members + draw(st.integers(1, 3))
    n_users = draw(st.integers(1, 12))
    serving = draw(st.lists(st.integers(1, n_aps - 1), min_size=n_users,
                            max_size=n_users))
    sets = {a: tuple(k for k in range(n_users) if serving[k] == a) for a in range(n_aps)}
    gains = _gains(np.array(draw(st.lists(_GAIN, min_size=n_aps * n_users,
                                          max_size=n_aps * n_users))
                            ).reshape(n_aps, n_users))
    aps = tuple(ApNode(i, (float(i), 0.0), antennas=draw(st.integers(1, 4)),
                       power_db=90.0) for i in range(n_aps))
    every = np.array(list(itertools.product((0, 1), repeat=n_members)), dtype=np.uint8)
    rows = draw(st.lists(st.integers(0, len(every) - 1), min_size=1, unique=True))
    model = stationary_distribution(every[sorted(rows)], rho=draw(st.floats(0.1, 100.0)))
    assoc = AssociationMap(sets=sets)
    return gains, assoc, aps, list(range(n_members)), model, n_users


_CONTENDED_TECH = st.sampled_from([
    TechConfig(technology=t, rate_mode=m)
    for t in (Technology.SU_BEAMFORMING, Technology.CONCENTRATED_MU_MIMO)
    for m in (RateMode.GAUSSIAN, RateMode.QUANTIZED)])


def per_state_average(gains, assoc, aps, members, model, tech, n_users):
    """The chain average walked one state at a time: each on AP with users
    radiates P*g at every other cell's users, zf_rates gives the state's
    rates, an off AP's users get none, and pi weights the states. Returns
    the average [n_users] and the MU stream-count histogram over the
    (state, on AP with users) pairs."""
    cells = [assoc.sets.get(a, ()) for a in members]
    users = [u for cell in cells for u in cell]
    group = np.repeat(np.arange(len(members)), [len(cell) for cell in cells])
    n_ant = np.array([aps[a].antennas for a in members])
    n_cell = np.array([len(cell) for cell in cells])
    su = tech.technology == Technology.SU_BEAMFORMING
    cap = np.minimum(n_cell, 1) if su else np.minimum(n_ant, n_cell)
    power = [aps[a].power_linear for a in members]
    gp = np.array([gains.ap_to_ut[members[j], u] * power[j] for j, u in zip(group, users)])
    avg, counts = np.zeros(n_users), {}
    for row, p in zip(model.rows(), model.pi()):
        interference = np.zeros(len(users))
        for j, a in enumerate(members):
            if row[j] and cells[j]:
                for k, (g, u) in enumerate(zip(group, users)):
                    if g != j:
                        interference[k] += power[j] * gains.ap_to_ut[a, u]
        rates, streams = zf_rates(gp, 1.0 + interference, group, n_ant,
                                  np.ones_like(n_ant), cap, tech)
        for k, (g, u) in enumerate(zip(group, users)):
            if row[g]:
                avg[u] += p * rates[k]
        for j, s in enumerate(streams):
            if row[j] and cells[j] and not su:
                counts[int(s)] = counts.get(int(s), 0) + 1
    return avg, dict(sorted(counts.items()))


@settings(max_examples=150, deadline=None)
@given(_contended_channel(), _CONTENDED_TECH, st.integers(2, 7))
def test_streamed_chain_average_equals_dense_average(channel, tech, odd):
    gains, assoc, aps, members, model, n_users = channel
    want, counts = per_state_average(gains, assoc, aps, members, model, tech, n_users)
    width = max(sum(len(assoc.sets[a]) for a in members), len(members))
    for budget in (rates_module.BLOCK_BYTES, 1, 8 * width * (2 * odd - 1)):
        with mock.patch.object(rates_module, "BLOCK_BYTES", budget):
            avg, chosen = chain_average_rates(
                gains, aps, ap_groups(assoc, {0: ChannelCtmc(members, model)})[0],
                tech, n_users)
        np.testing.assert_allclose(avg, want, rtol=1e-12, atol=1e-12)
        assert chosen == counts


@st.composite
def _wide_channel(draw):
    """A channel of 9-70 member APs, so two or more byte planes and, past 64
    members, two words a state, over random state rows; one crowded cell of
    up to 40 users, the rest spread over every AP, a few of them on other
    channels. Gains are lognormal from a drawn seed, some of them zero."""
    n_members = draw(st.integers(9, 70))
    n_aps = n_members + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    crowd = draw(st.integers(0, 40))
    n_users = crowd + draw(st.integers(1, 12))
    serving = np.concatenate([np.full(crowd, draw(st.integers(0, n_members - 1))),
                              rng.integers(0, n_aps, n_users - crowd)])
    sets = {a: tuple(np.flatnonzero(serving == a).tolist()) for a in range(n_aps)}
    ap_to_ut = 10.0 ** rng.uniform(-9, -4, (n_aps, n_users)) * (rng.random((n_aps, n_users)) > 0.1)
    aps = tuple(ApNode(i, (float(i), 0.0), antennas=int(rng.integers(1, 5)), power_db=90.0)
                for i in range(n_aps))
    rows = rng.random((draw(st.integers(1, 12)), n_members)) < rng.uniform(0.05, 0.6)
    model = stationary_distribution(rows, rho=draw(st.floats(0.1, 100.0)))
    assoc = AssociationMap(sets=sets)
    return _gains(ap_to_ut), assoc, aps, list(range(n_members)), model, n_users


@settings(max_examples=60, deadline=None)
@given(_wide_channel(), _CONTENDED_TECH, st.integers(1, 5))
def test_wide_chain_average_equals_per_state_average(channel, tech, columns):
    # Under the small budgets a table holds one or a few user columns, so
    # the crowded cell's table is built in column slices for every block.
    gains, assoc, aps, members, model, n_users = channel
    want, counts = per_state_average(gains, assoc, aps, members, model, tech, n_users)
    planes = -(-len(members) // 8)
    for budget in (rates_module.BLOCK_BYTES, 1, 4 * 2048 * planes * columns):
        with mock.patch.object(rates_module, "BLOCK_BYTES", budget):
            avg, chosen = chain_average_rates(
                gains, aps, ap_groups(assoc, {0: ChannelCtmc(members, model)})[0],
                tech, n_users)
        np.testing.assert_allclose(avg, want, rtol=1e-12, atol=1e-12)
        assert chosen == counts


def test_stream_counts_of_a_two_ap_chain():
    # No mutual interference and gP = 1000 for every user, M = 4. AP 0 has
    # one user, so it serves S = 1; AP 1 has two: S = 1 scores
    # log2(1 + 4000) = 11.97 and S = 2 scores 2 log2(1 + 3 * 1000 / 2) = 21.1.
    # Each AP is on in two of the four equally likely states.
    aps = _aps(2, antennas=4, power_db=90.0)
    gains = _gains([[1e-6, 0.0, 0.0], [0.0, 1e-6, 1e-6]])
    assoc = AssociationMap(sets={0: (0,), 1: (1, 2)})
    model = stationary_distribution(
        np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8), rho=1.0)
    tech = TechConfig(technology=Technology.CONCENTRATED_MU_MIMO)
    avg, counts = chain_average_rates(
        gains, aps, ap_groups(assoc, {0: ChannelCtmc((0, 1), model)})[0], tech, 3)
    assert counts == {1: 2, 2: 2}
    assert avg == pytest.approx(
        [0.5 * math.log2(4001), 0.5 * math.log2(1501), 0.5 * math.log2(1501)],
        rel=1e-12)

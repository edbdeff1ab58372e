"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time

import numpy as np

from wlanmodel import pipeline
from wlanmodel.csma import CtmcMode, enumerate_states, stationary_distribution
from wlanmodel.metrics import DEFAULT_MCS_TABLE, mcs_quantize, ofdm_efficiency
from wlanmodel.oracle import OracleConfig, _zf_precoders
from wlanmodel.propagation import GainMatrix
from wlanmodel.radio_plan import AssociationMap, Cluster
from wlanmodel.rates import (
    TechConfig,
    _zf_sinr,
    dist_mu_rate,
    mu_channel_state_rates,
    su_channel_state_rates,
)
from wlanmodel.scenario import ApNode

from tests.test_csma import (
    PRISM_EDGES,
    brute_force_independent_sets,
    make_graph,
    states_to_sets,
)


def _report(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_ctmc_exactness():
    start = time.perf_counter()
    graph = make_graph(6, PRISM_EDGES)
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    assert states.shape[0] == 13
    for rho in (1.0, 100.0, 1e4):
        model = stationary_distribution(states, rho)
        z = 1.0 + 6.0 * rho + 6.0 * rho ** 2
        for s in range(model.n_states):
            size = int(model.states[s].sum())
            assert abs(model.pi[s] - rho ** size / z) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"CTMC exactness on the 13-state graph, {elapsed:.3f}s")


def test_criterion_2_independent_set_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(1, 13))
        p = float(rng.uniform(0.1, 0.7))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        graph = make_graph(n, edges)
        states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
        assert states_to_sets(states) == brute_force_independent_sets(n, edges)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"enumeration equals 2^n brute force on 50 graphs, {elapsed:.1f}s")


def test_criterion_3_reduction_identities():
    rng = np.random.default_rng(3)
    on = np.array([[1]], dtype=np.uint8)
    for _ in range(100):
        n_users = int(rng.integers(1, 7))
        m = int(rng.integers(1, 10))
        p_db = float(rng.uniform(60, 100))
        g = rng.uniform(1e-9, 1e-4, n_users)
        aps = (ApNode(0, (0.0, 0.0), antennas=m, power_db=p_db),)
        gains = GainMatrix(ap_to_ut=g[None, :], ap_to_ap=np.zeros((1, 1)), seed=0)
        assoc = AssociationMap(sets={0: tuple(range(n_users))}, permutation_seed=0)

        # concentrated at S=1 vs single-user beamforming (formula level)
        interf = float(rng.uniform(0, 10))
        su_sinr = g[0] * m * aps[0].power_linear / (1.0 + interf)
        mu_sinr = _zf_sinr(m, 1, g[0] * aps[0].power_linear, 1, 1.0 + interf)
        assert abs(mu_sinr - su_sinr) <= 1e-12 * su_sinr

        # concentrated at S=1 vs single-user beamforming (rate level):
        # a one-user cell forces S = 1
        solo = AssociationMap(sets={0: (0,)}, permutation_seed=0)
        mu_r, streams = mu_channel_state_rates(gains, solo, aps, [0], on,
                                               TechConfig(), n_users)
        su_r = su_channel_state_rates(gains, solo, aps, [0], on,
                                      TechConfig(), n_users)
        assert streams[0, 0] == 1
        assert abs(mu_r[0, 0] - su_r[0, 0]) <= 1e-12

        # pooled array with B=1, I=0 vs concentrated with I=0
        mu_all, streams_all = mu_channel_state_rates(gains, assoc, aps, [0], on,
                                                     TechConfig(), n_users)
        cluster = Cluster(ap_ids=(0,), channel_id=0, p_sum=aps[0].power_linear)
        dist_r, s_star = dist_mu_rate(cluster, gains, aps, list(range(n_users)))
        assert s_star == streams_all[0, 0]
        assert np.max(np.abs(dist_r - mu_all[0])) <= 1e-12
    _report(3, "reduction identities exact on 100 random draws")


def test_criterion_4_zfbf_limit():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    for m, s in ((4, 2), (8, 4), (16, 8)):
        h = (rng.standard_normal((10_000, m, s))
             + 1j * rng.standard_normal((10_000, m, s))) / np.sqrt(2.0)
        _, xi = _zf_precoders(h)
        mean_xi = float(xi.mean())
        assert abs(mean_xi - (m - s + 1)) / (m - s + 1) < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"mean ZF gain within 5% of M-S+1, {elapsed:.1f}s")


def test_criterion_5_oracle_convergence():
    start = time.perf_counter()
    errors = {}
    for antennas, tolerance in ((4, 0.15), (10, 0.05)):
        cfg = pipeline.RunConfig(
            scenario={"generator": "conference_hall", "n_aps": 4,
                      "n_users": 20},
            antennas=antennas,
            oracle=OracleConfig(n_realizations=10_000),
        )
        val = pipeline.mc_validate(cfg)
        mean_det = float(val.det_rates.mean())
        mean_mc = float(val.mc_rates.mean())
        errors[antennas] = abs(mean_mc - mean_det) / mean_det
        assert errors[antennas] <= tolerance
    assert errors[10] < errors[4]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, f"oracle convergence: M=4 err {errors[4]:.2%} <= 15%, "
               f"M=10 err {errors[10]:.2%} <= 5%, decreasing, {elapsed:.1f}s")


def test_criterion_6_mcs_and_ofdm_constants():
    expected = [
        (2.0, 0.5), (5.0, 1.0), (8.0, 1.5), (12.0, 2.0), (15.0, 3.0),
        (18.0, 4.0), (21.0, 4.5), (24.0, 5.0), (27.0, 6.0),
    ]
    assert [(r.min_snr_db, r.efficiency)
            for r in DEFAULT_MCS_TABLE.rows] == expected
    for snr, eff in expected:
        assert mcs_quantize(snr) == eff
        assert mcs_quantize(snr - 1e-9) < eff
    assert mcs_quantize(2.0 - 1e-9) == 0.0
    assert ofdm_efficiency(20) == 0.65
    assert ofdm_efficiency(40) == 0.675
    assert ofdm_efficiency(80) == 0.73125
    _report(6, "MCS boundaries and OFDM factors exact")


def test_criterion_7_qualitative_trend():
    start = time.perf_counter()
    values = [10, 20, 30, 40]
    means = {}
    for tech, chan, n_clusters in (
        ("distributed_mu_mimo", "1x80", 1),
        ("su_beamforming", "4x20", 1),
        ("concentrated_mu_mimo", "4x20", 1),
    ):
        cfg = pipeline.RunConfig(
            scenario={"generator": "conference_hall", "n_aps": 10,
                      "n_users": 200},
            technology=tech, channelization=chan, n_clusters=n_clusters,
            cca_db=10.0, rate_mode="quantized",
            sweep_axis="n_aps", sweep_values=values)
        res = pipeline.sweep(cfg)
        assert not res.errors
        means[tech] = [res.summaries[v]["mean"] for v in values]

    dist = means["distributed_mu_mimo"]
    assert all(b >= a * (1 - 1e-9) for a, b in zip(dist, dist[1:]))
    for tech in ("su_beamforming", "concentrated_mu_mimo"):
        m20, m40 = means[tech][1], means[tech][3]
        assert abs(m40 - m20) / m20 < 0.10
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(7, "pooled-array throughput grows with AP count while "
               f"contended schemes saturate, {elapsed:.1f}s")


def test_criterion_8_interference_monotonicity():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        g = float(rng.uniform(1e-9, 1e-4))
        m = int(rng.integers(1, 12))
        s = int(rng.integers(1, m + 1))
        p = float(10 ** rng.uniform(6, 10))
        base = float(rng.uniform(0, 100))
        extra = float(10 ** rng.uniform(-3, 3))  # one more active interferer
        assert _zf_sinr(m, 1, g * p, s, 1.0 + base + extra) < \
            _zf_sinr(m, 1, g * p, s, 1.0 + base)
    _report(8, "added interferers never raise any SINR (1000 instances)")


def test_criterion_9_cdf_contract():
    configs = [
        dict(technology="su_beamforming", rate_mode="gaussian"),
        dict(technology="su_beamforming", rate_mode="quantized", cca_db=None),
        dict(technology="concentrated_mu_mimo", rate_mode="quantized"),
        dict(technology="distributed_mu_mimo", channelization="1x80",
             rate_mode="gaussian"),
        dict(technology="distributed_mu_mimo", channelization="2x40",
             n_clusters=4, rate_mode="quantized"),
    ]
    for extra in configs:
        cfg = pipeline.RunConfig(
            scenario={"generator": "conference_hall", "n_aps": 6,
                      "n_users": 30}, **extra)
        report = pipeline.evaluate(cfg).report
        assert np.all(np.diff(report.cdf_values) >= 0)
        assert np.all(np.diff(report.cdf_fractions) > 0)
        assert report.cdf_fractions[-1] == 1.0
        assert report.cdf_fractions[0] > 0
    _report(9, "throughput CDFs nondecreasing with terminal value 1")

"""The array plan stages against the Python loops they replaced.

Channel assignment, both greedy associations and the contention graph were
once written as explicit per-AP and per-user loops. Those loops are kept
here as references, and the array versions must reproduce them exactly on
inputs full of ties: integer-valued gains, repeated and all-zero columns,
sums whose value depends on the order they are added in, and channels with
more than 64 APs (neighbour masks wider than a machine word).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wlanmodel.csma import _neighbor_masks, build_contention_graph
from wlanmodel.propagation import GainMatrix
from wlanmodel.radio_plan import (
    Channel,
    ChannelPlan,
    Cluster,
    ClusterPlan,
    assign_channels,
    associate_users,
    associate_users_to_clusters,
)
from wlanmodel.rates import peak_rate_matrix
from wlanmodel.scenario import ApNode

# Integers tie exactly; 0.1 + 0.2 + 0.3 differs from 0.3 + 0.2 + 0.1 and
# from 0.6, so a changed summation order changes some comparisons.
GAIN_VALUES = (0.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 0.6)


def ref_assign_channels(gains, aps, channels, seed):
    rng = np.random.default_rng([seed, 0])
    order = rng.permutation(len(aps))
    powers = np.array([ap.power_linear for ap in aps])
    assignment = {}
    members = {ch.id: [] for ch in channels}
    for i in order:
        best_id, best_interf = None, math.inf
        for ch in channels:
            interf = sum(powers[j] * gains.ap_to_ap[j, i] for j in members[ch.id])
            if interf < best_interf:
                best_id, best_interf = ch.id, interf
        assignment[int(i)] = best_id
        members[best_id].append(int(i))
    return assignment


def ref_associate_users(peak_rates, seed, fallback_metric=None):
    n_aps, n_users = peak_rates.shape
    order = np.random.default_rng([seed, 1]).permutation(n_users)
    sets = {i: [] for i in range(n_aps)}
    zero_rate = set()
    for k in order:
        k = int(k)
        col = peak_rates[:, k]
        if np.all(col <= 0):
            zero_rate.add(k)
            col = fallback_metric[:, k] if fallback_metric is not None else col
            best = int(np.argmax(col))
        else:
            scores = col / np.array([len(sets[i]) + 1 for i in range(n_aps)])
            best = int(np.argmax(scores))
        sets[best].append(k)
    return {i: tuple(uts) for i, uts in sets.items()}, frozenset(zero_rate)


def ref_associate_users_to_clusters(gains, aps, clusters, seed):
    n_users = gains.ap_to_ut.shape[1]
    order = np.random.default_rng([seed, 3]).permutation(n_users)
    peak = np.zeros((len(clusters), n_users))
    for ci, cluster in enumerate(clusters):
        members = list(cluster.ap_ids)
        g_sum = gains.ap_to_ut[members, :].sum(axis=0)
        m_eff = sum(aps[a].antennas for a in members) / len(members)
        p_sum = float(sum(aps[a].power_linear for a in members))
        peak[ci] = np.log2(1.0 + m_eff * g_sum * p_sum)
    loads = np.zeros(len(clusters))
    user_cluster = {}
    for k in order:
        k = int(k)
        best = int(np.argmax(peak[:, k] / (loads + 1.0)))
        user_cluster[k] = best
        loads[best] += 1
    return user_cluster, frozenset(np.flatnonzero((peak <= 0).all(axis=0)).tolist())


def ref_contention_adjacency(gains, plan, aps, cca_db):
    n = len(aps)
    adjacency = {i: set() for i in range(n)}
    if cca_db is not None:
        thr = 10.0 ** (cca_db / 10.0)
        powers = np.array([ap.power_linear for ap in aps])
        for i in range(n):
            for j in range(i + 1, n):
                if plan.ap_channel[i] != plan.ap_channel[j]:
                    continue
                if powers[j] * gains.ap_to_ap[j, i] >= thr or \
                   powers[i] * gains.ap_to_ap[i, j] >= thr:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    return adjacency


def ref_neighbor_masks(members, adjacency):
    index = {ap: b for b, ap in enumerate(members)}
    masks = []
    for ap in members:
        m = 0
        for nbr in adjacency[ap]:
            if nbr in index:
                m |= 1 << index[nbr]
        masks.append(m)
    return masks


def _aps(power_db, antennas=None):
    antennas = antennas or [4] * len(power_db)
    return tuple(ApNode(i, (float(i), 0.0), antennas=m, power_db=p)
                 for i, (p, m) in enumerate(zip(power_db, antennas)))


@st.composite
def _tied_columns(draw, n_rows, n_cols, values=GAIN_VALUES):
    """[n_rows, n_cols] matrix whose columns repeat a few drawn ones, one of
    them all zero."""
    distinct = draw(arrays(float, (n_rows, draw(st.integers(1, 4))),
                           elements=st.sampled_from(values)))
    distinct = np.hstack([distinct, np.zeros((n_rows, 1))])
    pick = draw(arrays(int, n_cols, elements=st.integers(0, distinct.shape[1] - 1)))
    return distinct[:, pick]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_assign_channels_matches_the_loop(data):
    n_aps = data.draw(st.integers(1, 12))
    n_channels = data.draw(st.integers(1, 4))
    ap_to_ap = data.draw(arrays(float, (n_aps, n_aps), elements=st.sampled_from(GAIN_VALUES)))
    aps = _aps(data.draw(st.lists(st.sampled_from([0.0, 10.0]), min_size=n_aps,
                                  max_size=n_aps)))
    gains = GainMatrix(ap_to_ut=np.ones((n_aps, 1)), ap_to_ap=ap_to_ap)
    channels = tuple(Channel(c, 20e6) for c in range(n_channels))
    seed = data.draw(st.integers(0, 2**16))
    got = assign_channels(gains, aps, channels, seed).ap_channel
    assert list(got.items()) == list(ref_assign_channels(gains, aps, channels, seed).items())


def test_assign_channels_adds_in_join_order():
    # APs 2, 1, 0 join channel 0 in that order and AP 4 joins channel 1.
    # AP 3 then hears channel 0 at 0.1 + 0.2 + 0.3 = 0.6000000000000001 and
    # channel 1 at 0.6, so it takes channel 1; added in AP id order,
    # 0.3 + 0.2 + 0.1 = 0.6 would tie and channel 0 would win.
    ap_to_ap = np.zeros((5, 5))
    ap_to_ap[[2, 1, 0, 4], 3] = [0.1, 0.2, 0.3, 0.6]
    ap_to_ap[:3, 4] = 1.0
    gains = GainMatrix(ap_to_ut=np.ones((5, 1)), ap_to_ap=ap_to_ap)
    aps = _aps([0.0] * 5)
    channels = (Channel(0, 40e6), Channel(1, 40e6))
    seed = next(s for s in range(10_000)
                if list(np.random.default_rng([s, 0]).permutation(5)) == [2, 1, 0, 4, 3])
    assert 0.1 + 0.2 + 0.3 > 0.6 == 0.3 + 0.2 + 0.1
    plan = assign_channels(gains, aps, channels, seed)
    assert plan.ap_channel == ref_assign_channels(gains, aps, channels, seed)
    assert plan.ap_channel == {2: 0, 1: 0, 0: 0, 4: 1, 3: 1}


@settings(max_examples=100, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.just(0.0) | st.floats(1e-30, 1.0)), st.data())
def test_peak_snr_matches_the_product_it_replaced(g, data):
    # The AP peak SNR was g * (M * P); it is now (M * g) * P, the cluster
    # peaks' order: equal when M is a power of two, within two roundings
    # otherwise.
    n = g.shape[0]
    antennas = np.array(data.draw(st.lists(st.integers(1, 16), min_size=n, max_size=n)))
    aps = _aps(data.draw(st.lists(st.floats(-10.0, 100.0), min_size=n, max_size=n)),
               antennas.tolist())
    snr = peak_rate_matrix(GainMatrix(ap_to_ut=g, ap_to_ap=np.zeros((n, n))), aps)[1]
    old = g * np.array([ap.antennas * ap.power_linear for ap in aps])[:, None]
    power_of_two = (antennas & (antennas - 1)) == 0
    assert np.array_equal(snr[power_of_two], old[power_of_two])
    np.testing.assert_allclose(snr, old, rtol=2 * np.finfo(float).eps, atol=0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_associate_users_matches_the_loop(data):
    n_aps, n_users = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 30))
    peak = data.draw(_tied_columns(n_aps, n_users, (0.0, 1.0, 2.0, 3.0, 4.0)))
    fallback = data.draw(st.none() | _tied_columns(n_aps, n_users))
    seed = data.draw(st.integers(0, 2**16))
    assoc = associate_users(peak, seed, fallback_metric=fallback)
    sets, zero_rate = ref_associate_users(peak, seed, fallback)
    assert assoc.sets == sets
    assert assoc.zero_rate_users == zero_rate


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_associate_users_to_clusters_matches_the_loop(data):
    n_aps, n_users = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 30))
    label = data.draw(st.lists(st.integers(0, 3), min_size=n_aps, max_size=n_aps))
    clusters = tuple(Cluster(tuple(a for a in range(n_aps) if label[a] == c), 0)
                     for c in sorted(set(label)))
    aps = _aps(data.draw(st.lists(st.sampled_from([-10.0, -7.0, -5.0, 0.0, 10.0, 20.0]),
                                  min_size=n_aps, max_size=n_aps)),
               data.draw(st.lists(st.integers(1, 8), min_size=n_aps, max_size=n_aps)))
    gains = GainMatrix(ap_to_ut=data.draw(_tied_columns(n_aps, n_users)),
                       ap_to_ap=np.zeros((n_aps, n_aps)))
    seed = data.draw(st.integers(0, 2**16))
    plan = ClusterPlan(clusters=clusters)
    got = associate_users_to_clusters(gains, aps, plan, seed)
    user_cluster, zero_rate = ref_associate_users_to_clusters(gains, aps, clusters, seed)
    assert got == plan.user_cluster == user_cluster
    assert plan.zero_rate_users == zero_rate


@pytest.mark.parametrize("gain, power_db", [
    # Cluster 0 adds up to 0.3 + 0.2 + 0.1 = 0.6 and cluster 1 to
    # 0.1 + 0.2 + 0.3 = 0.6000000000000001 of gain ...
    ([0.3, 0.2, 0.1, 0.1, 0.2, 0.3], [0.0] * 6),
    # ... or of power (-10, -7, -5 dB added in that order is one ulp below
    # -5, -7, -10 dB), so the user joins cluster 1 only when each cluster
    # adds its APs in member order.
    ([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [-10.0, -7.0, -5.0, -5.0, -7.0, -10.0]),
])
def test_cluster_peaks_add_in_member_order(gain, power_db):
    aps = _aps(power_db)
    gains = GainMatrix(ap_to_ut=np.array(gain)[:, None], ap_to_ap=np.zeros((6, 6)))
    clusters = (Cluster((0, 1, 2), 0), Cluster((3, 4, 5), 0))
    plan = ClusterPlan(clusters=clusters)
    want = ref_associate_users_to_clusters(gains, aps, clusters, 0)[0]
    assert associate_users_to_clusters(gains, aps, plan, 0) == want == {0: 1}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 90), st.integers(1, 3), st.sampled_from([None, 0.0, 3.0, 10.0, 20.0]),
       st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_contention_graph_matches_the_loop(n_aps, n_channels, cca_db, density, seed):
    # Up to 90 APs on at most three channels: often more than 64 on one.
    rng = np.random.default_rng(seed)
    ap_to_ap = np.where(rng.random((n_aps, n_aps)) < density,
                        rng.choice([1.0, 2.0, 10.0], (n_aps, n_aps)), 0.0)
    aps = _aps(rng.choice([0.0, 10.0], n_aps).tolist())
    gains = GainMatrix(ap_to_ut=np.ones((n_aps, 1)), ap_to_ap=ap_to_ap)
    plan = ChannelPlan(dict(enumerate(rng.integers(0, n_channels, n_aps).tolist())))
    graph = build_contention_graph(gains, plan, aps, cca_db)
    adjacency = ref_contention_adjacency(gains, plan, aps, cca_db)
    assert graph.edges() == sorted((i, j) for i, nbrs in adjacency.items()
                                   for j in nbrs if i < j)
    for ch in sorted(set(plan.ap_channel.values())):
        members = [a for a in range(n_aps) if plan.ap_channel[a] == ch]
        assert graph.members(ch) == members
        assert _neighbor_masks(graph.adjacency[np.ix_(members, members)]) == \
            ref_neighbor_masks(members, adjacency)

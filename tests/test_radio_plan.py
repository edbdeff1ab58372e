import numpy as np
import pytest

from wlanmodel.propagation import GainMatrix, PathlossParams, gain_matrix
from wlanmodel.radio_plan import (
    assign_channels,
    associate_users,
    associate_users_to_clusters,
    build_clusters,
    channel_preset,
    isolated_snr,
)
from wlanmodel.rates import cluster_groups
from wlanmodel.scenario import ApNode, Scenario, UtNode

NO_SHADOW = PathlossParams(shadowing_sigma_db=0.0)

# Seeds whose first permutation draw is the identity (checked below) so the
# greedy hand-traces process nodes in id order.
SEED_AP_IDENTITY_3 = 1
SEED_UT_IDENTITY_3 = 3


def test_identity_seeds_still_identity():
    assert list(np.random.default_rng([SEED_AP_IDENTITY_3, 0]).permutation(3)) == [0, 1, 2]
    assert list(np.random.default_rng([SEED_UT_IDENTITY_3, 1]).permutation(3)) == [0, 1, 2]


def _fake_gains(n_aps, n_users, ap_to_ap=None, ap_to_ut=None):
    return GainMatrix(
        ap_to_ut=np.ones((n_aps, n_users)) * 1e-7 if ap_to_ut is None else ap_to_ut,
        ap_to_ap=np.ones((n_aps, n_aps)) * 1e-8 if ap_to_ap is None else ap_to_ap,
    )


def test_channel_presets():
    for name, count, width in (("4x20", 4, 20e6), ("2x40", 2, 40e6), ("1x80", 1, 80e6)):
        chans = channel_preset(name)
        assert len(chans) == count
        assert all(c.width_hz == width for c in chans)
    with pytest.raises(ValueError):
        channel_preset("3x30")


def test_assign_single_channel():
    aps = tuple(ApNode(i, (float(i), 0.0)) for i in range(5))
    plan = assign_channels(_fake_gains(5, 1), aps, channel_preset("1x80"), seed=0)
    assert set(plan.ap_channel.values()) == {0}


def test_assign_tie_rule_needs_exact_zero():
    # With exactly zero mutual gain both channels tie at 0 and the lowest id
    # wins; any strictly positive gain sends the second AP elsewhere.
    aps = (ApNode(0, (0.0, 0.0)), ApNode(1, (10.0, 0.0)))
    chans = channel_preset("2x40")
    zero = _fake_gains(2, 1, ap_to_ap=np.zeros((2, 2)))
    plan = assign_channels(zero, aps, chans, seed=0)
    assert plan.ap_channel == {0: 0, 1: 0}
    tiny = _fake_gains(2, 1, ap_to_ap=np.full((2, 2), 1e-12))
    plan = assign_channels(tiny, aps, chans, seed=0)
    assert plan.ap_channel[0] == 0
    assert plan.ap_channel[1] == 1


def test_assign_collinear_picks_farther_ap_channel():
    # APs at x = 0, 10, 12. In id order: AP0 -> ch0, AP1 -> ch1; AP2 then
    # receives less from the farther AP0, so it joins AP0's channel.
    aps = tuple(ApNode(i, (x, 0.0)) for i, x in enumerate((0.0, 10.0, 12.0)))
    users = (UtNode(0, (0.0, 1.0)),)
    scen = Scenario(width_m=20, height_m=20, aps=aps, users=users)
    gains = gain_matrix(scen, NO_SHADOW, seed=0)
    plan = assign_channels(gains, aps, channel_preset("2x40"),
                           seed=SEED_AP_IDENTITY_3)
    assert plan.ap_channel[0] == 0
    assert plan.ap_channel[1] == 1
    assert plan.ap_channel[2] == 0


def test_associate_single_ap():
    assoc = associate_users(np.full((1, 7), 2.0), seed=0)
    assert sorted(assoc.sets[0]) == list(range(7))  # join order is seeded


def test_associate_dominance():
    c = np.array([[4.0, 1.0], [1.0, 4.0]])
    assoc = associate_users(c, seed=0)
    assert assoc.serving_ap == {0: 0, 1: 1}


def test_associate_hand_trace():
    # Three identical users, both APs offer (4, 3):
    #   u0 -> AP0 (4/1 > 3/1); u1 -> AP1 (4/2 < 3/1); u2 -> AP0 (4/2 > 3/2).
    c = np.tile(np.array([[4.0], [3.0]]), (1, 3))
    assoc = associate_users(c, seed=SEED_UT_IDENTITY_3)
    assert assoc.sets[0] == (0, 2)
    assert assoc.sets[1] == (1,)


def test_associate_zero_rate_fallback():
    c = np.zeros((2, 3))
    snr = np.array([[1.0, 5.0, 1.0], [2.0, 1.0, 1.0]])
    assoc = associate_users(c, seed=0, fallback_metric=snr)
    assert assoc.zero_rate_users == frozenset({0, 1, 2})
    assert assoc.serving_ap[0] == 1
    assert assoc.serving_ap[1] == 0
    assert assoc.serving_ap[2] == 0  # tie -> lowest id


def test_associate_partitions_and_never_dominated():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n_aps = int(rng.integers(1, 6))
        n_users = int(rng.integers(1, 40))
        c = rng.uniform(0.1, 8.0, size=(n_aps, n_users))
        seed = int(rng.integers(0, 100))
        assoc = associate_users(c, seed=seed)
        served = sorted(u for uts in assoc.sets.values() for u in uts)
        assert served == list(range(n_users))
        # Replay the greedy and check each choice maximizes the ratio.
        order = np.random.default_rng([seed, 1]).permutation(n_users)
        sizes = np.zeros(n_aps)
        for k in order:
            chosen = assoc.serving_ap[int(k)]
            scores = c[:, int(k)] / (sizes + 1)
            assert scores[chosen] == pytest.approx(np.max(scores))
            sizes[chosen] += 1


def test_no_channel_structurally_starved():
    # Symmetric square of mutually interfering APs: over many seeds every
    # channel should be used somewhere.
    aps = tuple(ApNode(i, p) for i, p in enumerate(
        [(0.0, 0.0), (0.0, 10.0), (10.0, 0.0), (10.0, 10.0)]))
    users = (UtNode(0, (5.0, 5.0)),)
    scen = Scenario(width_m=10, height_m=10, aps=aps, users=users)
    gains = gain_matrix(scen, NO_SHADOW, seed=0)
    chans = channel_preset("4x20")
    used = np.zeros(4)
    for seed in range(30):
        plan = assign_channels(gains, aps, chans, seed=seed)
        for c in plan.ap_channel.values():
            used[c] += 1
    assert np.all(used > 0)


def test_build_clusters_basic():
    aps = tuple(ApNode(i, (float(i), 0.0)) for i in range(6))
    gains = _fake_gains(6, 4)
    chans = channel_preset("4x20")
    plan = build_clusters(aps, 1, chans)
    assert plan.clusters[0].ap_ids == tuple(range(6))
    # Pooled: 24 antennas over 6 APs, 6 x 1e-7 gain, 6 x 1e9 power.
    snr = isolated_snr(gains, aps, [plan.clusters[0].ap_ids])
    assert snr == pytest.approx(np.full((1, 4), 4 * 6e-7 * 6e9))
    with pytest.raises(ValueError):
        build_clusters(aps, 7, chans)


def test_build_clusters_equal_sizes_20_into_4():
    from wlanmodel.scenario import build_conference_hall
    scen = build_conference_hall(20, 10, seed=1)
    plan = build_clusters(scen.aps, 4, channel_preset("4x20"))
    sizes = sorted(len(c.ap_ids) for c in plan.clusters)
    assert sizes == [5, 5, 5, 5]
    assert sorted(a for c in plan.clusters for a in c.ap_ids) == list(range(20))


def test_build_clusters_groups_by_proximity():
    aps = (ApNode(0, (0.0, 0.0)), ApNode(1, (1.0, 0.0)),
           ApNode(2, (100.0, 100.0)), ApNode(3, (101.0, 100.0)))
    plan = build_clusters(aps, 2, channel_preset("2x40"))
    groups = {c.ap_ids for c in plan.clusters}
    assert groups == {(0, 1), (2, 3)}
    # distinct channels while clusters <= channels
    assert len({c.channel_id for c in plan.clusters}) == 2


def test_cluster_channel_cycling_and_co_channel():
    aps = tuple(ApNode(i, (float(10 * i), 0.0)) for i in range(6))
    plan = build_clusters(aps, 3, channel_preset("2x40"))
    channels = [c.channel_id for c in plan.clusters]
    assert channels == [0, 1, 0]
    assert [g.ids for g in cluster_groups(plan).values()] == [(0, 2), (1,)]


def test_user_cluster_association():
    aps = (ApNode(0, (0.0, 0.0)), ApNode(1, (1.0, 0.0)),
           ApNode(2, (100.0, 100.0)), ApNode(3, (101.0, 100.0)))
    # user 0 near cluster A, user 1 near cluster B
    g = np.array([
        [1e-5, 1e-9],
        [1e-5, 1e-9],
        [1e-9, 1e-5],
        [1e-9, 1e-5],
    ])
    gains = _fake_gains(4, 2, ap_to_ut=g)
    plan = build_clusters(aps, 2, channel_preset("2x40"))
    user_cluster = associate_users_to_clusters(gains, aps, plan, seed=0)
    near = {ci for ci, c in enumerate(plan.clusters) if 0 in c.ap_ids}.pop()
    assert user_cluster[0] == near
    assert user_cluster[1] == 1 - near


def test_single_cluster_takes_all_users():
    aps = tuple(ApNode(i, (float(i), 0.0)) for i in range(3))
    gains = _fake_gains(3, 9)
    plan = build_clusters(aps, 1, channel_preset("1x80"))
    user_cluster = associate_users_to_clusters(gains, aps, plan, seed=1)
    assert set(user_cluster.values()) == {0}


def test_symmetric_clusters_balanced_loads():
    # Two mirror-image clusters and users with identical gain rows: greedy
    # load division keeps the loads within one of each other.
    aps = (ApNode(0, (0.0, 0.0)), ApNode(1, (100.0, 0.0)))
    n_users = 14
    g = np.full((2, n_users), 1e-6)
    gains = _fake_gains(2, n_users, ap_to_ut=g)
    plan = build_clusters(aps, 2, channel_preset("2x40"))
    for seed in range(5):
        user_cluster = associate_users_to_clusters(gains, aps, plan, seed=seed)
        loads = np.bincount(list(user_cluster.values()), minlength=2)
        assert abs(int(loads[0]) - int(loads[1])) <= 1

"""Channel allocation, user-AP association, and coordination clusters.

All three use one-pass greedy rules over seeded random permutations; ties
break toward the lowest id everywhere. Users join APs and clusters through
one loop (`_greedy`) over isolated peaks, and `isolated_snr` is the one
formula behind those peaks: a group of APs serving one user alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .propagation import GainMatrix
from .scenario import ApNode

#: Channelization presets: how the 80 MHz block is partitioned.
CHANNELIZATIONS = {"4x20": (4, 20e6), "2x40": (2, 40e6), "1x80": (1, 80e6)}


@dataclass(frozen=True)
class Channel:
    id: int
    width_hz: float


def channel_preset(name: str) -> tuple[Channel, ...]:
    """Build the non-overlapping channel set for a preset name."""
    try:
        count, width = CHANNELIZATIONS[name]
    except KeyError:
        raise ValueError(f"unknown channelization {name!r} "
                         f"(choose from {sorted(CHANNELIZATIONS)})") from None
    return tuple(Channel(id=c, width_hz=width) for c in range(count))


@dataclass
class ChannelPlan:
    ap_channel: dict[int, int]


def assign_channels(gains: GainMatrix, aps: tuple[ApNode, ...],
                    channels: tuple[Channel, ...], seed: int) -> ChannelPlan:
    """Greedy channel choice in a seeded random AP order.

    Each AP takes the channel minimizing the total interference power it
    would receive from the APs already assigned there; exact ties go to the
    lowest channel id. received[c, i] adds up P_j * g_ji over the APs j on
    channel c in the order they joined.
    """
    if not channels:
        raise ValueError("need at least one channel")
    order = np.random.default_rng([seed, 0]).permutation(len(aps))
    powers = np.array([ap.power_linear for ap in aps])
    received = np.zeros((len(channels), len(aps)))
    assignment: dict[int, int] = {}
    for i in order.tolist():
        c = int(np.argmin(received[:, i]))  # ascending ids: the first minimum
        assignment[i] = channels[c].id
        received[c] += powers[i] * gains.ap_to_ap[i]
    return ChannelPlan(ap_channel=assignment)


@dataclass
class AssociationMap:
    """Per-AP ordered user sets; a partition of all users."""

    sets: dict[int, tuple[int, ...]]
    zero_rate_users: frozenset[int] = frozenset()

    def __post_init__(self):
        seen: list[int] = []
        for uts in self.sets.values():
            seen.extend(uts)
        if len(seen) != len(set(seen)):
            raise ValueError("association assigns some user twice")

    @property
    def serving_ap(self) -> dict[int, int]:
        return {ut: ap for ap, uts in self.sets.items() for ut in uts}


def isolated_snr(gains: GainMatrix, aps: tuple[ApNode, ...],
                 groups: list[tuple[int, ...]] | None = None) -> np.ndarray:
    """SNR of each group of APs serving each user alone, [n_groups, n_users]:
    (N/B * sum_b g_bk) * sum_b P_b, rounded in that order, over its B APs
    with N antennas in all: rates._zf_sinr at one stream without
    interference. Without groups every AP is one, and the gain matrix is
    read in place.
    """
    if groups is None:
        groups, g_sum = [(a,) for a in range(len(aps))], gains.ap_to_ut
    else:
        g_sum = np.array([gains.ap_to_ut[list(g)].sum(axis=0) for g in groups])
    snr = np.array([sum(aps[a].antennas for a in g) / len(g) for g in groups])[:, None] * g_sum
    snr *= np.array([sum(aps[a].power_linear for a in g) for g in groups])[:, None]
    return snr


def _greedy(peak: np.ndarray, order: np.ndarray, fallback: np.ndarray | None = None
            ) -> tuple[list[list[int]], frozenset[int]]:
    """Users (columns) in `order` each join the row maximizing peak / (its
    load after joining); argmax keeps the lowest row on ties. A user with no
    positive peak joins the argmax of its `fallback` column (of its peaks
    without one) and is zero-rate. Returns each row's users in join order
    and the zero-rate users.
    """
    dead = (peak <= 0).all(axis=0).tolist()
    fallback = peak if fallback is None else fallback
    load = np.ones(peak.shape[0])  # each row's load after one more joins
    joined: list[list[int]] = [[] for _ in range(peak.shape[0])]
    for k in order.tolist():
        best = int(np.argmax(fallback[:, k] if dead[k] else peak[:, k] / load))
        joined[best].append(k)
        load[best] += 1.0
    return joined, frozenset(k for k, d in enumerate(dead) if d)


def associate_users(peak_rates: np.ndarray, seed: int,
                    fallback_metric: np.ndarray | None = None) -> AssociationMap:
    """Greedy association by available capacity in a seeded random user order.

    User k joins the AP maximizing peak_rate / (cell size after joining).
    Users whose peak rate is zero toward every AP (possible with quantized
    rates) fall back to the argmax of `fallback_metric` (e.g. raw SNR) and
    are flagged as zero-rate.
    """
    order = np.random.default_rng([seed, 1]).permutation(peak_rates.shape[1])
    joined, zero_rate = _greedy(peak_rates, order, fallback_metric)
    return AssociationMap(sets={i: tuple(uts) for i, uts in enumerate(joined)},
                          zero_rate_users=zero_rate)


@dataclass(frozen=True)
class Cluster:
    ap_ids: tuple[int, ...]
    channel_id: int


@dataclass
class ClusterPlan:
    clusters: tuple[Cluster, ...]
    user_cluster: dict[int, int] = field(default_factory=dict)
    zero_rate_users: frozenset[int] = frozenset()


def _kmeans_init(positions: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # k-means++ style: first center seeded, then farthest-biased picks.
    centers = [positions[rng.integers(len(positions))]]
    while len(centers) < k:
        d2 = np.min(
            [np.sum((positions - c) ** 2, axis=1) for c in centers], axis=0)
        if d2.sum() == 0:
            centers.append(positions[rng.integers(len(positions))])
            continue
        centers.append(positions[rng.choice(len(positions), p=d2 / d2.sum())])
    return np.array(centers)


def _balanced_assign(positions: np.ndarray, centers: np.ndarray,
                     capacities: list[int]) -> np.ndarray:
    n = len(positions)
    dists = np.linalg.norm(positions[:, None, :] - centers[None, :, :], axis=2)
    order = sorted(
        ((dists[a, c], a, c) for a in range(n) for c in range(len(centers))))
    assign = np.full(n, -1)
    loads = [0] * len(centers)
    for _, a, c in order:
        if assign[a] == -1 and loads[c] < capacities[c]:
            assign[a] = c
            loads[c] += 1
    return assign


def build_clusters(aps: tuple[ApNode, ...], gains: GainMatrix, n_clusters: int,
                   channels: tuple[Channel, ...], seed: int = 0) -> ClusterPlan:
    """Partition APs into geographically contiguous clusters of near-equal size.

    Balanced k-means on AP positions (seeded, deterministic). Clusters cycle
    through the channel set; with more clusters than channels, co-channel
    clusters interfere and the rate evaluator must include that term.
    """
    n = len(aps)
    if n_clusters < 1 or n_clusters > n:
        raise ValueError(f"n_clusters must be in [1, {n}]")
    positions = np.array([ap.position for ap in aps])
    rng = np.random.default_rng([seed, 2])
    base, rem = divmod(n, n_clusters)
    capacities = [base + (1 if j < rem else 0) for j in range(n_clusters)]
    centers = _kmeans_init(positions, n_clusters, rng)
    assign = np.zeros(n, dtype=int)
    for _ in range(50):
        new_assign = _balanced_assign(positions, centers, capacities)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = np.array([
            positions[assign == j].mean(axis=0) if np.any(assign == j) else centers[j]
            for j in range(n_clusters)
        ])
    # Stable cluster order: by smallest member AP id.
    groups = [tuple(int(a) for a in np.flatnonzero(assign == j))
              for j in range(n_clusters)]
    groups.sort(key=lambda g: g[0])
    clusters = tuple(Cluster(ap_ids=g, channel_id=channels[j % len(channels)].id)
                     for j, g in enumerate(groups))
    return ClusterPlan(clusters=clusters)


def associate_users_to_clusters(gains: GainMatrix, aps: tuple[ApNode, ...],
                                plan: ClusterPlan, seed: int) -> dict[int, int]:
    """Greedy user-cluster association by available capacity, as in
    associate_users, with log2(1 + isolated_snr) of each cluster's pooled
    APs as its peak in every rate mode. A user no cluster reaches joins
    cluster 0 and is zero-rate. Fills plan.user_cluster and
    plan.zero_rate_users.
    """
    peak = np.log2(1.0 + isolated_snr(gains, aps, [c.ap_ids for c in plan.clusters]))
    order = np.random.default_rng([seed, 3]).permutation(peak.shape[1])
    joined, plan.zero_rate_users = _greedy(peak, order)
    plan.user_cluster = {k: ci for ci, uts in enumerate(joined) for k in uts}
    return plan.user_cluster

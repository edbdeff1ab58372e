"""Channel allocation, user-AP association, and coordination clusters.

All three use one-pass greedy rules over seeded random permutations; ties
break toward the lowest id everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .propagation import GainMatrix
from .scenario import ApNode

TOTAL_BANDWIDTH_HZ = 80e6

#: Channelization presets: how the 80 MHz block is partitioned.
CHANNELIZATIONS = {"4x20": (4, 20e6), "2x40": (2, 40e6), "1x80": (1, 80e6)}


@dataclass(frozen=True)
class Channel:
    id: int
    center_mhz: float
    width_hz: float


def channel_preset(name: str) -> tuple[Channel, ...]:
    """Build the non-overlapping channel set for a preset name."""
    try:
        count, width = CHANNELIZATIONS[name]
    except KeyError:
        raise ValueError(f"unknown channelization {name!r} "
                         f"(choose from {sorted(CHANNELIZATIONS)})") from None
    w_mhz = width / 1e6
    return tuple(
        Channel(id=c, center_mhz=(c + 0.5) * w_mhz, width_hz=width)
        for c in range(count)
    )


@dataclass
class ChannelPlan:
    channels: tuple[Channel, ...]
    ap_channel: dict[int, int]
    permutation_seed: int


def assign_channels(gains: GainMatrix, aps: tuple[ApNode, ...],
                    channels: tuple[Channel, ...], seed: int) -> ChannelPlan:
    """Greedy channel choice in a seeded random AP order.

    Each AP takes the channel minimizing the total interference power it
    would receive from the APs already assigned there; exact ties go to the
    lowest channel id.
    """
    if not channels:
        raise ValueError("need at least one channel")
    rng = np.random.default_rng([seed, 0])
    order = rng.permutation(len(aps))
    powers = np.array([ap.power_linear for ap in aps])
    assignment: dict[int, int] = {}
    members: dict[int, list[int]] = {ch.id: [] for ch in channels}
    for i in order:
        best_id, best_interf = None, math.inf
        for ch in channels:  # ascending id, so ties keep the lowest
            interf = sum(powers[j] * gains.ap_to_ap[j, i] for j in members[ch.id])
            if interf < best_interf:
                best_id, best_interf = ch.id, interf
        assignment[int(i)] = best_id
        members[best_id].append(int(i))
    return ChannelPlan(channels=channels, ap_channel=assignment, permutation_seed=seed)


@dataclass
class AssociationMap:
    """Per-AP ordered user sets; a partition of all users."""

    sets: dict[int, tuple[int, ...]]
    permutation_seed: int
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


def associate_users(peak_rates: np.ndarray, seed: int,
                    fallback_metric: np.ndarray | None = None) -> AssociationMap:
    """Greedy association by available capacity in a seeded random user order.

    User k joins the AP maximizing peak_rate / (cell size after joining).
    Users whose peak rate is zero toward every AP (possible with quantized
    rates) fall back to the argmax of `fallback_metric` (e.g. raw SNR) and
    are flagged as zero-rate.
    """
    n_aps, n_users = peak_rates.shape
    rng = np.random.default_rng([seed, 1])
    order = rng.permutation(n_users)
    sets: dict[int, list[int]] = {i: [] for i in range(n_aps)}
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
            best = int(np.argmax(scores))  # argmax keeps the lowest id on ties
        sets[best].append(k)
    return AssociationMap(
        sets={i: tuple(uts) for i, uts in sets.items()},
        permutation_seed=seed,
        zero_rate_users=frozenset(zero_rate),
    )


@dataclass(frozen=True)
class Cluster:
    ap_ids: tuple[int, ...]
    channel_id: int
    p_sum: float  # pooled linear transmit power of the member APs


@dataclass
class ClusterPlan:
    clusters: tuple[Cluster, ...]
    channels: tuple[Channel, ...]
    user_cluster: dict[int, int] = field(default_factory=dict)


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
    clusters = tuple(
        Cluster(
            ap_ids=g,
            channel_id=channels[j % len(channels)].id,
            p_sum=float(sum(aps[a].power_linear for a in g)),
        )
        for j, g in enumerate(groups)
    )
    return ClusterPlan(clusters=clusters, channels=channels)


def associate_users_to_clusters(gains: GainMatrix, aps: tuple[ApNode, ...],
                                plan: ClusterPlan, seed: int) -> dict[int, int]:
    """Greedy user-cluster association by available capacity.

    The peak-rate proxy for cluster c is the single-user pooled-array rate
    log2(1 + (sum of member antennas / B) * sum_i g_ik * p_sum); the score
    divides it by the cluster load after joining. Ties go to the lowest
    cluster index.
    """
    n_users = gains.ap_to_ut.shape[1]
    rng = np.random.default_rng([seed, 3])
    order = rng.permutation(n_users)
    peak = np.zeros((len(plan.clusters), n_users))
    for ci, cluster in enumerate(plan.clusters):
        members = list(cluster.ap_ids)
        g_sum = gains.ap_to_ut[members, :].sum(axis=0)
        m_eff = sum(aps[a].antennas for a in members) / len(members)
        peak[ci] = np.log2(1.0 + m_eff * g_sum * cluster.p_sum)
    loads = np.zeros(len(plan.clusters))
    user_cluster: dict[int, int] = {}
    for k in order:
        k = int(k)
        scores = peak[:, k] / (loads + 1.0)
        best = int(np.argmax(scores))
        user_cluster[k] = best
        loads[best] += 1
    plan.user_cluster = user_cluster
    return user_cluster

"""Deterministic per-user spectral efficiencies for the three PHY modes.

Large-array limits remove the fading randomness: single-user beamforming
gets the full array gain M, zero-forcing to S users keeps (M - S + 1)/S of
it per stream, and a B-AP pooled array behaves like one transmitter with
the summed link gains. Rates are chain-averaged over the contention states
and reported in bit/s/Hz (log base 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .csma import ChannelCtmc, CtmcMode, CtmcModel, stationary_distribution
from .metrics import DEFAULT_MCS_TABLE, McsTable, mcs_quantize
from .propagation import GainMatrix
from .radio_plan import AssociationMap, Cluster, ClusterPlan, isolated_snr
from .scenario import ApNode


#: Bytes the temporaries of one block of rows may take together: a block of
#: the gain matrix's transmitter rows (row_blocks), four chunks of the chain
#: walk (_group_walk), or two oracle jobs' chunks of realizations, half of it
#: each (a job's chunk fits half whatever the oracle's pool size, so the
#: estimates do not depend on it). Larger blocks leave cache; much smaller
#: ones pay the per-block overhead.
BLOCK_BYTES = 4 << 20


class Technology(str, Enum):
    SU_BEAMFORMING = "su_beamforming"
    CONCENTRATED_MU_MIMO = "concentrated_mu_mimo"
    DISTRIBUTED_MU_MIMO = "distributed_mu_mimo"


class RateMode(str, Enum):
    GAUSSIAN = "gaussian"
    QUANTIZED = "quantized"


@dataclass(frozen=True)
class TechConfig:
    technology: Technology = Technology.SU_BEAMFORMING
    rate_mode: RateMode = RateMode.GAUSSIAN
    mcs_table: McsTable = DEFAULT_MCS_TABLE


def spectral_efficiency(sinr_linear, tech: TechConfig):
    """Map linear SINR to bit/s/Hz: Shannon in Gaussian mode, best decodable
    modulation/coding pair in quantized mode. A scalar gives a numpy float."""
    s = np.asarray(sinr_linear, dtype=float)
    if tech.rate_mode == RateMode.GAUSSIAN:
        return np.log2(1.0 + s)
    with np.errstate(divide="ignore"):
        sinr_db = np.where(s > 0, 10.0 * np.log10(np.maximum(s, 1e-300)), -np.inf)
    return mcs_quantize(sinr_db, tech.mcs_table)


def peak_rate_matrix(gains: GainMatrix, aps: tuple[ApNode, ...],
                     tech: TechConfig = TechConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Isolated peak rates eff(M*g*P) for every (AP, user) pair, and the
    beamformed SNR M*g*P (isolated_snr) they come from; both [n_aps, n_users]."""
    snr = isolated_snr(gains, aps)
    return spectral_efficiency(snr, tech), snr


def _zf_sinr(n_ant, n_pool, gp, streams, one_plus_i):
    """Large-array zero-forcing SINR: (N - S + 1)/B * gP / S / (1 + I), and
    zero rather than negative for S > N + 1."""
    return np.maximum(n_ant - streams + 1, 0) / n_pool * gp / streams / one_plus_i


def _zf_coef(n_ant, n_pool, gp: np.ndarray, cap) -> list[np.ndarray]:
    """A group's _zf_sinr at unit interference, S = 1..max(cap, 1): dividing by
    1 + I is its own last step, so coef[S - 1] / (1 + I) is its SINR bit for bit."""
    return [_zf_sinr(n_ant, n_pool, gp, s, 1.0) for s in range(1, max(int(cap), 1) + 1)]


def _zf_search(coef: list[np.ndarray], cap, one_plus_i: np.ndarray, tech: TechConfig):
    """One group's stream search, given its _zf_coef [k] per S.

    Of B transmitters with N antennas in all, serving S <= cap streams, user
    u gets (S/k) * eff((N - S + 1)/B * gP_u / S / (1 + I_u)); the S kept
    maximizes (S/k) * sum eff, so exact ties keep the smallest S.

    one_plus_i is [..., k] over any leading state axes, a fresh array: the
    search forms its last SINR and rates in it. Returns the rates before the
    air-time share [..., k], the chosen S [...] and the share S/k; when
    cap <= 1, S = cap and the share are one value each.
    """
    k = max(one_plus_i.shape[-1], 1)  # a group without users shares nothing
    top = len(coef)

    def eff_at(s):
        x = np.divide(coef[s - 1], one_plus_i, out=one_plus_i if s == top else None)
        if tech.rate_mode != RateMode.GAUSSIAN:
            return spectral_efficiency(x, tech)
        x += 1.0
        return np.log2(x, out=x)

    eff = eff_at(1)
    if top == 1:
        return eff, min(cap, 1), min(cap, 1) / k
    ones = np.ones((one_plus_i.shape[-1], 1))
    best_obj = (1 / k) * (eff @ ones)
    best_s = np.ones(best_obj.shape, dtype=int)
    for s in range(2, top + 1):
        eff_s = eff_at(s)
        obj = (s / k) * (eff_s @ ones)
        better = obj > best_obj  # strict: ties keep smaller S
        np.copyto(best_obj, obj, where=better)
        best_s[better] = s
        np.copyto(eff, eff_s, where=better)
    return eff, best_s[..., 0], best_s[..., 0] / k


class ChannelGroups(NamedTuple):
    """One channel's transmitters as zero-forcing groups under its chain.

    A group pools the antennas, link gains and power of its APs: a single
    AP under contention, or a whole cluster for distributed MU-MIMO.
    """

    ids: tuple[int, ...]                  # report label: AP id or cluster index
    groups: tuple[tuple[int, ...], ...]   # AP ids of each group
    cells: tuple[tuple[int, ...], ...]    # users each group serves
    chain: CtmcModel | None               # law over the groups' on/off states


def _ap_channel(assoc: AssociationMap, members, chain: CtmcModel | None) -> ChannelGroups:
    return ChannelGroups(tuple(members), tuple((a,) for a in members),
                         tuple(assoc.sets.get(a, ()) for a in members), chain)


def ap_groups(assoc: AssociationMap, mac: dict[int, ChannelCtmc]) -> dict[int, ChannelGroups]:
    """Every AP its own group, under its channel's contention chain."""
    return {ch: _ap_channel(assoc, c.members, c.model) for ch, c in sorted(mac.items())}


def cluster_groups(plan: ClusterPlan) -> dict[int, ChannelGroups]:
    """Every cluster one pooled group. Co-channel clusters do not defer to
    each other, so each channel's chain has one state, every cluster on."""
    by_channel: dict[int, list[int]] = {}
    for ci, cluster in enumerate(plan.clusters):
        by_channel.setdefault(cluster.channel_id, []).append(ci)
    cells: dict[int, list[int]] = {}
    for ut, ci in sorted(plan.user_cluster.items()):
        cells.setdefault(ci, []).append(ut)
    return {ch: ChannelGroups(
                tuple(ids), tuple(plan.clusters[ci].ap_ids for ci in ids),
                tuple(tuple(cells.get(ci, ())) for ci in ids),
                stationary_distribution(np.ones((1, len(ids))), 1.0, CtmcMode.NO_CSMA))
            for ch, ids in sorted(by_channel.items())}


def _tables(radiated: np.ndarray) -> np.ndarray:
    """Per plane, byte value and user, the power `radiated` [planes, bits, users]
    by the plane's groups set in the byte (the method of four Russians), plus 1
    on plane 0: one entry a plane sums to 1 + I. Returns [planes, 2^bits, users]."""
    t = np.zeros((radiated.shape[0], 1 << radiated.shape[1], radiated.shape[2]))
    t[0] = 1.0
    for k in range(radiated.shape[1]):
        t[:, 1 << k:2 << k] = t[:, :1 << k] + radiated[:, k, None]
    return t


def _group_walk(gains: GainMatrix, aps: tuple[ApNode, ...],
                channel: ChannelGroups, tech: TechConfig, words: np.ndarray):
    """One channel's users, each group's columns among them, and a walk over
    the packed states `words` (member g is bit g % 8 of byte g // 8 of a
    row) yielding, group by group, chunks of the states where a group with
    users is on: (group, the chunk's state indices, its users' rates there
    before the air-time share [chunk, |cell|], then the chosen S and the
    share, per state or one value when the group's S is fixed).

    A group sums its APs' antennas, link gains and power; its users hear
    every other active group with users, and earn nothing where their own
    is off. The walk copies the states into byte planes once, then walks
    each group with users over the whole chain: one bit test finds its on
    states, its tables (_tables) and _zf_coef are built once, and each chunk
    gathers its words and reads 1 + I with one gather per plane. Beside the
    chain it holds 8 + planes bytes a state (the on list and the planes),
    one group's tables (8 * 2^8 bytes a plane per user, 14 KB at seven
    planes) and one chunk, a quarter of BLOCK_BYTES at its cell width.
    """
    users = [ut for cell in channel.cells for ut in cell]
    n_cell = np.array([len(cell) for cell in channel.cells])
    n_pool = np.array([len(g) for g in channel.groups])
    tx = [a for g in channel.groups for a in g]
    starts = np.cumsum(n_pool) - n_pool
    n_ant = np.add.reduceat([aps[a].antennas for a in tx], starts)
    power = np.array([aps[a].power_linear for a in tx])
    cap = (np.minimum(n_ant, n_cell)
           if tech.technology != Technology.SU_BEAMFORMING else np.minimum(n_cell, 1))
    cols = [slice(a - k, a) for a, k in zip(np.cumsum(n_cell).tolist(), n_cell.tolist())]
    # Power each group with users radiates at each other group's users.
    n_planes, bits = -(-n_cell.size // 8), min(n_cell.size, 8)
    radiated = np.zeros((8 * n_planes, len(users)))
    link = gains.ap_to_ut[np.ix_(tx, users)]
    link *= (power * np.repeat(n_cell > 0, n_pool))[:, None]
    np.add.reduceat(link, starts, out=radiated[:n_cell.size])
    radiated[np.repeat(np.arange(n_cell.size), n_cell), np.arange(len(users))] = 0.0
    radiated = radiated.reshape(n_planes, 8, -1)[:, :bits]

    def walk():
        planes = np.ascontiguousarray(words.view(np.uint8).T[:n_planes])
        for j in np.flatnonzero(n_cell).tolist():
            on = (planes[j >> 3] >> (j & 7) & 1).view(bool).nonzero()[0]
            t = _tables(radiated[..., cols[j]])
            coef = _zf_coef(n_ant[j], n_pool[j], gains.ap_to_ut[
                np.ix_(channel.groups[j], channel.cells[j])].sum(axis=0)
                * power[starts[j]:starts[j] + n_pool[j]].sum(), cap[j])
            # A chunk row: its words, index, size and weights (48 bytes), and per
            # user 1 + I, a gather and a stream search's two rates (32 bytes).
            step = max(1, BLOCK_BYTES // 4 // (8 * words.shape[1] + 48 + 32 * n_cell[j]))
            for lo in range(0, on.size, step):
                at = words.take(on[lo:lo + step], axis=0).view(np.uint8)
                one_plus_i = t[0].take(at[:, 0], axis=0)
                for p in range(1, n_planes):
                    one_plus_i += t[p].take(at[:, p], axis=0)
                yield j, on[lo:lo + step], *_zf_search(coef, cap[j], one_plus_i, tech)

    return users, cols, walk()


def _state_rates(gains: GainMatrix, aps: tuple[ApNode, ...], channel: ChannelGroups,
                 tech: TechConfig, words: np.ndarray, n_users_total: int = 0):
    """Every packed state's rates [rows, n_users_total] (zero outside the channel)
    and each group's streams [rows, groups], 0 where it is off or has no users."""
    users, cols, walk = _group_walk(gains, aps, channel, tech, words)
    out = np.zeros((words.shape[0], n_users_total))
    streams = np.zeros((words.shape[0], len(channel.groups)), dtype=int)
    for j, on, rates, chosen, share in walk:
        if n_users_total:
            out[on[:, None], users[cols[j]]] = rates * share[..., None]
        streams[on, j] = chosen
    return out, streams


def su_channel_state_rates(gains: GainMatrix, assoc: AssociationMap,
                           aps: tuple[ApNode, ...], members: list[int],
                           states: np.ndarray, tech: TechConfig,
                           n_users_total: int) -> np.ndarray:
    """Single-user beamforming rates for every state of one channel.

    rate = (active / cell size) * eff(g*M*P / (1 + sum of active co-channel
    interferers g*P)): the stream search with one stream. Returns
    [n_states, n_users_total]; users outside the channel stay zero.
    """
    tech = replace(tech, technology=Technology.SU_BEAMFORMING)
    return _state_rates(gains, aps, _ap_channel(assoc, members, None), tech,
                        np.packbits(states != 0, axis=1, bitorder="little"), n_users_total)[0]


def mu_channel_state_rates(gains: GainMatrix, assoc: AssociationMap,
                           aps: tuple[ApNode, ...], members: list[int],
                           states: np.ndarray, tech: TechConfig,
                           n_users_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Concentrated MU-MIMO rates per state of one channel.

    Each active AP serves S* <= min(M, |cell|) streams chosen by _zf_search;
    all its cell users get rate (S*/|cell|) * eff. Returns the rate matrix
    [n_states, n_users_total] and the chosen streams [n_states, n_members],
    0 for inactive or user-less APs.
    """
    tech = replace(tech, technology=Technology.CONCENTRATED_MU_MIMO)
    return _state_rates(gains, aps, _ap_channel(assoc, members, None), tech,
                        np.packbits(states != 0, axis=1, bitorder="little"), n_users_total)


def row_blocks(n_rows: int, row_bytes: int, budget: int | None = None):
    """Slices walking n_rows rows in blocks of at most `budget` bytes
    (BLOCK_BYTES by default), at row_bytes bytes a row; one row at least."""
    step = max(1, (BLOCK_BYTES if budget is None else budget) // max(row_bytes, 1))
    return (slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step))


def chain_average_rates(gains: GainMatrix, aps: tuple[ApNode, ...],
                        channel: ChannelGroups, tech: TechConfig, n_users_total: int,
                        weights: np.ndarray | None = None) -> tuple[np.ndarray, dict[int, int]]:
    """One channel's chain-averaged rates, R = sum_m pi_m * R^m, streamed.

    pi_m is weights[|m|]: the chain's own weights, or a stack of them
    [..., max size + 1] (one law each, say one per rho) averaged in one
    walk. Each chunk of a group's on states (_group_walk) adds
    (W[:, |m|] * share) @ rates to its users. Returns the rates
    [..., n_users_total], zero outside the channel, and for MU-MIMO how many
    (state, active group with users) pairs chose each S ({} for SU).
    """
    weights = np.asarray(channel.chain.weights if weights is None else weights)
    by_size = np.ascontiguousarray(weights.reshape(-1, weights.shape[-1]).T)  # [size, stack]
    users, cols, walk = _group_walk(gains, aps, channel, tech, channel.chain.words)
    total = np.zeros((by_size.shape[1], len(users)))
    counts: Counter = Counter()
    for j, on, rates, streams, share in walk:
        pi = by_size.take(channel.chain.sizes.take(on), axis=0)
        pi *= np.reshape(share, (-1, 1))
        total[:, cols[j]] += pi.T @ rates
        if tech.technology != Technology.SU_BEAMFORMING:
            chosen = np.bincount(np.broadcast_to(streams, on.shape))
            counts.update({s: int(n) for s, n in enumerate(chosen) if s and n})
    avg = np.zeros((by_size.shape[1], n_users_total))
    avg[:, users] = total
    return avg.reshape(weights.shape[:-1] + (n_users_total,)), dict(sorted(counts.items()))


def dist_mu_rate(cluster: Cluster, gains: GainMatrix, aps: tuple[ApNode, ...],
                 user_ids: list[int], tech: TechConfig = TechConfig(),
                 co_channel_interference: np.ndarray | None = None
                 ) -> tuple[np.ndarray, int]:
    """Pooled-array rates for one cluster's users, optimizing the group size.

    The cluster is one _zf_search group of B APs with their summed antennas N,
    summed link gains and summed power, capped at min(K, N) streams:
    rate_k(S) = (S/K) * eff((N - S + 1)/B * sum_i g_ik * P_sum / S / (1+I_k)).
    I_k is the received power from co-channel clusters (zero on a channel of
    its own).
    Returns (rates aligned with user_ids, chosen S).
    """
    n_antennas = sum(aps[a].antennas for a in cluster.ap_ids)
    g_sum = gains.ap_to_ut[np.ix_(cluster.ap_ids, user_ids)].sum(axis=0)
    p_sum = sum(aps[a].power_linear for a in cluster.ap_ids)
    interf = (np.zeros(len(user_ids)) if co_channel_interference is None
              else np.asarray(co_channel_interference, dtype=float))
    cap = min(len(user_ids), n_antennas)
    rates, streams, share = _zf_search(
        _zf_coef(n_antennas, len(cluster.ap_ids), g_sum * p_sum, cap), cap, 1.0 + interf, tech)
    return rates * share, int(streams)


def average_over_ctmc(state_rates: np.ndarray, ctmc: CtmcModel) -> np.ndarray:
    """The chain average sum_m pi_m * R^m of the per-state rates R^m."""
    state_rates = np.asarray(state_rates)
    pi = ctmc.pi()
    if state_rates.shape[0] != pi.size:
        raise ValueError(
            f"state mismatch: {state_rates.shape[0]} rate rows vs "
            f"{pi.size} chain states")
    return pi @ state_rates


@dataclass
class RateReport:
    """Per-user averages plus the population throughput distribution."""

    spectral_efficiency: np.ndarray   # bit/s/Hz, chain-averaged
    throughput_bps: np.ndarray
    serving: np.ndarray               # serving AP id (or cluster index)
    bandwidth_hz: np.ndarray
    cdf_values: np.ndarray            # sorted throughputs
    cdf_fractions: np.ndarray         # F(value), right-continuous, ends at 1
    summary: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def throughput_cdf(throughputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical distribution: fraction of users at or below each sample."""
    values = np.sort(np.asarray(throughputs, dtype=float))
    fractions = np.arange(1, values.size + 1) / values.size
    return values, fractions


def throughput_report(avg_rates: np.ndarray, serving: np.ndarray,
                      bandwidth_hz: np.ndarray, tech: TechConfig,
                      overhead_discount: float = 1.0,
                      config: dict | None = None,
                      outage_threshold: float = 0.0) -> RateReport:
    """Convert chain-averaged spectral efficiencies to throughputs.

    Quantized mode discounts the nominal bandwidth by the OFDM factor
    (pilots, nulls, guard interval); Gaussian mode uses the raw bandwidth.
    `overhead_discount` models any extra coordination goodput cost.
    """
    from .metrics import ofdm_efficiency, summarize

    avg_rates = np.asarray(avg_rates, dtype=float)
    bandwidth_hz = np.asarray(bandwidth_hz, dtype=float)
    if not 0.0 < overhead_discount <= 1.0:
        raise ValueError("overhead_discount must be in (0, 1]")
    ofdm_factor = np.ones_like(bandwidth_hz)
    if tech.rate_mode == RateMode.QUANTIZED:
        widths, at = np.unique(bandwidth_hz, return_inverse=True)
        ofdm_factor = np.array([ofdm_efficiency(round(w / 1e6)) for w in widths])[at]
    throughput = bandwidth_hz * ofdm_factor * avg_rates * overhead_discount
    values, fractions = throughput_cdf(throughput)
    return RateReport(
        spectral_efficiency=avg_rates,
        throughput_bps=throughput,
        serving=np.asarray(serving),
        bandwidth_hz=bandwidth_hz,
        cdf_values=values,
        cdf_fractions=fractions,
        summary=summarize(throughput, outage_threshold),
        config=dict(config or {}),
    )

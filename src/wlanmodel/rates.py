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


#: Bytes the temporaries of one row block may take together (see
#: row_blocks): a chunk of oracle realizations, a block of the gain
#: matrix's transmitter rows, or the chain walk's tables and block of
#: states, half of it each (_group_walk). Larger blocks leave cache and
#: gain nothing; much smaller ones pay the per-block overhead.
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


def _zf_search(gp: np.ndarray, group: np.ndarray, n_ant: np.ndarray,
               n_pool: np.ndarray, cap: np.ndarray, tech: TechConfig):
    """zf_rates for one fixed set of groups: the per-group constants once,
    then the stream search for any interference.

    Returns search(one_plus_i, overwrite=False), giving the rates before
    the air-time share, the chosen S [..., n_groups] and the share S/|j|;
    when every cap is at most 1, S = min(cap, 1) and the share are the same
    in every state and given once, [n_groups]. With overwrite, the search
    forms its last SINR and rates inside one_plus_i.
    """
    group = np.asarray(group)
    cap = np.asarray(cap)
    size = np.maximum(np.bincount(group, minlength=cap.size), 1)
    n_ant_u, n_pool_u = np.asarray(n_ant)[group], np.asarray(n_pool)[group]
    top = max(int(cap.max(initial=0)), 1)
    # _zf_sinr at unit interference. Dividing by 1 + I is _zf_sinr's own last
    # step, so coef[S - 1] / (1 + I) equals its SINR at S streams bit for bit.
    coef = [_zf_sinr(n_ant_u, n_pool_u, gp, s, 1.0) for s in range(1, top + 1)]
    one_stream = np.minimum(cap, 1)
    fixed = one_stream / size if top == 1 else None
    if top > 1:
        member = np.zeros((group.size, cap.size))
        member[np.arange(group.size), group] = 1.0
        weight = [s / size for s in range(1, top + 1)]

    def eff_at(s, one_plus_i, overwrite):
        x = np.divide(coef[s - 1], one_plus_i, out=one_plus_i if overwrite and s == top else None)
        if tech.rate_mode != RateMode.GAUSSIAN:
            return spectral_efficiency(x, tech)
        x += 1.0
        return np.log2(x, out=x)

    def search(one_plus_i, overwrite=False):
        eff = eff_at(1, one_plus_i, overwrite)
        if fixed is not None:
            return eff, one_stream, fixed
        best_obj = weight[0] * (eff @ member)
        best_s = np.broadcast_to(one_stream, best_obj.shape).copy()
        for s in range(2, top + 1):
            eff_s = eff_at(s, one_plus_i, overwrite)
            obj = weight[s - 1] * (eff_s @ member)
            better = (obj > best_obj) & (s <= cap)  # strict: ties keep smaller S
            np.copyto(best_obj, obj, where=better)
            best_s[better] = s
            np.copyto(eff, eff_s, where=better[..., group])
        return eff, best_s, best_s / size

    return search


def zf_rates(gp: np.ndarray, one_plus_i: np.ndarray, group: np.ndarray,
             n_ant: np.ndarray, n_pool: np.ndarray, cap: np.ndarray,
             tech: TechConfig) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing rates of user groups, each choosing its stream count.

    Group j pools n_pool[j] = B transmitters with n_ant[j] antennas in all
    and serves S <= cap[j] streams; its user k then gets
    (S/|j|) * eff((n_ant - S + 1)/B * gP_k / S / (1 + I_k)). Each group keeps
    the S maximizing (S/|j|) * sum_k eff, summed before scaling so that exact
    ties (quantized mode) keep the smallest S. SU beamforming is cap 1,
    concentrated MU-MIMO is B = 1 and pooled MU-MIMO is one group of B APs.

    gp and group are per user, [n_u]; one_plus_i is [..., n_u] over any
    leading state axes; n_ant, n_pool and cap are per group. Returns the
    rates [..., n_u] and the chosen S [..., n_groups] (0 where cap is 0;
    a read-only view). It writes only into arrays it allocates: callers may
    reuse gp and one_plus_i.
    """
    eff, best_s, share = _zf_search(gp, group, n_ant, n_pool, cap, tech)(one_plus_i)
    eff *= share[..., group]
    return eff, np.broadcast_to(best_s, eff.shape[:-1] + share.shape[-1:])


class ChannelGroups(NamedTuple):
    """One channel's transmitters as zf_rates groups under its chain.

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


def _group_walk(gains: GainMatrix, aps: tuple[ApNode, ...],
                channel: ChannelGroups, tech: TechConfig, words: np.ndarray):
    """One channel's users, each group's columns among them, and a walk over
    the packed states `words` (member g is bit g % 8 of byte g // 8 of a
    row) yielding, per block of states and group with users on in some of
    them: (block, group, its on rows in the block, its users' rates there
    before the air-time share [on, |cell|], the share and the chosen S, per
    on row or one value when the group's S is fixed).

    A group sums its APs' antennas, link gains and power; its users hear
    every other active group with users. A user earns nothing where its
    group is off, so a group is evaluated in its on rows only, picked by a
    bit test on the block's byte planes; their 1 + I is read from tables,
    per plane and user the 2^8 partial sums of eight groups' radiated power
    (the method of four Russians). Tables and blocks take half of
    BLOCK_BYTES each: groups are walked in batches whose tables fit (a
    wider group alone, its tables rebuilt per column slice and block), and
    a block counts its planes and the batch's widest group, and the one
    walked before it, as on in every row.
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
    search = {j: _zf_search(
        gains.ap_to_ut[np.ix_(channel.groups[j], channel.cells[j])].sum(axis=0)
        * power[starts[j]:starts[j] + n_pool[j]].sum(), np.zeros(n_cell[j], dtype=int),
        n_ant[j:j + 1], n_pool[j:j + 1], cap[j:j + 1], tech)
        for j in np.flatnonzero(n_cell).tolist()}
    # Power each group with users radiates at each other group's users.
    n_planes, bits = -(-n_cell.size // 8), min(n_cell.size, 8)
    radiated = np.zeros((8 * n_planes, len(users)))
    link = gains.ap_to_ut[np.ix_(tx, users)]
    link *= (power * np.repeat(n_cell > 0, n_pool))[:, None]
    np.add.reduceat(link, starts, out=radiated[:n_cell.size])
    radiated[np.repeat(np.arange(n_cell.size), n_cell), np.arange(len(users))] = 0.0
    radiated = radiated.reshape(n_planes, 8, -1)[:, :bits]

    def tables(cs: slice) -> np.ndarray:
        """1 + I at the users cs for each plane's bytes, [planes, 2^bits, users]."""
        t = np.zeros((n_planes, 1 << bits, cs.stop - cs.start))
        t[0] = 1.0
        for k in range(bits):
            t[:, 1 << k:2 << k] = t[:, :1 << k] + radiated[:, k, None, cs]
        return t

    budget = BLOCK_BYTES // 2
    width = max(1, budget // (8 * n_planes << bits))  # user columns of a batch's tables
    batches: list[list[int]] = []
    for j in search:
        if not batches or n_cell[batches[-1]].sum() + n_cell[j] > width:
            batches.append([])
        batches[-1].append(j)
    # Bytes a row: its planes, bit test and pi; the on group's index, plane
    # bytes and, per user, 1 + I and a gather (a stream search adds two stream
    # counts' rates); the results of the group walked before.
    row_cost = (50, 24) if cap.max(initial=0) <= 1 else (108, 41)

    def one_plus_i(j: int, on: np.ndarray, planes: np.ndarray, kept: dict) -> np.ndarray:
        at = [plane.take(on) for plane in planes]
        parts = []
        for lo in range(cols[j].start, cols[j].stop, width):
            slab = kept[j] if kept else tables(slice(lo, min(lo + width, cols[j].stop)))
            parts.append(slab[0].take(at[0], axis=0))
            for t, a in zip(slab[1:], at[1:]):
                parts[-1] += t.take(a, axis=0)
            del slab
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def walk(batch: list[int]):
        kept = {j: tables(cols[j]) for j in batch} if n_cell[batch].sum() <= width else {}
        row_bytes = 2 * n_planes + row_cost[0] + row_cost[1] * n_cell[batch].max()
        for block in row_blocks(words.shape[0], row_bytes, budget):
            planes = np.ascontiguousarray(words[block].view(np.uint8)[:, :n_planes].T)
            for j in batch:
                on = (planes[j >> 3] >> (j & 7) & 1).view(bool).nonzero()[0]
                if on.size:
                    eff, s, share = search[j](one_plus_i(j, on, planes, kept), overwrite=True)
                    yield block, j, on, eff, share[..., 0], s[..., 0]

    # One batch's tables are freed before the next batch builds its own.
    return users, cols, (result for batch in batches for result in walk(batch))


def _state_rates(gains: GainMatrix, aps: tuple[ApNode, ...], channel: ChannelGroups,
                 tech: TechConfig, words: np.ndarray, n_users_total: int = 0):
    """Every packed state's rates [rows, n_users_total] (zero outside the channel)
    and each group's streams [rows, groups], 0 where it is off or has no users."""
    users, cols, walk = _group_walk(gains, aps, channel, tech, words)
    out = np.zeros((words.shape[0], n_users_total))
    streams = np.zeros((words.shape[0], len(channel.groups)), dtype=int)
    for block, j, on, rates, share, chosen in walk:
        if n_users_total:
            out[block.start + on[:, None], users[cols[j]]] = rates * share[..., None]
        streams[block.start + on, j] = chosen
    return out, streams


def su_channel_state_rates(gains: GainMatrix, assoc: AssociationMap,
                           aps: tuple[ApNode, ...], members: list[int],
                           states: np.ndarray, tech: TechConfig,
                           n_users_total: int) -> np.ndarray:
    """Single-user beamforming rates for every state of one channel.

    rate = (active / cell size) * eff(g*M*P / (1 + sum of active co-channel
    interferers g*P)): zf_rates with one stream. Returns
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

    Each active AP serves S* <= min(M, |cell|) streams chosen by zf_rates;
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
                        channel: ChannelGroups, tech: TechConfig,
                        n_users_total: int) -> tuple[np.ndarray, dict[int, int]]:
    """One channel's chain-averaged rates, R = sum_m pi_m * R^m, streamed.

    Each group is evaluated only in the chain states where it is on, and pi
    there, times each state's air-time share, weights its users' rates into
    the average (_group_walk: tables and blocks take half of BLOCK_BYTES each,
    no array over all states x users). Returns the rates [n_users_total], zero
    outside the channel, and for MU-MIMO how many (state, active group with
    users) pairs chose each stream count S ({} for SU).
    """
    users, cols, walk = _group_walk(gains, aps, channel, tech, channel.chain.words)
    total = np.zeros(len(users))
    counts: Counter = Counter()
    seen = None
    for block, j, on, rates, share, streams in walk:
        if block is not seen:
            pi, seen = channel.chain.pi(block), block
        total[cols[j]] += (pi.take(on) * share) @ rates
        if tech.technology != Technology.SU_BEAMFORMING:
            chosen = np.bincount(np.broadcast_to(streams, on.shape))
            counts.update({s: int(n) for s, n in enumerate(chosen) if s and n})
    avg = np.zeros(n_users_total)
    avg[users] = total
    return avg, dict(sorted(counts.items()))


def dist_mu_rate(cluster: Cluster, gains: GainMatrix, aps: tuple[ApNode, ...],
                 user_ids: list[int], tech: TechConfig = TechConfig(),
                 co_channel_interference: np.ndarray | None = None
                 ) -> tuple[np.ndarray, int]:
    """Pooled-array rates for one cluster's users, optimizing the group size.

    The cluster is one zf_rates group of B APs with their summed antennas N,
    summed link gains and summed power, capped at min(K, N) streams:
    rate_k(S) = (S/K) * eff((N - S + 1)/B * sum_i g_ik * P_sum / S / (1+I_k)).
    I_k is the received power from co-channel clusters (zero on a channel of
    its own).
    Returns (rates aligned with user_ids, chosen S).
    """
    k_total = len(user_ids)
    if k_total == 0:
        return np.zeros(0), 0
    members = list(cluster.ap_ids)
    n_antennas = sum(aps[a].antennas for a in members)
    g_sum = gains.ap_to_ut[np.ix_(members, user_ids)].sum(axis=0)
    p_sum = sum(aps[a].power_linear for a in members)
    interf = (np.zeros(k_total) if co_channel_interference is None
              else np.asarray(co_channel_interference, dtype=float))
    rates, streams = zf_rates(
        g_sum * p_sum, 1.0 + interf,
        np.zeros(k_total, dtype=int), [n_antennas], [len(members)],
        [min(k_total, n_antennas)], tech)
    return rates, int(streams[0])


def average_over_ctmc(state_rates: np.ndarray, ctmc: CtmcModel,
                      rows: slice = slice(None)) -> np.ndarray:
    """The chain states `rows`' share of the average, sum_m pi_m * R^m over
    them: the whole chain average when `rows` covers every state."""
    state_rates = np.asarray(state_rates)
    pi = ctmc.pi(rows)
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

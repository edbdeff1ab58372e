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
#: row_blocks): a block of chain states for the chain average, a chunk of
#: oracle realizations, a block of the gain matrix's transmitter rows.
#: Larger blocks leave cache and gain nothing; much smaller ones pay the
#: per-block overhead at thousands of users per channel. The chain walk
#: counts the MU-MIMO peak for one-stream blocks too, which then hold about
#: half of it (state_blocks); counting them exactly made contended_su's
#: walk slower.
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

    Returns (fixed, search). search(one_plus_i, overwrite=False) gives the
    rates before the air-time share, the chosen S [..., n_groups] and the
    share S/|j| per group. When every cap is at most 1, S = min(cap, 1) in
    every state, so the share is fixed: it is returned as `fixed` too
    ([n_groups], else None). With overwrite, the search forms its last SINR
    and rates inside one_plus_i.
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
        best_s = np.broadcast_to(one_stream, eff.shape[:-1] + cap.shape)
        if fixed is not None:
            return eff, best_s, fixed
        best_obj = weight[0] * (eff @ member)
        best_s = best_s.copy()
        for s in range(2, top + 1):
            eff_s = eff_at(s, one_plus_i, overwrite)
            obj = weight[s - 1] * (eff_s @ member)
            better = (obj > best_obj) & (s <= cap)  # strict: ties keep smaller S
            np.copyto(best_obj, obj, where=better)
            best_s[better] = s
            np.copyto(eff, eff_s, where=better[..., group])
        return eff, best_s, best_s / size

    return fixed, search


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
    a read-only broadcast view when every cap is at most 1). It writes only
    into arrays it allocates: callers may reuse gp and one_plus_i.
    """
    eff, best_s, share = _zf_search(gp, group, n_ant, n_pool, cap, tech)[1](one_plus_i)
    eff *= share[..., group]
    return eff, best_s


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


def _own_user_kernel(gains: GainMatrix, aps: tuple[ApNode, ...],
                     channel: ChannelGroups, tech: TechConfig):
    """One channel's users, group by group, their fixed air-time share, and
    a function giving their rates [n, users] and each group's chosen streams
    [n, groups] for any block of n chain states.

    A group sums its APs' antennas, link gains and power, and its users see
    the power every other active group radiates as interference; an inactive
    group's users get zero rate. A group without users neither earns rate
    nor radiates, even if the chain marks it on. Stream counts mean
    something only where the group is on and has users: multiply them by
    the states. When every group serves one stream, the share 1/|cell| is
    the same in every state: it is returned per user and left out of the
    rates (it is None, and in the rates, otherwise; see _zf_search).
    """
    users = [ut for cell in channel.cells for ut in cell]
    n_cell = np.array([len(cell) for cell in channel.cells])
    own = np.repeat(np.arange(n_cell.size), n_cell)
    n_pool = np.array([len(g) for g in channel.groups])
    tx = [a for g in channel.groups for a in g]
    starts = np.cumsum(n_pool) - n_pool
    n_ant = np.add.reduceat([aps[a].antennas for a in tx], starts)
    power = np.array([aps[a].power_linear for a in tx])
    link = gains.ap_to_ut[np.ix_(tx, users)]
    col = np.arange(len(users))
    gp = np.add.reduceat(link, starts)[own, col] * np.add.reduceat(power, starts)[own]
    # Power each group radiates at each user, but none at its own users and
    # none at all from a group without users.
    foreign = np.add.reduceat(power[:, None] * link, starts) * (n_cell > 0)[:, None]
    foreign[own, col] = 0.0
    cap = (np.minimum(n_ant, n_cell)
           if tech.technology != Technology.SU_BEAMFORMING else np.minimum(n_cell, 1))
    fixed, search = _zf_search(gp, own, n_ant, n_pool, cap, tech)
    foreign_t = np.ascontiguousarray(foreign.T)

    def block_rates(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # A group's on bits are a row of `on`, so the on mask is a row
        # gather. With a fixed share the rates are user-major too, one row a
        # user; the stream search runs state-major, summing each state's
        # users by group, and its share is masked per group.
        on = states.T.astype(float, order="C")
        one_plus_i = (foreign_t @ on).T if fixed is not None else on.T @ foreign
        one_plus_i += 1.0
        rates, streams, share = search(one_plus_i, overwrite=True)
        rates *= on[own].T if fixed is not None else (share * on.T)[..., own]
        return rates, streams

    return users, None if fixed is None else fixed[own], block_rates


def _full_width_rates(gains: GainMatrix, assoc: AssociationMap,
                      aps: tuple[ApNode, ...], members: list[int],
                      states: np.ndarray, tech: TechConfig, n_users_total: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Every state's rates [n_states, n_users_total] and streams, each
    member AP its own group, 0 for inactive or user-less APs."""
    users, share, block_rates = _own_user_kernel(
        gains, aps, _ap_channel(assoc, members, None), tech)
    rates, streams = block_rates(states)
    if share is not None:
        rates *= share
    out = np.zeros((states.shape[0], n_users_total))
    out[:, users] = rates
    return out, streams * states


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
    return _full_width_rates(gains, assoc, aps, members, states, tech, n_users_total)[0]


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
    return _full_width_rates(gains, assoc, aps, members, states, tech, n_users_total)


def row_blocks(n_rows: int, row_bytes: int):
    """Slices walking n_rows rows in blocks of at most BLOCK_BYTES, at
    row_bytes bytes a row; one row at least."""
    step = max(1, BLOCK_BYTES // max(row_bytes, 1))
    return (slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step))


def state_blocks(n_states: int, users: list[int], channel: ChannelGroups):
    """Row blocks of n_states chain states for _own_user_kernel's
    block_rates, whose temporaries together fit BLOCK_BYTES.

    A block counts the MU-MIMO peak: per user column 32 bytes, four float64
    arrays (the interference, which the last stream count's SINR and rates
    overwrite, the one-stream rates, the next stream count's rates, and the
    masked shares gathered per user), and per group column 41 bytes, the
    unpacked uint8 row, its float64 copy and the search's four float64
    arrays (the objective, the best one, the best stream count and the
    group sums). A one-stream block holds less: the rows, their copy, the
    interference buffer that becomes the rates, and the on mask gathered
    from the rows, 16 bytes a user and 9 a group. On contended_su's largest
    channel (241 680 states, 45 groups, 47 users: 3 349 bytes counted, 1 252
    rows a block) tracemalloc measures the walk's peak at 1 570 bytes a row
    for SU and 3 532 for MU, the previous block's rates and rows included."""
    return row_blocks(n_states, 32 * len(users) + 41 * len(channel.groups))


def chain_average_rates(gains: GainMatrix, aps: tuple[ApNode, ...],
                        channel: ChannelGroups, tech: TechConfig,
                        n_users_total: int) -> tuple[np.ndarray, dict[int, int]]:
    """One channel's chain-averaged rates, R = sum_m pi_m * R^m, streamed.

    The chain's states are walked in row blocks (state_blocks) whose
    temporaries together fit BLOCK_BYTES; each block's rates are computed
    for the channel's own users only and its share of the average is added
    in, so no array over all states x users is built. Where every group
    serves one stream, its air-time share 1/|cell| is the same in every
    state: it multiplies the summed average once, not every block entry.
    Returns the averaged rates [n_users_total] (zero outside the channel)
    and, for MU-MIMO, how many (state, active group with users) pairs chose
    each stream count S ({} for SU beamforming, always one stream).
    """
    users, share, block_rates = _own_user_kernel(gains, aps, channel, tech)
    avg = np.zeros(n_users_total)
    if not users:
        return avg, {}
    chain = channel.chain
    total = np.zeros(len(users))
    counts: Counter = Counter()
    for block in state_blocks(chain.n_states, users, channel):
        states = chain.rows(block)
        rates, streams = block_rates(states)
        total += average_over_ctmc(rates, chain, block)
        if tech.technology != Technology.SU_BEAMFORMING:
            chosen = np.bincount((streams * states).ravel())
            counts.update({s: int(n) for s, n in enumerate(chosen) if s and n})
    if share is not None:
        total *= share
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
    if tech.rate_mode == RateMode.QUANTIZED:
        ofdm_factor = np.array([ofdm_efficiency(round(w / 1e6)) for w in bandwidth_hz])
    else:
        ofdm_factor = np.ones_like(bandwidth_hz)
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

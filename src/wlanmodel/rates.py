"""Deterministic per-user spectral efficiencies for the three PHY modes.

Large-array limits remove the fading randomness: single-user beamforming
gets the full array gain M, zero-forcing to S users keeps (M - S + 1)/S of
it per stream, and a B-AP pooled array behaves like one transmitter with
the summed link gains. Rates are chain-averaged over the contention states
and reported in bit/s/Hz (log base 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .csma import CtmcModel
from .metrics import DEFAULT_MCS_TABLE, McsTable, mcs_quantize
from .propagation import GainMatrix
from .radio_plan import AssociationMap, Cluster, ClusterPlan
from .scenario import ApNode


#: Bytes one [states x own users] float64 array of the chain average may
#: take: it walks a channel's states in row blocks of this size (see
#: row_blocks; the oracle's realization chunks and the gain matrix's
#: transmitter rows share it). Larger blocks leave cache and gain nothing;
#: much smaller ones pay the per-block overhead at thousands of users per
#: channel.
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
    modulation/coding pair in quantized mode."""
    s = np.asarray(sinr_linear, dtype=float)
    if tech.rate_mode == RateMode.GAUSSIAN:
        eff = np.log2(1.0 + s)
    else:
        with np.errstate(divide="ignore"):
            sinr_db = np.where(s > 0, 10.0 * np.log10(np.maximum(s, 1e-300)), -np.inf)
        eff = mcs_quantize(sinr_db, tech.mcs_table)
    if np.isscalar(sinr_linear):
        return float(eff)
    return eff


def peak_rate_matrix(gains: GainMatrix, aps: tuple[ApNode, ...],
                     tech: TechConfig = TechConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Isolated peak rates eff(g*M*P) for every (AP, user) pair, and the
    beamformed SNR g*M*P they come from; both [n_aps, n_users]."""
    snr = gains.ap_to_ut * np.array(
        [ap.antennas * ap.power_linear for ap in aps])[:, None]
    return np.asarray(spectral_efficiency(snr, tech)), snr


def _zf_sinr(n_ant, n_pool, gp, streams, one_plus_i):
    """Large-array zero-forcing SINR: (N - S + 1)/B * gP / S / (1 + I), and
    zero rather than negative for S > N + 1."""
    return np.maximum(n_ant - streams + 1, 0) / n_pool * gp / streams / one_plus_i


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
    a read-only broadcast view when every cap is at most 1).
    """
    group = np.asarray(group)
    cap = np.asarray(cap)
    size = np.maximum(np.bincount(group, minlength=cap.size), 1)
    n_ant_u, n_pool_u = np.asarray(n_ant)[group], np.asarray(n_pool)[group]
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
            better = (obj > best_obj) & (s <= cap)  # strict: ties keep smaller S
            best_obj = np.where(better, obj, best_obj)
            best_s[better] = s
            eff = np.where(better[..., group], eff_s, eff)
        share = best_s / size
    eff *= share[..., group]
    return eff, best_s


def _own_user_kernel(gains: GainMatrix, assoc: AssociationMap,
                     aps: tuple[ApNode, ...], members: list[int],
                     tech: TechConfig, multi_user: bool):
    """One channel's users, cell by cell, and a function giving their rates
    [n, users] and each member AP's chosen streams [n, members] for any
    block of n states.

    Each member AP is one group. An active AP's users see every other active
    member AP as interference; an inactive AP's users get zero rate. An AP
    with no associated users neither earns rate nor radiates interference,
    even if the chain marks it on. Stream counts mean something only where
    the AP is on and has users: multiply them by the states.
    """
    cells = [assoc.sets.get(ap, ()) for ap in members]
    users = [ut for cell in cells for ut in cell]
    n_cell = np.array([len(cell) for cell in cells])
    own = np.repeat(np.arange(len(members)), n_cell)
    m_ant = np.array([aps[a].antennas for a in members])
    recv = gains.ap_to_ut[np.ix_(members, users)] * \
        np.array([aps[a].power_linear for a in members])[:, None]
    own_recv = recv[own, np.arange(len(users))]
    tx_recv = recv * (n_cell > 0)[:, None]
    cap = np.minimum(m_ant, n_cell) if multi_user else np.minimum(n_cell, 1)

    def block_rates(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        active = states.astype(bool)[:, own]
        # 1 + I, built in place so that one [states x users] array holds it:
        # the received power of all active members, less the user's own AP.
        one_plus_i = states.astype(float) @ tx_recv
        np.subtract(one_plus_i, own_recv, out=one_plus_i, where=active)
        one_plus_i += 1.0
        rates, streams = zf_rates(own_recv, one_plus_i, own, m_ant,
                                  np.ones_like(m_ant), cap, tech)
        del one_plus_i
        rates *= active
        return rates, streams

    return users, block_rates


def _full_width_rates(gains: GainMatrix, assoc: AssociationMap,
                      aps: tuple[ApNode, ...], members: list[int],
                      states: np.ndarray, tech: TechConfig, n_users_total: int,
                      multi_user: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every state's rates [n_states, n_users_total] and streams, 0 for
    inactive or user-less APs."""
    users, block_rates = _own_user_kernel(gains, assoc, aps, members, tech, multi_user)
    rates, streams = block_rates(states)
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
    return _full_width_rates(gains, assoc, aps, members, states, tech,
                             n_users_total, multi_user=False)[0]


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
    return _full_width_rates(gains, assoc, aps, members, states, tech,
                             n_users_total, multi_user=True)


def row_blocks(n_rows: int, row_bytes: int):
    """Slices walking n_rows rows in blocks of at most BLOCK_BYTES, at
    row_bytes bytes a row; one row at least."""
    step = max(1, BLOCK_BYTES // max(row_bytes, 1))
    return (slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step))


def chain_average_rates(gains: GainMatrix, assoc: AssociationMap,
                        aps: tuple[ApNode, ...], members: list[int],
                        ctmc: CtmcModel, tech: TechConfig,
                        n_users_total: int) -> tuple[np.ndarray, dict[int, int]]:
    """One channel's chain-averaged rates, R = sum_m pi_m * R^m, streamed.

    The chain's states are walked in row blocks whose [rows x own users]
    arrays fit BLOCK_BYTES; each block's rates are computed for the
    channel's own users only, as su_/mu_channel_state_rates would for the
    technology, and its share of the average is added in. Returns the
    averaged rates [n_users_total] (zero outside the channel) and, for
    concentrated MU-MIMO, how many (state, active user-bearing AP) pairs
    chose each stream count S ({} for SU beamforming, always one stream).
    """
    multi_user = tech.technology != Technology.SU_BEAMFORMING
    users, block_rates = _own_user_kernel(gains, assoc, aps, members, tech, multi_user)
    avg = np.zeros(n_users_total)
    if not users:
        return avg, {}
    counts: Counter = Counter()
    for block in row_blocks(ctmc.n_states, 8 * max(len(users), len(members))):
        states = ctmc.states[block]
        rates, streams = block_rates(states)
        avg[users] += average_over_ctmc(rates, ctmc, block)
        if multi_user:
            chosen = np.bincount((streams * states).ravel())
            counts.update({s: int(n) for s, n in enumerate(chosen) if s and n})
    return avg, dict(sorted(counts.items()))


def dist_mu_rate(cluster: Cluster, gains: GainMatrix, aps: tuple[ApNode, ...],
                 user_ids: list[int], tech: TechConfig = TechConfig(),
                 co_channel_interference: np.ndarray | None = None
                 ) -> tuple[np.ndarray, int]:
    """Pooled-array rates for one cluster's users, optimizing the group size.

    The cluster is one zf_rates group of B APs with their summed antennas N,
    summed link gains and summed power, capped at min(K, N) streams:
    rate_k(S) = (S/K) * eff((N - S + 1)/B * sum_i g_ik * P_sum / S / (1+I_k)).
    I_k is zero when clusters occupy distinct channels; in the small-cluster
    co-channel mode it is the summed received power from all other-cluster
    APs sharing the channel (all transmitting, no inter-cluster deferral).
    Returns (rates aligned with user_ids, chosen S).
    """
    k_total = len(user_ids)
    if k_total == 0:
        return np.zeros(0), 0
    members = list(cluster.ap_ids)
    n_antennas = sum(aps[a].antennas for a in members)
    g_sum = gains.ap_to_ut[np.ix_(members, user_ids)].sum(axis=0)
    interf = (np.zeros(k_total) if co_channel_interference is None
              else np.asarray(co_channel_interference, dtype=float))
    rates, streams = zf_rates(
        g_sum * cluster.p_sum, 1.0 + interf,
        np.zeros(k_total, dtype=int), [n_antennas], [len(members)],
        [min(k_total, n_antennas)], tech)
    return rates, int(streams[0])


def cluster_interference(gains: GainMatrix, aps: tuple[ApNode, ...],
                         plan: ClusterPlan, ci: int, user_ids: list[int]) -> np.ndarray:
    """Received power at each user from all co-channel foreign-cluster APs,
    all transmitting concurrently (no inter-cluster deferral)."""
    foreign = [a for j in plan.co_channel(ci) for a in plan.clusters[j].ap_ids]
    p = np.array([aps[a].power_linear for a in foreign])
    recv = gains.ap_to_ut[np.ix_(np.array(foreign, dtype=int),
                                 np.array(user_ids, dtype=int))]
    return (p[:, None] * recv).sum(axis=0)


def average_over_ctmc(state_rates: np.ndarray, ctmc: CtmcModel,
                      rows: slice = slice(None)) -> np.ndarray:
    """The chain states `rows`' share of the average, sum_m pi_m * R^m over
    them: the whole chain average when `rows` covers every state."""
    state_rates = np.asarray(state_rates)
    pi = ctmc.pi[rows]
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
                      ofdm_factor: np.ndarray | None = None,
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
        if ofdm_factor is None:
            ofdm_factor = np.array([
                ofdm_efficiency(round(w / 1e6)) for w in bandwidth_hz])
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

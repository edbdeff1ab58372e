"""Monte Carlo fading simulator used to validate the deterministic formulas.

The three technologies run through one realization loop, as they are one
zero-forcing transmitter at different sizes (see `rates.zf_rates`). A group
is a set of APs pooling their antennas, with AP block b of its composite
channel to user k scaled by sqrt(g_bk); it zero-forces S streams (S = 1 is
conjugate beamforming) and splits its pooled power P evenly over them.
Every other co-channel group's beams reach its users through fresh
channels, adding (P_j/S_j) * sum_s |v_s^H h|^2 of interference. Everything
is reproducible per seed: each job gets its own counter-derived stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csma import ChannelCtmc
from .propagation import GainMatrix
from .radio_plan import AssociationMap, ChannelPlan, ClusterPlan
from .rates import (TechConfig, cluster_interference, dist_mu_rate,
                    mu_channel_state_rates)
from .scenario import ApNode, Scenario

#: Realizations drawn per batch.
CHUNK = 2048
#: Chains with more states than this are sampled from pi, not enumerated.
STATE_ENUM_THRESHOLD = 10_000


@dataclass(frozen=True)
class OracleConfig:
    n_realizations: int = 2000
    subcarriers: int = 1

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if self.subcarriers < 1:
            raise ValueError("need at least one subcarrier")


@dataclass
class OracleReport:
    mean_rate: np.ndarray   # bit/s/Hz per user, chain- and fading-averaged
    std_error: np.ndarray
    n_realizations: int
    resample_events: int = 0


class _Group(NamedTuple):
    rows: np.ndarray    # AP id of each antenna of the pooled array
    users: np.ndarray
    streams: int        # S
    power: float        # pooled power P


def _group(aps: tuple[ApNode, ...], ap_ids, users, streams: int,
           power: float) -> _Group:
    rows = np.repeat(ap_ids, [aps[a].antennas for a in ap_ids])
    return _Group(rows, np.asarray(users), int(streams), power)


def _rayleigh(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    h = rng.standard_normal(tuple(shape) + (2,)).view(np.complex128)[..., 0]
    h *= np.sqrt(0.5)
    return h


def _state_jobs(ctmc: ChannelCtmc, n_realizations: int,
                rng: np.random.Generator):
    """(state row, weight, draws, sampled) for fading-averaging one channel.

    Small chains are enumerated and weighted by pi; large ones are sampled
    from pi, each sampled occurrence contributing one realization.
    """
    model = ctmc.model
    if model.n_states <= STATE_ENUM_THRESHOLD:
        return [
            (model.states[s], float(model.pi[s]), n_realizations, False)
            for s in range(model.n_states)
            if model.pi[s] > 0 and model.states[s].any()
        ]
    counts = rng.multinomial(n_realizations, model.pi)
    return [
        (model.states[s], counts[s] / n_realizations, int(counts[s]), True)
        for s in np.flatnonzero(counts)
        if model.states[s].any()
    ]


def _zf_precoders(h_cols: np.ndarray):
    """Batched ZF precoder: h_cols is [..., M, S]; returns (V, xi).

    V has unit-power columns scaled so V^H H = diag(sqrt(xi)); xi is the
    per-stream effective gain [..., S], clamped at 0 where rank-deficient
    columns (APs blind to some served users) leave only rounding noise.
    """
    gram = np.swapaxes(h_cols.conj(), -1, -2) @ h_cols
    inv = np.linalg.inv(gram)
    xi = np.maximum(1.0 / np.real(np.einsum("...ss->...s", inv)), 0.0)
    v = h_cols @ inv
    v *= np.sqrt(xi[..., None, :])
    return v, xi


def _random_subsets(rng: np.random.Generator, n_draws: int, pool: int,
                    size: int) -> np.ndarray:
    """[n_draws, size] matrix of distinct indices drawn uniformly."""
    scores = rng.random((n_draws, pool))
    return np.argsort(scores, axis=1)[:, :size]


def _draw(rng: np.random.Generator, power: np.ndarray, nsub: int) -> np.ndarray:
    """Rayleigh channels [r, nsub, N, c] with per-entry power[N, r, c]."""
    amp = np.sqrt(np.moveaxis(power, 0, -2))[:, None]
    h = _rayleigh(rng, (amp.shape[0], nsub) + amp.shape[2:])
    h *= amp
    return h


def _simulate(jobs, gains: GainMatrix, n_users: int,
              config: OracleConfig) -> OracleReport:
    """Fading-average the per-user rates of weighted jobs.

    A job is (weight, draws, sampled, rng, groups), the groups being the
    ones active together on one channel. A one-stream group evaluates every
    user as if served, at weight 1/|U|. A multi-stream group evaluates its
    uniformly drawn served S-subset at weight 1, so that the service
    frequency S/|U| realizes the equal-air-time share.
    """
    nsub = config.subcarriers
    mean, var, spread = np.zeros(n_users), np.zeros(n_users), np.zeros(n_users)
    resamples = 0
    for weight, draws, sampled, rng, groups in jobs:
        sums = [np.zeros((2, len(g.users))) for g in groups]
        for start in range(0, draws, CHUNK):
            r = min(CHUNK, draws - start)
            picks, signals, beams = [], [], []
            for g in groups:
                k = len(g.users)
                # All users of a one-stream group, in random order; the
                # served subset of a multi-stream group.
                pick = _random_subsets(rng, r, k, k if g.streams == 1 else g.streams)
                link = gains.ap_to_ut[g.rows[:, None, None], g.users[pick]]
                # Precode on columns normalized to unit mean gain, so a user
                # without any gain (outside every sector) keeps a finite beam
                # and an invertible Gram matrix.
                scale = link.mean(axis=0)
                link /= np.where(scale > 0, scale, 1.0)
                link += scale == 0
                h = _draw(rng, link, nsub)
                if g.streams == 1:
                    # Conjugate beam to the first user.
                    xi = np.sum(np.abs(h) ** 2, axis=2)
                    v = h[..., :1] / np.sqrt(xi[:, :, None, :1])
                else:
                    try:
                        v, xi = _zf_precoders(h)
                    except np.linalg.LinAlgError:
                        resamples += 1
                        v, xi = _zf_precoders(_draw(rng, link, nsub))
                picks.append(pick)
                signals.append(xi * scale[:, None] * (g.power / g.streams))
                beams.append(v)
            for i, g in enumerate(groups):
                cols = g.users[picks[i]]
                interf = 0.0
                for j, other in enumerate(groups):
                    if j != i:
                        # A fresh circularly symmetric h makes h^T v as
                        # distributed as v^H h, without conjugating the beams.
                        h = _draw(rng, gains.ap_to_ut[other.rows[:, None, None], cols],
                                  nsub)
                        interf = interf + other.power / other.streams * np.sum(
                            np.abs(np.swapaxes(h, 2, 3) @ beams[j]) ** 2, axis=3)
                per_slot = np.log2(1.0 + signals[i] / (1.0 + interf)).mean(axis=1)
                if g.streams == 1:
                    per_slot /= len(g.users)
                for row, x in zip(sums[i], (per_slot, per_slot**2)):
                    row += np.bincount(picks[i].ravel(), x.ravel(), len(g.users))
        for g, (total, total_sq) in zip(groups, sums):
            m = total / draws
            mean[g.users] += weight * m
            var[g.users] += weight**2 * np.maximum(total_sq / draws - m**2, 0.0) / draws
            if sampled:
                spread[g.users] += weight * m**2
    # Sampled state counts are random too: add the spread of the per-state
    # means (none for enumerated chains, whose spread 0 is below mean^2).
    var += np.maximum(spread - mean**2, 0.0) / config.n_realizations
    return OracleReport(mean, np.sqrt(var), config.n_realizations, resamples)


def _contended_jobs(scenario: Scenario, assoc: AssociationMap,
                    mac: dict[int, ChannelCtmc], config: OracleConfig,
                    seed: int, streams_of):
    """One job per (channel, chain state), each active AP with users one
    group of S = streams_of(members, state) streams."""
    aps = scenario.aps
    for ch_id in sorted(mac):
        members = list(mac[ch_id].members)
        state_rng = np.random.default_rng([seed, ch_id, 1 << 20])
        for idx, (state, weight, draws, sampled) in enumerate(
                _state_jobs(mac[ch_id], config.n_realizations, state_rng)):
            groups = [_group(aps, [ap], assoc.sets[ap], s, aps[ap].power_linear)
                      for ap, s in zip(members, streams_of(members, state)) if s > 0]
            if groups:
                yield (weight, draws, sampled,
                       np.random.default_rng([seed, ch_id, idx]), groups)


def mc_su_rate(scenario: Scenario, gains: GainMatrix, plan: ChannelPlan,
               assoc: AssociationMap, mac: dict[int, ChannelCtmc],
               config: OracleConfig, seed: int = 0) -> OracleReport:
    """Monte Carlo single-user beamforming rates: each active AP with users
    is a one-stream group, its beam conjugate to one of its users."""
    def streams_of(members, state):
        return [int(on and bool(assoc.sets.get(ap))) for ap, on in zip(members, state)]

    jobs = _contended_jobs(scenario, assoc, mac, config, seed, streams_of)
    return _simulate(jobs, gains, scenario.n_users, config)


def mc_mu_rate(scenario: Scenario, gains: GainMatrix, plan: ChannelPlan,
               assoc: AssociationMap, mac: dict[int, ChannelCtmc],
               config: OracleConfig, seed: int = 0) -> OracleReport:
    """Monte Carlo concentrated MU-MIMO rates: each active AP zero-forces to
    a uniformly random subset of its users, sized by the deterministic
    stream optimizer for that contention state."""
    def streams_of(members, state):
        return mu_channel_state_rates(gains, assoc, scenario.aps, members,
                                      state[None, :], TechConfig(),
                                      scenario.n_users)[1][0]

    jobs = _contended_jobs(scenario, assoc, mac, config, seed, streams_of)
    return _simulate(jobs, gains, scenario.n_users, config)


def mc_dist_rate(scenario: Scenario, gains: GainMatrix, plan: ClusterPlan,
                 config: OracleConfig, seed: int = 0) -> OracleReport:
    """Monte Carlo pooled-array (distributed MU-MIMO) rates.

    Per realization each cluster zero-forces from its composite array to a
    uniformly random user subset sized by the deterministic optimizer, and
    clusters sharing a channel interfere through their ZF beams. One job
    per channel holds all of its clusters.
    """
    aps = scenario.aps
    by_channel: dict[int, list[_Group]] = {}
    for ci, cluster in enumerate(plan.clusters):
        users = sorted(u for u, c in plan.user_cluster.items() if c == ci)
        _, s_star = dist_mu_rate(cluster, gains, aps, users, TechConfig(),
                                 cluster_interference(gains, aps, plan, ci, users))
        if s_star > 0:
            by_channel.setdefault(cluster.channel_id, []).append(
                _group(aps, cluster.ap_ids, users, s_star, cluster.p_sum))
    jobs = ((1.0, config.n_realizations, False,
             np.random.default_rng([seed, 1 << 16, ch]), groups)
            for ch, groups in sorted(by_channel.items()))
    return _simulate(jobs, gains, scenario.n_users, config)

"""Monte Carlo fading simulator used to validate the deterministic formulas.

Draws explicit Rayleigh channel vectors, builds the actual beamformers
(conjugate for single-user, zero-forcing for multi-user and pooled arrays),
computes stochastic SINRs per realization, and averages Gaussian rates over
fading and over the contention chain. Everything is reproducible per seed:
each (channel, state) pair gets its own counter-derived stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csma import ChannelCtmc
from .propagation import GainMatrix
from .radio_plan import AssociationMap, ChannelPlan, ClusterPlan
from .rates import TechConfig, dist_mu_rate, mu_channel_state_rates
from .scenario import Scenario


@dataclass
class OracleConfig:
    n_realizations: int = 10_000
    seed: int = 0
    subcarriers: int = 1
    state_enum_threshold: int = 10_000
    chunk: int = 2048

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


def _rayleigh(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _state_jobs(ctmc: ChannelCtmc, config: OracleConfig, rng: np.random.Generator):
    """(state row, weight, draws) triples for fading-averaging one channel.

    Small chains are enumerated and weighted by pi; large ones are sampled
    from pi, each sampled occurrence contributing one realization.
    """
    model = ctmc.model
    if model.n_states <= config.state_enum_threshold:
        return [
            (model.states[s], float(model.pi[s]), config.n_realizations)
            for s in range(model.n_states)
            if model.pi[s] > 0 and model.states[s].any()
        ]
    counts = rng.multinomial(config.n_realizations, model.pi)
    return [
        (model.states[s], counts[s] / config.n_realizations, int(counts[s]))
        for s in np.flatnonzero(counts)
        if model.states[s].any()
    ]


class _Accumulator:
    """Running per-user mean/variance of weighted per-realization rates."""

    def __init__(self, n_users: int):
        self.mean = np.zeros(n_users)
        self.var = np.zeros(n_users)

    def add(self, users: np.ndarray, weight: float, total: np.ndarray,
            total_sq: np.ndarray, n_draws: int):
        m = total / n_draws
        v = np.maximum(total_sq / n_draws - m**2, 0.0)
        self.mean[users] += weight * m
        self.var[users] += weight**2 * v / n_draws

    def report(self, n_realizations: int, resamples: int) -> OracleReport:
        return OracleReport(
            mean_rate=self.mean,
            std_error=np.sqrt(self.var),
            n_realizations=n_realizations,
            resample_events=resamples,
        )


def _chunks(total: int, size: int):
    done = 0
    while done < total:
        step = min(size, total - done)
        yield step
        done += step


def mc_su_rate(scenario: Scenario, gains: GainMatrix, plan: ChannelPlan,
               assoc: AssociationMap, mac: dict[int, ChannelCtmc],
               config: OracleConfig) -> OracleReport:
    """Monte Carlo single-user beamforming rates.

    Per realization every serving AP beamforms to one of its users
    (conjugate beamforming); victims see each interferer through the inner
    product of that interferer's beam with a fresh channel vector. Each
    user's rate carries its equal-air-time share 1/|cell|.
    """
    aps = scenario.aps
    n_users = scenario.n_users
    acc = _Accumulator(n_users)
    nsub = config.subcarriers
    for ch_id in sorted(mac):
        ctmc = mac[ch_id]
        members = list(ctmc.members)
        state_rng = np.random.default_rng([config.seed, ch_id, 1 << 20])
        for state_idx, (state, weight, draws) in enumerate(
                _state_jobs(ctmc, config, state_rng)):
            rng = np.random.default_rng([config.seed, ch_id, state_idx])
            active = [members[b] for b in np.flatnonzero(state)
                      if assoc.sets.get(members[b], ())]
            if not active:
                continue
            for i in active:
                cell = list(assoc.sets[i])
                interferers = [j for j in active if j != i]
                m_i = aps[i].antennas
                p_i = aps[i].power_linear
                total = np.zeros(len(cell))
                total_sq = np.zeros(len(cell))
                for r in _chunks(draws, config.chunk):
                    # One beam per interferer per (slot, subcarrier), shared
                    # by every victim in this cell.
                    beams = {}
                    for j in interferers:
                        h_own = _rayleigh(rng, (r, nsub, aps[j].antennas))
                        beams[j] = h_own / np.linalg.norm(h_own, axis=2,
                                                          keepdims=True)
                    for idx, k in enumerate(cell):
                        h = _rayleigh(rng, (r, nsub, m_i))
                        signal = gains.ap_to_ut[i, k] * p_i * \
                            np.sum(np.abs(h) ** 2, axis=2)
                        interf = np.zeros((r, nsub))
                        for j in interferers:
                            h_jk = _rayleigh(rng, (r, nsub, aps[j].antennas))
                            coupling = np.abs(
                                np.sum(beams[j].conj() * h_jk, axis=2)) ** 2
                            interf += gains.ap_to_ut[j, k] * \
                                aps[j].power_linear * coupling
                        inst = np.log2(1.0 + signal / (1.0 + interf))
                        per_slot = inst.mean(axis=1) / len(cell)
                        total[idx] += per_slot.sum()
                        total_sq[idx] += (per_slot**2).sum()
                acc.add(np.array(cell), weight, total, total_sq, draws)
    return acc.report(config.n_realizations, 0)


def _zf_precoders(h_cols: np.ndarray):
    """Batched ZF precoder: h_cols is [..., M, S]; returns (V, xi).

    V has unit-power columns scaled so V^H H = diag(sqrt(xi)); xi is the
    per-stream effective gain [..., S].
    """
    gram = np.swapaxes(h_cols.conj(), -1, -2) @ h_cols
    inv = np.linalg.inv(gram)
    xi = 1.0 / np.real(np.einsum("...ss->...s", inv))
    v = h_cols @ inv * np.sqrt(xi[..., None, :])
    return v, xi


def _random_subsets(rng: np.random.Generator, n_draws: int, pool: int,
                    size: int) -> np.ndarray:
    """[n_draws, size] matrix of distinct indices drawn uniformly."""
    scores = rng.random((n_draws, pool))
    return np.argsort(scores, axis=1)[:, :size]


def mc_mu_rate(scenario: Scenario, gains: GainMatrix, plan: ChannelPlan,
               assoc: AssociationMap, mac: dict[int, ChannelCtmc],
               config: OracleConfig) -> OracleReport:
    """Monte Carlo concentrated MU-MIMO rates.

    Per realization each active AP zero-forces to a uniformly random subset
    of its users, sized by the deterministic stream optimizer for that
    contention state; served users get exact ZF SINRs with power split
    across streams, others get zero (which realizes the equal-air-time
    shares in expectation).
    """
    aps = scenario.aps
    n_users = scenario.n_users
    acc = _Accumulator(n_users)
    nsub = config.subcarriers
    det_tech = TechConfig()
    resamples = 0
    for ch_id in sorted(mac):
        ctmc = mac[ch_id]
        members = list(ctmc.members)
        state_rng = np.random.default_rng([config.seed, ch_id, 1 << 20])
        for state_idx, (state, weight, draws) in enumerate(
                _state_jobs(ctmc, config, state_rng)):
            _, chosen = mu_channel_state_rates(
                gains, assoc, aps, members, state[None, :], det_tech, n_users)
            streams = dict(zip(members, chosen[0].tolist()))
            rng = np.random.default_rng([config.seed, ch_id, state_idx])
            active = [ap for ap in members if streams[ap] > 0]
            if not active:
                continue
            cells = {i: list(assoc.sets[i]) for i in active}
            total = {i: np.zeros(len(cells[i])) for i in active}
            total_sq = {i: np.zeros(len(cells[i])) for i in active}
            for r in _chunks(draws, config.chunk):
                subsets, precoders = {}, {}
                for j in active:
                    s_j = streams[j]
                    h_all = _rayleigh(rng, (r, nsub, aps[j].antennas, len(cells[j])))
                    idx = _random_subsets(rng, r, len(cells[j]), s_j)
                    h_cols = np.take_along_axis(
                        h_all, idx[:, None, None, :], axis=3)
                    try:
                        v, xi = _zf_precoders(h_cols)
                    except np.linalg.LinAlgError:
                        resamples += 1
                        h_cols = _rayleigh(rng, h_cols.shape)
                        v, xi = _zf_precoders(h_cols)
                    subsets[j] = idx
                    precoders[j] = (v, xi, s_j)
                for i in active:
                    v_i, xi_i, s_i = precoders[i]
                    idx = subsets[i]
                    cell = cells[i]
                    served_users = np.asarray(cell)[idx]  # [r, s_i]
                    g_served = gains.ap_to_ut[i, served_users]
                    signal = g_served[:, None, :] * xi_i * \
                        (aps[i].power_linear / s_i)
                    interf = np.zeros((r, nsub, s_i))
                    for j in active:
                        if j == i:
                            continue
                        v_j, _, s_j = precoders[j]
                        h_jk = _rayleigh(rng, (r, nsub, aps[j].antennas, s_i))
                        coupling = np.sum(
                            np.abs(np.swapaxes(v_j.conj(), 2, 3) @ h_jk) ** 2,
                            axis=2)
                        g_jk = gains.ap_to_ut[j, served_users]
                        interf += g_jk[:, None, :] * \
                            (aps[j].power_linear / s_j) * coupling
                    inst = np.log2(1.0 + signal / (1.0 + interf))
                    # A served user gets the full slot on its stream; the
                    # equal-air-time share arises from the random-subset
                    # service frequency S/|cell|, so no explicit factor.
                    per_slot = inst.mean(axis=1)
                    np.add.at(total[i], idx.ravel(), per_slot.ravel())
                    np.add.at(total_sq[i], idx.ravel(), (per_slot**2).ravel())
            for i in active:
                acc.add(np.array(cells[i]), weight, total[i], total_sq[i], draws)
    return acc.report(config.n_realizations, resamples)


def mc_dist_rate(scenario: Scenario, gains: GainMatrix, plan: ClusterPlan,
                 config: OracleConfig) -> OracleReport:
    """Monte Carlo pooled-array (distributed MU-MIMO) rates.

    Per realization the cluster zero-forces from the composite B*M-antenna
    array (blocks scaled by sqrt of each AP's link gain) to a uniformly
    random user subset sized by the deterministic optimizer; the effective
    per-stream gain is the ZF diagonal of the composite matrix.
    """
    aps = scenario.aps
    n_users = scenario.n_users
    acc = _Accumulator(n_users)
    nsub = config.subcarriers
    resamples = 0
    for ci, cluster in enumerate(plan.clusters):
        users = sorted(u for u, c in plan.user_cluster.items() if c == ci)
        if not users:
            continue
        _, s_star = dist_mu_rate(cluster, gains, aps, users, TechConfig())
        if s_star < 1:
            continue
        members = list(cluster.ap_ids)
        g_block = gains.ap_to_ut[np.ix_(members, users)]   # [B, K]
        amps = np.sqrt(g_block)
        k_total = len(users)
        rng = np.random.default_rng([config.seed, 1 << 16, ci])
        total = np.zeros(k_total)
        total_sq = np.zeros(k_total)
        for r in _chunks(config.n_realizations, config.chunk):
            idx = _random_subsets(rng, r, k_total, s_star)   # [r, S]
            blocks = []
            for b, ap_id in enumerate(members):
                h = _rayleigh(rng, (r, nsub, aps[ap_id].antennas, s_star))
                scale = amps[b, idx]                         # [r, S]
                blocks.append(h * scale[:, None, None, :])
            h_comp = np.concatenate(blocks, axis=2)          # [r, nsub, BM, S]
            try:
                _, lam = _zf_precoders(h_comp)
            except np.linalg.LinAlgError:
                resamples += 1
                h_comp = _rayleigh(rng, h_comp.shape) * np.concatenate(
                    [np.broadcast_to(amps[b, idx][:, None, None, :],
                                     (r, nsub, aps[a].antennas, s_star))
                     for b, a in enumerate(members)], axis=2)
                _, lam = _zf_precoders(h_comp)
            sinr = lam * (cluster.p_sum / s_star)
            inst = np.log2(1.0 + sinr)                       # [r, nsub, S]
            # Service frequency S/K realizes the equal-air-time share.
            per_slot = inst.mean(axis=1)
            np.add.at(total, idx.ravel(), per_slot.ravel())
            np.add.at(total_sq, idx.ravel(), (per_slot**2).ravel())
        acc.add(np.array(users), 1.0, total, total_sq, config.n_realizations)
    return acc.report(config.n_realizations, resamples)

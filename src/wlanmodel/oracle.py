"""Monte Carlo fading simulator used to validate the deterministic formulas.

The three technologies run through one realization loop, as they are one
zero-forcing transmitter at different sizes (see `rates.zf_rates`). A group
is a set of APs pooling their antennas, with AP block b of its composite
channel to user k scaled by sqrt(g_bk); it zero-forces S streams, splits
its pooled power P evenly over them, and another co-channel group's user
k' hears (P/S) * sum_s |v_s^H h|^2. Each job draws from its own SFC64
stream keyed [seed, channel, job index] (_stream), so everything is
reproducible per seed. A group draws one of three laws:

- One stream (conjugate beam): user k gets P * sum_b g_bk E_bk, E_bk ~
  Gamma(M_b), and the beam to a uniform user u* leaks P * sum_b w_b g_bk'
  * Exp(1), with block shares w_b = g_bu* E_bu* / sum_b' g_b'u* E_b'u*.
- Single-AP ZF (B = 1): its unit-gain columns are iid CN(0, 1), so H = QR
  with |R_ii|^2 ~ Gamma(N - i), R_ij ~ CN(0, 1) above the diagonal and Q
  independent of R. Stream s gets (gP/S) xi_s, xi_s = 1 / ||row s of R^-1||^2
  (Gamma(N - S + 1), drawn so if nobody hears it), and k' hears
  (P/S) g_k' ||W z||^2, W the unit rows of R^-1 and z ~ CN(0, I_S) fresh.
- Pooled ZF (B >= 2): explicit channels, precoders and beams. Its own
  channel and its leakage to k' are drawn per AP block: one amplitude per
  block and user, repeated over the block's M_b antennas (_draw).

The states of an enumerated chain are strata of known weight pi, and each
draws realizations in proportion to it (_draw_counts): each group's
heaviest state keeps the full n.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csma import CtmcModel
from .propagation import GainMatrix
from . import rates
from .rates import ChannelGroups, TechConfig, Technology
from .scenario import ApNode, Scenario

#: Chains with more states than this are sampled from pi, not enumerated.
STATE_ENUM_THRESHOLD = 10_000


@dataclass(frozen=True)
class OracleConfig:
    n_realizations: int = 2000

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")


@dataclass
class OracleReport:
    mean_rate: np.ndarray   # bit/s/Hz per user, chain- and fading-averaged
    std_error: np.ndarray
    n_realizations: int     # per group's heaviest state (see _draw_counts)
    realizations_drawn: int = 0  # over every job
    resample_events: int = 0  # no law redraws; kept for readers of the count


class _Group(NamedTuple):
    aps: np.ndarray       # AP ids, one block of the pooled array each
    antennas: np.ndarray  # M_b of each block
    n_antennas: int       # N = sum_b M_b, antennas of the pooled array
    users: np.ndarray
    streams: int          # S
    power: float          # pooled power P


def _group(aps: tuple[ApNode, ...], ap_ids, users, streams: int) -> _Group:
    m = np.array([aps[a].antennas for a in ap_ids])
    return _Group(np.asarray(ap_ids), m, int(m.sum()), np.asarray(users),
                  int(streams), sum(aps[a].power_linear for a in ap_ids))


def _state_jobs(model: CtmcModel, n_realizations: int,
                rng: np.random.Generator):
    """(packed state rows, weights, draws, sampled) for fading-averaging one
    channel over the states in which some group is on: small chains are
    enumerated and weighted by pi (their draws, None here, follow from the
    weights: see _draw_counts), large ones sampled from pi, each sampled
    occurrence contributing one realization."""
    pi = model.pi()
    if model.n_states <= STATE_ENUM_THRESHOLD:
        keep = np.flatnonzero((pi > 0) & (model.sizes > 0))
        return model.words[keep], pi[keep], None, False
    counts = rng.multinomial(n_realizations, pi)
    keep = np.flatnonzero(counts)
    keep = keep[model.sizes[keep] > 0]
    return model.words[keep], counts[keep] / n_realizations, counts[keep], True


def _draw_counts(weights: np.ndarray, on: np.ndarray, n: int) -> np.ndarray:
    """Realizations for each enumerated state of weight pi [states] whose
    groups are `on` with users [states, groups]: ceil(n * max_g pi / pi*_g),
    pi*_g the largest pi among g's states (at least one, at most n)."""
    pi = np.where(on, weights[:, None], 0.0)
    top = pi.max(axis=0, initial=0.0)
    share = (pi / np.where(top > 0, top, 1.0)).max(axis=1, initial=0.0)
    return np.maximum(np.ceil(n * share), 1).astype(np.int64)


def _upper_inverse(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the upper-triangular [..., S, S] factor r of a Gram matrix
    r^H r by back-substitution: returns r^-1 and its squared row norms, the
    diagonal of (r^H r)^-1, so that stream s's ZF gain is 1 / norm_s."""
    inv = np.zeros_like(r)
    diag = np.einsum("...ii->...i", inv)
    diag[...] = 1.0 / np.einsum("...ii->...i", r)
    norm = diag.real**2 + diag.imag**2
    for i in range(r.shape[-1] - 2, -1, -1):  # one row of r^-1 a step
        row = (r[..., i, None, i + 1:] @ inv[..., i + 1:, i + 1:])[..., 0, :]
        row *= -diag[..., i, None]
        inv[..., i, i + 1:] = row
        norm[..., i] += np.einsum("...j,...j->...", row.view(np.float64), row.view(np.float64))
    return inv, norm


def _zf_precoders(h_cols: np.ndarray, beams: bool = True):
    """Batched ZF precoder: h_cols is [..., M, S]; returns (V, xi).

    V has unit-power columns scaled so V^H H = diag(sqrt(xi)); xi is the
    per-stream effective gain [..., S]. The Gram matrix gets a ridge of
    1e-13 of its mean diagonal before its Cholesky factor is inverted, so
    streams ZF cannot separate (more streams than antennas, or APs blind to
    some served users) get xi of that order instead of a singular matrix.
    V is None when `beams` is false.
    """
    gram = np.swapaxes(h_cols.conj(), -1, -2) @ h_cols
    diag = np.einsum("...ii->...i", gram)
    diag += 1e-13 / diag.shape[-1] * diag.real.sum(axis=-1, keepdims=True)
    inv, norm = _upper_inverse(np.linalg.cholesky(gram, upper=True))
    xi = 1.0 / norm
    if not beams:
        return None, xi
    # V = H (r^H r)^-1 diag(sqrt(xi)) = (H r^-1) W^H, W the unit rows of r^-1.
    v = (h_cols @ inv) @ np.swapaxes(inv.conj() * np.sqrt(xi)[..., None], -1, -2)
    return v, xi


def _zf_factor(rng: np.random.Generator, n: int, s: int, shape: tuple):
    """ZF on [*shape] draws of an [n, s] channel of iid CN(0, 1) entries,
    from its Bartlett factor R: returns (R, xi, W) with the per-stream gains
    xi = 1 / ||row s of R^-1||^2 [*shape, s] and the beams in the frame of
    the channel, the unit rows W of R^-1, so W R = diag(sqrt(xi))."""
    r = np.zeros(shape + (s, s), dtype=np.complex128)
    r[..., np.triu(np.ones((s, s), dtype=bool), 1)] = np.sqrt(0.5) * _gauss(
        rng, shape + (s * (s - 1) // 2,))
    r[..., range(s), range(s)] = np.sqrt(rng.standard_gamma(n - np.arange(s), shape + (s,)))
    inv, norm = _upper_inverse(r)
    xi = 1.0 / norm
    inv *= np.sqrt(xi)[..., None]
    return r, xi, inv


def _random_subsets(rng: np.random.Generator, n_draws: int, pool: int,
                    size: int) -> np.ndarray:
    """[n_draws, size] matrix of distinct indices drawn uniformly."""
    scores = rng.random((n_draws, pool))
    return np.argsort(scores, axis=1)[:, :size]


def _gauss(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex draws whose real and imaginary parts are N(0, 1)."""
    return rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]


def _draw(rng: np.random.Generator, power: np.ndarray, antennas: np.ndarray) -> np.ndarray:
    """Rayleigh channels [r, N, c] whose AP block b holds antennas[b] rows of
    per-entry power[r, b, c]."""
    amp = np.repeat(np.sqrt(0.5 * power), antennas, axis=1)
    h = _gauss(rng, amp.shape)
    h *= amp
    return h


def _stream(seed: int, channel: int, index: int) -> np.random.Generator:
    """The stream of one job, or (index 2^20) of a channel's sampled chain
    states: SFC64 keyed [seed, channel, index] through its seed sequence."""
    return np.random.Generator(np.random.SFC64([seed, channel, index]))


def _realization_bytes(groups: list[_Group]) -> int:
    """Bytes one realization of a job holds: a one-stream group's [B, k]
    energies, a single-AP ZF group's [S] xi (if heard, [S, S] factor and
    beams), a pooled one's [N, S] channel, [S, S] Gram matrix, factor R
    and R^-1 (if heard, R gives way to the unit rows of R^-1, and H R^-1
    and the beams add two [N, S]); per pair (i, j) a [cols_i] leakage, an
    [S_j, cols_i] z and its product, or an [N_j, cols_i] h."""
    total, heard = 0, len(groups) > 1
    for g in groups:
        cols = len(g.users) if g.streams == 1 else g.streams
        own = (8 * len(g.aps) if g.streams == 1 else 8 + 32 * cols * heard
               if len(g.aps) == 1 else 16 * ((1 + 2 * heard) * g.n_antennas + 3 * cols))
        hears = sum(8 if j.streams == 1 else 32 * j.streams if len(j.aps) == 1
                    else 16 * j.n_antennas for j in groups if j is not g)
        total += cols * (own + hears)
    return total


def _realize(rng: np.random.Generator, gains: GainMatrix, groups: list[_Group],
             r: int, sums: list[np.ndarray]) -> None:
    """Draw r realizations of one job's groups and add each scored user's
    rate and its square into its group's [2, users] sums."""
    picks, cols, signals, beams = [], [], [], []
    heard = len(groups) > 1
    for g in groups:
        k = len(g.users)
        if g.streams == 1:  # every user scored in every realization
            picks.append(None)
            cols.append(np.broadcast_to(g.users, (r, k)))
            gain = gains.ap_to_ut[g.aps[:, None], g.users]
            # Equal arrays draw from a scalar shape: the same draws, faster.
            m = float(g.antennas[0]) if np.ptp(g.antennas) == 0 else g.antennas[:, None]
            energy = rng.standard_gamma(m, (r,) + gain.shape)
            signals.append(g.power * np.einsum("rbk,bk->rk", energy, gain))
            # A lead user outside every sector gets the unit-gain beam E_b / sum E.
            lead = rng.integers(k, size=r)
            share = np.where(gain[:, lead].any(axis=0), gain[:, lead], 1.0).T
            share = share * energy[np.arange(r), :, lead]
            beams.append(share / share.sum(axis=1, keepdims=True))
            continue
        picks.append(_random_subsets(rng, r, k, g.streams))
        cols.append(g.users[picks[-1]])
        if len(g.aps) == 1:
            # One AP's unit-gain columns are iid CN(0, 1), sectors or not:
            # draw their Bartlett factor, or only xi if nobody hears the beams.
            n, scale = g.n_antennas, gains.ap_to_ut[g.aps[0], cols[-1]]
            xi, v = (_zf_factor(rng, n, g.streams, (r,))[1:] if heard else
                     (rng.standard_gamma(n - g.streams + 1, (r, g.streams)), None))
        else:
            link = gains.ap_to_ut[g.aps[:, None], cols[-1][:, None]]
            # Precode on columns normalized to unit mean gain over the N
            # antennas, so a user outside every sector keeps a finite beam.
            scale = g.antennas @ link / g.n_antennas
            link /= np.where(scale > 0, scale, 1.0)[:, None]
            link += (scale == 0)[:, None]
            v, xi = _zf_precoders(_draw(rng, link, g.antennas), heard)
        signals.append(xi * scale * (g.power / g.streams))
        beams.append(v)
    for i, g in enumerate(groups):
        interf = 0.0
        for j, other in enumerate(groups):
            if j == i:
                continue
            if other.streams == 1:
                # A one-stream victim's users are the same in every realization.
                power = (beams[j] @ gains.ap_to_ut[other.aps[:, None], g.users]
                         if picks[i] is None else np.einsum(
                             "rb,rbc->rc", beams[j],
                             gains.ap_to_ut[other.aps[:, None], cols[i][:, None]]))
                leak = power * rng.standard_exponential(cols[i].shape)
            elif len(other.aps) == 1:
                # A fresh channel seen in the frame of the AP's served
                # columns is z ~ CN(0, g I_S); there the beams are W's rows.
                y = beams[j] @ _gauss(rng, (r, other.streams, cols[i].shape[1]))
                leak = 0.5 * gains.ap_to_ut[other.aps[0], cols[i]] * (
                    np.einsum("rsc,rsc->rc", y.real, y.real)
                    + np.einsum("rsc,rsc->rc", y.imag, y.imag))
            else:
                # A fresh circularly symmetric h makes h^T v as distributed
                # as v^H h, without conjugating the beams.
                h = _draw(rng, gains.ap_to_ut[other.aps[:, None], cols[i][:, None]],
                          other.antennas)
                leak = np.sum(np.abs(np.swapaxes(h, 1, 2) @ beams[j]) ** 2, axis=2)
            interf = interf + other.power / other.streams * leak
        x = np.log2(1.0 + signals[i] / (1.0 + interf))
        if picks[i] is None:
            x /= len(g.users)
            sums[i] += (x.sum(axis=0), np.einsum("rk,rk->k", x, x))
            continue
        for row, y in zip(sums[i], (x, x**2)):
            row += np.bincount(picks[i].ravel(), y.ravel(), len(row))


def _pool_size() -> int:
    """The CPUs this process may use (an affinity mask such as taskset's
    limits them): the oracle's thread pool has one worker each."""
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _job_sums(rng: np.random.Generator, gains: GainMatrix, groups: list[_Group],
              draws: int) -> list[np.ndarray]:
    """One job's [2, users] rate and squared-rate sums per group over its
    draws, in chunks whose arrays fit half of rates.BLOCK_BYTES (at least
    one realization per chunk)."""
    sums = [np.zeros((2, len(g.users))) for g in groups]
    for chunk in rates.row_blocks(draws, _realization_bytes(groups), rates.BLOCK_BYTES // 2):
        _realize(rng, gains, groups, chunk.stop - chunk.start, sums)
    return sums


def _simulate(scenario: Scenario, gains: GainMatrix, channels: dict[int, ChannelGroups],
              technology: Technology, config: OracleConfig, seed: int) -> OracleReport:
    """Fading-average the per-user rates of the channels' weighted jobs.

    A job is (weight, draws, sampled, rng, groups), the groups being the
    ones active together on one channel. A one-stream group evaluates every
    user as if served, at weight 1/|U|. A multi-stream group evaluates its
    uniformly drawn served S-subset at weight 1, so that the service
    frequency S/|U| realizes the equal-air-time share.

    The jobs are built on the calling thread (the chain walk holds the GIL)
    and drawn on a thread pool of _pool_size() workers, whose normal and
    gamma fills, batched products and Cholesky factors release it. Each job
    has its own stream and chunk sizes that do not depend on the pool, and
    its sums are added in job order, so the estimates are the same bits for
    any pool size. A worker draws one chunk at a time, fitting half of
    rates.BLOCK_BYTES. A failing job cancels those not yet started and
    raises.
    """
    from concurrent.futures import ThreadPoolExecutor  # on use: keeps the import light

    mean, var, spread = (np.zeros(scenario.n_users) for _ in range(3))
    drawn = 0

    def add(weight, draws, sampled, groups, future):
        for g, (total, total_sq) in zip(groups, future.result()):
            m = total / draws
            mean[g.users] += weight * m
            var[g.users] += weight**2 * np.maximum(total_sq / draws - m**2, 0.0) / draws
            if sampled:
                spread[g.users] += weight * m**2

    workers = _pool_size()
    pending, queued = deque(), 0  # jobs in flight and their draws
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for weight, draws, sampled, rng, groups in _jobs(scenario, gains, channels,
                                                             technology, config, seed):
                pending.append((weight, draws, sampled, groups,
                                pool.submit(_job_sums, rng, gains, groups, draws)))
                drawn += draws
                queued += draws
                # Add finished jobs in job order. Wait for the oldest only
                # once the jobs behind it hold more draws than the other
                # workers need to stay busy while it runs (a job draws at
                # most n), which also bounds the jobs held.
                while pending and (pending[0][-1].done()
                                   or queued > 2 * workers * config.n_realizations):
                    queued -= pending[0][1]
                    add(*pending.popleft())
            while pending:
                add(*pending.popleft())
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    # Sampled state counts are random too: add the spread of the per-state
    # means (none for enumerated chains, whose spread 0 is below mean^2).
    var += np.maximum(spread - mean**2, 0.0) / config.n_realizations
    return OracleReport(mean, np.sqrt(var), config.n_realizations, drawn)


def _jobs(scenario: Scenario, gains: GainMatrix, channels: dict[int, ChannelGroups],
          technology: Technology, config: OracleConfig, seed: int):
    """One job per (channel, chain state): each of the state's active groups
    with users zero-forces the stream count the model's kernel chose for it
    in that state."""
    aps = scenario.aps
    tech = TechConfig(technology=technology)
    for ch_id, channel in channels.items():
        words, weights, draws, sampled = _state_jobs(
            channel.chain, config.n_realizations, _stream(seed, ch_id, 1 << 20))
        streams = rates._state_rates(gains, aps, channel, tech, words)[1]
        if not sampled:
            draws = _draw_counts(weights, streams > 0, config.n_realizations)
        for idx, (weight, n, row) in enumerate(zip(weights.tolist(), draws.tolist(), streams)):
            groups = [_group(aps, ap_ids, cell, s)
                      for ap_ids, cell, s in zip(channel.groups, channel.cells, row) if s > 0]
            if groups:
                yield (weight, n, sampled,
                       _stream(seed, ch_id, idx), groups)


def mc_su_rate(scenario: Scenario, gains: GainMatrix, groups: dict[int, ChannelGroups],
               config: OracleConfig, seed: int = 0) -> OracleReport:
    """Monte Carlo single-user beamforming rates: each active group with
    users is one stream, its beam conjugate to one of its users. Each
    (channel, chain state) job draws from its own SFC64 stream keyed
    [seed, channel, index], so a seed repeats its numbers exactly."""
    return _simulate(scenario, gains, groups, Technology.SU_BEAMFORMING, config, seed)


def mc_mu_rate(scenario: Scenario, gains: GainMatrix, groups: dict[int, ChannelGroups],
               config: OracleConfig, seed: int = 0) -> OracleReport:
    """Monte Carlo concentrated MU-MIMO rates: each active AP zero-forces to
    a uniformly random subset of its users, sized by the deterministic
    stream optimizer for that contention state, drawing from the job's
    SFC64 stream as in mc_su_rate."""
    return _simulate(scenario, gains, groups, Technology.CONCENTRATED_MU_MIMO, config, seed)


def mc_dist_rate(scenario: Scenario, gains: GainMatrix, groups: dict[int, ChannelGroups],
                 config: OracleConfig, seed: int = 0) -> OracleReport:
    """Monte Carlo pooled-array (distributed MU-MIMO) rates: each cluster with
    users zero-forces from its composite array to a uniformly random user
    subset sized by the deterministic optimizer, and clusters sharing a
    channel interfere through their ZF beams. The composite channels are
    drawn per AP block, one amplitude repeated over each AP's antennas, from
    the job's SFC64 stream as in mc_su_rate."""
    return _simulate(scenario, gains, groups, Technology.DISTRIBUTED_MU_MIMO, config, seed)

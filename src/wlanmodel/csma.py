"""Carrier-sense contention graph and its continuous-time Markov chain.

APs on the same channel that receive each other above the clear-channel
threshold defer to each other; feasible transmission patterns are the
independent sets of the contention graph. In the idealized collision-free
chain, the stationary probability of a pattern depends only on its size:
pi_m proportional to rho^|m|, with rho the transmit/countdown time ratio.

The graph is a channel per AP and a symmetric bool adjacency matrix. Each
channel's neighbour bitmasks are Python ints, since one channel can hold
more than 64 APs; the enumeration of every independent set keeps each set
as a row of ceil(n/64) little-endian 64-bit words, so one AND tests it
against a member's neighbours whatever the width.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .propagation import GainMatrix
from .radio_plan import ChannelPlan
from .scenario import ApNode

DEFAULT_RHO = 100.0
DEFAULT_STATE_CAP = 1_000_000


class CtmcMode(str, Enum):
    ALL_INDEPENDENT_SETS = "all_independent_sets"
    MAXIMAL_ONLY = "maximal_only"
    NO_CSMA = "no_csma"


class StateSpaceOverflow(RuntimeError):
    """Raised when full independent-set enumeration would exceed the cap."""


@dataclass
class ContentionGraph:
    channel: np.ndarray    # [n_aps] channel id of each AP
    adjacency: np.ndarray  # [n_aps, n_aps] symmetric bool: the pair defers
    cca_db: float | None   # None means carrier sensing disabled

    def members(self, channel_id: int) -> list[int]:
        return np.flatnonzero(self.channel == channel_id).tolist()

    def edges(self) -> list[tuple[int, int]]:
        return [tuple(e) for e in np.argwhere(np.triu(self.adjacency, 1)).tolist()]


def build_contention_graph(gains: GainMatrix, plan: ChannelPlan,
                           aps: tuple[ApNode, ...],
                           cca_db: float | None) -> ContentionGraph:
    """Edge (i, j) iff same channel and either side receives the other at or
    above the threshold (sensing symmetrized by OR)."""
    channel = np.array([plan.ap_channel[a] for a in range(len(aps))], dtype=int)
    heard = np.zeros((channel.size, channel.size), dtype=bool)
    if cca_db is not None:
        powers = np.array([ap.power_linear for ap in aps])
        heard = powers[:, None] * gains.ap_to_ap >= 10.0 ** (cca_db / 10.0)
    adjacency = (heard | heard.T) & (channel[:, None] == channel)
    np.fill_diagonal(adjacency, False)
    return ContentionGraph(channel=channel, adjacency=adjacency, cca_db=cca_db)


def _neighbor_masks(adjacency: np.ndarray) -> list[int]:
    """Each row's neighbours as the bits of a Python int, of any width."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _all_independent_states(nbr: list[int], cap: int) -> np.ndarray:
    """Every independent set of the graph as a 0/1 [n_sets, n] matrix, in
    ascending bitmask order (bit v is member v).

    Members join one at a time: the sets found so far stay, and each of them
    with no earlier neighbour of the new member on is appended with its bit
    set. Appended rows are the old rows plus 2^v, so the order holds, and the
    row count only grows, so an overflow shows as soon as it happens. While
    they grow, the rows are bitmasks of ceil(n/64) little-endian uint64
    words (word w holds members 64w to 64w + 63), tested by one AND against
    the new member's earlier neighbours and unpacked once at the end.
    """
    n = len(nbr)
    width = -(-n // 64)
    states = np.zeros((1, width), dtype="<u8")
    for v in range(n):
        if len(states) > cap:
            break
        earlier = np.frombuffer((nbr[v] & ((1 << v) - 1)).to_bytes(8 * width, "little"),
                                dtype="<u8")
        new = states[~(states & earlier).any(axis=1)]
        new[:, v // 64] |= np.uint64(1 << v % 64)
        states = np.concatenate([states, new])
    if len(states) > cap:
        raise StateSpaceOverflow(
            f"more than {cap} independent sets in one channel; "
            "use MAXIMAL_ONLY mode")
    return np.unpackbits(states.view(np.uint8), axis=1, count=n, bitorder="little")


def _maximal_independent_masks(nbr: list[int], cap: int) -> list[int]:
    """Maximal independent sets via pivoting branch-and-bound over bitmasks.

    Works on the complement adjacency, where maximal independent sets are
    maximal cliques.
    """
    n = len(nbr)
    full = (1 << n) - 1
    comp = [full & ~nbr[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int):
        if p == 0 and x == 0:
            out.append(r)
            if len(out) > cap:
                raise StateSpaceOverflow(
                    f"more than {cap} maximal independent sets in one channel")
            return
        pool = p | x
        pivot, best = -1, -1
        m = pool
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            cnt = bin(p & comp[v]).count("1")
            if cnt > best:
                pivot, best = v, cnt
        cand = p & ~comp[pivot]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            expand(r | bit, p & comp[v], x & comp[v])
            p &= ~bit
            x |= bit
            cand &= ~bit

    if n:
        expand(0, full, 0)
    else:
        out.append(0)
    return sorted(out)


def _channel_state_arrays(graph: ContentionGraph, mode: CtmcMode | None, cap: int
                          ) -> dict[int, tuple[list[int], np.ndarray, CtmcMode]]:
    """Per channel: (member ap ids, state matrix over those members, mode).

    Mode None takes the single all-on state when nobody senses (cca_db None);
    otherwise it enumerates every independent set of a channel and falls back
    to its maximal independent sets only when that channel overflows `cap`.
    """
    if mode is None and graph.cca_db is None:
        mode = CtmcMode.NO_CSMA
    result = {}
    for ch in np.unique(graph.channel).tolist():
        members = graph.members(ch)
        nbr = _neighbor_masks(graph.adjacency[np.ix_(members, members)])
        ch_mode = mode
        if mode == CtmcMode.NO_CSMA:
            states = np.ones((1, len(members)), dtype=np.uint8)
        elif mode != CtmcMode.MAXIMAL_ONLY:
            try:
                ch_mode = CtmcMode.ALL_INDEPENDENT_SETS
                states = _all_independent_states(nbr, cap)
            except StateSpaceOverflow:
                if mode is not None:
                    raise
                ch_mode = CtmcMode.MAXIMAL_ONLY
        if ch_mode == CtmcMode.MAXIMAL_ONLY:
            states = _masks_to_matrix(_maximal_independent_masks(nbr, cap), len(members))
        result[ch] = (members, states, ch_mode)
    return result


def _masks_to_matrix(masks: list[int], n_bits: int) -> np.ndarray:
    """[len(masks), n_bits] 0/1 matrix; bit b of mask s is entry [s, b]."""
    width = (n_bits + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks),
                        dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(raw, axis=1, count=n_bits, bitorder="little")


def enumerate_states(graph: ContentionGraph, mode: CtmcMode,
                     cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """State space over all APs; cross-channel states are Cartesian products
    of the per-channel independent sets.

    Returns a [n_states, n_aps] 0/1 matrix with columns in AP id order.
    Raises StateSpaceOverflow beyond `cap` total states.
    """
    if mode == CtmcMode.NO_CSMA:
        return np.ones((1, graph.channel.size), dtype=np.uint8)
    per_channel = _channel_state_arrays(graph, mode, cap)
    total = 1
    for _, states, _ in per_channel.values():
        total *= len(states)
        if total > cap:
            raise StateSpaceOverflow(
                f"cross-channel product exceeds {cap} states; "
                "use MAXIMAL_ONLY mode")
    out = np.zeros((total, graph.channel.size), dtype=np.uint8)
    sizes = [len(states) for _, states, _ in per_channel.values()]
    grids = np.indices(sizes).reshape(len(sizes), -1)
    for axis, (members, states, _) in enumerate(per_channel.values()):
        out[:, members] = states[grids[axis]]
    return out


@dataclass
class CtmcModel:
    """Stationary law over transmission patterns: pi ~ rho^(pattern size)."""

    states: np.ndarray  # [n_states, n_aps] 0/1
    pi: np.ndarray      # [n_states]
    mode: CtmcMode

    @property
    def n_states(self) -> int:
        return self.states.shape[0]


def stationary_distribution(states: np.ndarray, rho: float,
                            mode: CtmcMode = CtmcMode.ALL_INDEPENDENT_SETS) -> CtmcModel:
    """Normalize rho^|m| over the supplied state list (log-space)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    states = np.asarray(states)
    if states.size == 0 or states.ndim != 2:
        raise ValueError("state list must be a nonempty 2-D matrix")
    sizes = states.sum(axis=1).astype(float)
    logw = sizes * np.log(rho)
    pi = np.exp(logw - logw.max())
    pi /= pi.sum()
    return CtmcModel(states=np.asarray(states, dtype=np.uint8), pi=pi, mode=mode)


@dataclass
class ChannelCtmc:
    """Per-channel chain: member ap ids plus the model over those columns."""

    channel_id: int
    members: tuple[int, ...]
    model: CtmcModel


def channel_ctmcs(graph: ContentionGraph, rho: float,
                  mode: CtmcMode | None = None,
                  cap: int = DEFAULT_STATE_CAP) -> dict[int, ChannelCtmc]:
    """One chain per channel. Channels evolve independently, and the full
    product chain's stationary law factorizes across them, so per-channel
    models are exact and avoid materializing the product space.

    Mode None takes one all-on state when sensing is off (graph.cca_db None)
    and otherwise enumerates every independent set, falling back to maximal
    independent sets only on the channels whose enumeration exceeds `cap`;
    each chain's model records the mode it used."""
    out = {}
    for ch, (members, states, ch_mode) in _channel_state_arrays(
            graph, mode, cap).items():
        out[ch] = ChannelCtmc(
            channel_id=ch,
            members=tuple(members),
            model=stationary_distribution(states, rho, ch_mode),
        )
    return out

"""Carrier-sense contention graph and its continuous-time Markov chain.

APs on the same channel that receive each other above the clear-channel
threshold defer to each other; feasible transmission patterns are the
independent sets of the contention graph. In the idealized collision-free
chain, the stationary probability of a pattern depends only on its size:
pi_m proportional to rho^|m|, with rho the transmit/countdown time ratio.

The graph is a channel per AP and a symmetric bool adjacency matrix. Each
channel's neighbour bitmasks are Python ints, since one channel can hold
more than 64 APs. A chain's states stay packed end to end: each is a row
of ceil(n/64) little-endian 64-bit words in every mode, so one AND tests
it against a member's neighbours whatever the width. As pi depends only on
the size, the model keeps each state's size and one weight per size, not
a probability per state; consumers unpack the rows a block at a time.
"""

from __future__ import annotations

import math
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
    """Every independent set of the graph as a [n_sets, ceil(n/64)] matrix of
    little-endian uint64 words (word w holds members 64w to 64w + 63), in
    ascending bitmask order (bit v is member v).

    Members join one at a time: the sets found so far stay, and each of them
    with no earlier neighbour of the new member on is appended with its bit
    set. Appended rows are the old rows plus 2^v, so the order holds, and the
    row count only grows, so an overflow shows as soon as it happens. Rows
    are tested on the words holding an earlier neighbour, whatever the
    width, in one buffer grown by half when full and cut in place at the end.
    """
    n = len(nbr)
    width = -(-n // 64)
    states = np.zeros((1, width), dtype="<u8")
    count = 1
    for v in range(n):
        if count > cap:
            break
        earlier = np.frombuffer((nbr[v] & ((1 << v) - 1)).to_bytes(8 * width, "little"),
                                dtype="<u8")
        free = np.ones(count, dtype=bool)
        for w in np.flatnonzero(earlier).tolist():
            free &= (states[:count, w] & earlier[w]) == 0
        new = count + int(np.count_nonzero(free))
        if new > len(states):
            states.resize((max(new, len(states) * 3 // 2), width), refcheck=False)
        np.compress(free, states[:count], axis=0, out=states[count:new])
        states[count:new, v // 64] |= np.uint64(1 << v % 64)
        count = new
    if count > cap:
        raise StateSpaceOverflow(
            f"more than {cap} independent sets in one channel; "
            "use MAXIMAL_ONLY mode")
    states.resize((count, width), refcheck=False)
    return states


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


def _pack_masks(masks: list[int], n_bits: int) -> np.ndarray:
    """[len(masks), ceil(n_bits/64)] little-endian uint64 words; bit b of
    mask s is bit b % 64 of word b // 64 of row s."""
    width = -(-n_bits // 64)
    raw = b"".join(m.to_bytes(8 * width, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), width)


def _channel_states(nbr: list[int], mode: CtmcMode | None, cap: int
                    ) -> tuple[np.ndarray, CtmcMode]:
    """One channel's states as packed words, and the mode that made them.

    NO_CSMA is the one all-on state. Mode None enumerates every independent
    set and falls back to the maximal ones only when that overflows `cap`.
    """
    n = len(nbr)
    if mode == CtmcMode.NO_CSMA:
        return _pack_masks([(1 << n) - 1], n), mode
    if mode != CtmcMode.MAXIMAL_ONLY:
        try:
            return _all_independent_states(nbr, cap), CtmcMode.ALL_INDEPENDENT_SETS
        except StateSpaceOverflow:
            if mode is not None:
                raise
    return _pack_masks(_maximal_independent_masks(nbr, cap), n), CtmcMode.MAXIMAL_ONLY


@dataclass
class CtmcModel:
    """Stationary law over transmission patterns: pi ~ rho^(pattern size).

    The states are held packed, ceil(n_members/64) words a state, and the
    law by size: every state of size j has probability weights[j], so one
    float per size, not per state, carries pi. Read them a block at a time
    through rows() and pi().
    """

    words: np.ndarray    # [n_states, ceil(n_members/64)] little-endian uint64
    n_members: int
    sizes: np.ndarray    # [n_states] uint16: members on in each state
    weights: np.ndarray  # [max size + 1]: pi of one state of each size
    mode: CtmcMode

    @property
    def n_states(self) -> int:
        return self.words.shape[0]

    def rows(self, block=slice(None)) -> np.ndarray:
        """The states `block` (a slice or index array) as 0/1 uint8 rows."""
        return np.unpackbits(self.words[block].view(np.uint8), axis=1,
                             count=self.n_members, bitorder="little")

    def pi(self, block=slice(None)) -> np.ndarray:
        """The stationary probabilities of the states `block`."""
        return self.weights[self.sizes[block]]


def size_weights(counts: np.ndarray, rho: float) -> np.ndarray:
    """The chain law by size, w_j = rho^j / sum_i N_i rho^i (N_i = counts[i]
    states of size i), in log space; a size that does not occur weighs 0."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    logw = np.where(counts > 0, np.arange(counts.size) * np.log(rho), -np.inf)
    weights = np.exp(logw - logw.max())
    return weights / (counts @ weights)


def _packed_law(words: np.ndarray, n_members: int, rho: float,
                mode: CtmcMode) -> CtmcModel:
    """The law rho^|m| over packed states, one weight per size (size_weights)."""
    sizes = np.bitwise_count(words).sum(axis=1, dtype=np.uint16)
    return CtmcModel(words, n_members, sizes, size_weights(np.bincount(sizes), rho), mode)


def stationary_distribution(states: np.ndarray, rho: float,
                            mode: CtmcMode = CtmcMode.ALL_INDEPENDENT_SETS) -> CtmcModel:
    """Normalize rho^|m| over the supplied 0/1 [n_states, n] state list."""
    states = np.asarray(states)
    if states.size == 0 or states.ndim != 2:
        raise ValueError("state list must be a nonempty 2-D matrix")
    n = states.shape[1]
    packed = np.zeros((states.shape[0], 8 * -(-n // 64)), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(states != 0, axis=1, bitorder="little")
    return _packed_law(packed.view("<u8"), n, rho, mode)


@dataclass
class ChannelCtmc:
    """Per-channel chain: member ap ids plus the model over those columns."""

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
    if mode is None and graph.cca_db is None:
        mode = CtmcMode.NO_CSMA
    out = {}
    for ch in np.unique(graph.channel).tolist():
        members = graph.members(ch)
        nbr = _neighbor_masks(graph.adjacency[np.ix_(members, members)])
        words, ch_mode = _channel_states(nbr, mode, cap)
        out[ch] = ChannelCtmc(tuple(members),
                              _packed_law(words, len(members), rho, ch_mode))
    return out


def enumerate_states(graph: ContentionGraph, mode: CtmcMode,
                     cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """State space over all APs; cross-channel states are Cartesian products
    of the per-channel independent sets.

    Returns a [n_states, n_aps] 0/1 matrix with columns in AP id order.
    Raises StateSpaceOverflow beyond `cap` total states.
    """
    chains = channel_ctmcs(graph, 1.0, mode, cap).values()
    shape = [c.model.n_states for c in chains]
    if math.prod(shape) > cap:
        raise StateSpaceOverflow(
            f"cross-channel product exceeds {cap} states; "
            "use MAXIMAL_ONLY mode")
    out = np.zeros((math.prod(shape), graph.channel.size), dtype=np.uint8)
    grids = np.indices(shape).reshape(len(shape), -1)
    for axis, c in enumerate(chains):
        out[:, list(c.members)] = c.model.rows(grids[axis])
    return out

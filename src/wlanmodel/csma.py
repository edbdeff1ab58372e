"""Carrier-sense contention graph and its continuous-time Markov chain.

APs on the same channel that receive each other above the clear-channel
threshold defer to each other; feasible transmission patterns are the
independent sets of the contention graph. In the idealized collision-free
chain, the stationary probability of a pattern depends only on its size:
pi_m proportional to rho^|m|, with rho the transmit/countdown time ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import logsumexp

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
    ap_order: tuple[int, ...]
    channel_of: dict[int, int]
    adjacency: dict[int, frozenset[int]]
    cca_db: float | None  # None means carrier sensing disabled

    @property
    def n_aps(self) -> int:
        return len(self.ap_order)

    @property
    def channels(self) -> list[int]:
        return sorted(set(self.channel_of.values()))

    def members(self, channel_id: int) -> list[int]:
        return [a for a in self.ap_order if self.channel_of[a] == channel_id]

    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (i, j) for i, nbrs in self.adjacency.items() for j in nbrs if i < j)


def build_contention_graph(gains: GainMatrix, plan: ChannelPlan,
                           aps: tuple[ApNode, ...],
                           cca_db: float | None) -> ContentionGraph:
    """Edge (i, j) iff same channel and either side receives the other at or
    above the threshold (sensing symmetrized by OR)."""
    n = len(aps)
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    if cca_db is not None:
        thr = 10.0 ** (cca_db / 10.0)
        powers = np.array([ap.power_linear for ap in aps])
        for i in range(n):
            for j in range(i + 1, n):
                if plan.ap_channel[i] != plan.ap_channel[j]:
                    continue
                if powers[j] * gains.ap_to_ap[j, i] >= thr or \
                   powers[i] * gains.ap_to_ap[i, j] >= thr:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    return ContentionGraph(
        ap_order=tuple(range(n)),
        channel_of=dict(plan.ap_channel),
        adjacency={i: frozenset(nbrs) for i, nbrs in adjacency.items()},
        cca_db=cca_db,
    )


def _neighbor_masks(members: list[int], adjacency: dict[int, frozenset[int]]) -> list[int]:
    index = {ap: b for b, ap in enumerate(members)}
    masks = []
    for ap in members:
        m = 0
        for nbr in adjacency[ap]:
            if nbr in index:
                m |= 1 << index[nbr]
        masks.append(m)
    return masks


def _all_independent_masks(nbr: list[int], cap: int) -> list[int]:
    """Every independent set of the graph as bitmasks (DFS, one per leaf)."""
    n = len(nbr)
    out: list[int] = []
    stack = [(0, 0)]
    while stack:
        v, mask = stack.pop()
        if v == n:
            out.append(mask)
            if len(out) > cap:
                raise StateSpaceOverflow(
                    f"more than {cap} independent sets in one channel; "
                    "use MAXIMAL_ONLY mode")
            continue
        stack.append((v + 1, mask))
        if nbr[v] & mask == 0:
            stack.append((v + 1, mask | (1 << v)))
    return sorted(out)


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

    Mode None enumerates every independent set of a channel and falls back
    to its maximal independent sets only when that channel overflows `cap`.
    """
    result = {}
    for ch in graph.channels:
        members = graph.members(ch)
        nbr = _neighbor_masks(members, graph.adjacency)
        ch_mode = mode
        if mode == CtmcMode.NO_CSMA:
            masks = [(1 << len(members)) - 1]
        elif mode == CtmcMode.MAXIMAL_ONLY:
            masks = _maximal_independent_masks(nbr, cap)
        elif mode == CtmcMode.ALL_INDEPENDENT_SETS:
            masks = _all_independent_masks(nbr, cap)
        else:
            try:
                ch_mode = CtmcMode.ALL_INDEPENDENT_SETS
                masks = _all_independent_masks(nbr, cap)
            except StateSpaceOverflow:
                ch_mode = CtmcMode.MAXIMAL_ONLY
                masks = _maximal_independent_masks(nbr, cap)
        result[ch] = (members, _masks_to_matrix(masks, len(members)), ch_mode)
    return result


def _masks_to_matrix(masks: list[int], n_bits: int) -> np.ndarray:
    if n_bits == 0:
        return np.zeros((len(masks), 0), dtype=np.uint8)
    if n_bits <= 63:
        arr = np.asarray(masks, dtype=np.uint64)
        bits = (arr[:, None] >> np.arange(n_bits, dtype=np.uint64)) & np.uint64(1)
        return bits.astype(np.uint8)
    out = np.zeros((len(masks), n_bits), dtype=np.uint8)
    for s, mask in enumerate(masks):  # arbitrary-width fallback
        for b in range(n_bits):
            if mask >> b & 1:
                out[s, b] = 1
    return out


def enumerate_states(graph: ContentionGraph, mode: CtmcMode,
                     cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """State space over all APs; cross-channel states are Cartesian products
    of the per-channel independent sets.

    Returns a [n_states, n_aps] 0/1 matrix with columns in graph.ap_order.
    Raises StateSpaceOverflow beyond `cap` total states.
    """
    if mode == CtmcMode.NO_CSMA:
        return np.ones((1, graph.n_aps), dtype=np.uint8)
    per_channel = _channel_state_arrays(graph, mode, cap)
    total = 1
    for _, states, _ in per_channel.values():
        total *= len(states)
        if total > cap:
            raise StateSpaceOverflow(
                f"cross-channel product exceeds {cap} states; "
                "use MAXIMAL_ONLY mode")
    col = {ap: idx for idx, ap in enumerate(graph.ap_order)}
    out = np.zeros((total, graph.n_aps), dtype=np.uint8)
    sizes = [len(states) for _, states, _ in per_channel.values()]
    grids = np.indices(sizes).reshape(len(sizes), -1)
    for axis, (members, states, _) in enumerate(per_channel.values()):
        cols = [col[ap] for ap in members]
        out[:, cols] = states[grids[axis]]
    return out


@dataclass
class CtmcModel:
    """Stationary law over transmission patterns: pi ~ rho^(pattern size)."""

    states: np.ndarray  # [n_states, n_aps] 0/1
    pi: np.ndarray      # [n_states]
    rho: float
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
    pi = np.exp(logw - logsumexp(logw))
    pi /= pi.sum()
    return CtmcModel(states=states.astype(np.uint8), pi=pi, rho=rho, mode=mode)


def airtime_shares(model: CtmcModel) -> np.ndarray:
    """Per-AP transmit-time fraction: sum of pi over states where it is on."""
    return model.pi @ model.states


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

    Mode None enumerates every independent set, falling back to maximal
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

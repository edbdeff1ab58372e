import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlanmodel.csma import (
    ContentionGraph,
    CtmcMode,
    StateSpaceOverflow,
    _all_independent_states,
    _channel_states,
    _neighbor_masks as packed_neighbor_masks,
    _packed_law,
    build_contention_graph,
    channel_ctmcs,
    enumerate_states,
    stationary_distribution,
)
from wlanmodel import pipeline
from wlanmodel.propagation import GainMatrix
from wlanmodel.radio_plan import ChannelPlan
from wlanmodel.scenario import ApNode


def airtime_shares(model):
    """Per-AP transmit-time fraction: sum of pi over states where it is on."""
    return model.pi() @ model.rows()


def make_graph(n, edges, channel_of=None, cca_db=10.0):
    channel_of = channel_of or {i: 0 for i in range(n)}
    adjacency = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = True
    return ContentionGraph(channel=np.array([channel_of[i] for i in range(n)]),
                           adjacency=adjacency, cca_db=cca_db)


# Two triangles joined by a perfect matching: its independent sets are the
# empty set, six singletons, and six pairs (13 states).
PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
               (0, 3), (1, 4), (2, 5)]


def brute_force_independent_sets(n, edges):
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    sets = []
    for r in range(n + 1):
        for comb in itertools.combinations(range(n), r):
            if all(y not in adj[x] for x in comb for y in comb):
                sets.append(frozenset(comb))
    return set(sets)


def states_to_sets(states):
    return {frozenset(np.flatnonzero(row)) for row in np.asarray(states)}


def test_contention_graph_threshold_edge():
    # Co-located pair: 90 dB power, 60 dB pathloss -> 30 dB received >= 10 dB.
    g = np.full((2, 2), 1e-6)
    np.fill_diagonal(g, 0.0)
    gains = GainMatrix(ap_to_ut=np.full((2, 1), 1e-6), ap_to_ap=g)
    aps = (ApNode(0, (0.0, 0.0)), ApNode(1, (1.0, 0.0)))
    plan = ChannelPlan({0: 0, 1: 0})
    graph = build_contention_graph(gains, plan, aps, cca_db=10.0)
    assert graph.edges() == [(0, 1)]
    # 30 dB received < 31 dB threshold: no edge
    graph = build_contention_graph(gains, plan, aps, cca_db=31.0)
    assert graph.edges() == []


def test_contention_graph_channel_gating_and_disabled():
    g = np.full((2, 2), 1e-6)
    np.fill_diagonal(g, 0.0)
    gains = GainMatrix(ap_to_ut=np.full((2, 1), 1e-6), ap_to_ap=g)
    aps = (ApNode(0, (0.0, 0.0)), ApNode(1, (1.0, 0.0)))
    split = ChannelPlan({0: 0, 1: 1})
    assert build_contention_graph(gains, split, aps, 10.0).edges() == []
    same = ChannelPlan({0: 0, 1: 0})
    assert build_contention_graph(gains, same, aps, None).edges() == []
    # Nobody senses, so nobody defers: the chain is the one all-on state.
    (chain,) = channel_ctmcs(build_contention_graph(gains, same, aps, None), 100.0).values()
    assert chain.model.mode == CtmcMode.NO_CSMA and chain.model.rows().tolist() == [[1, 1]]


def test_contention_symmetrized_by_or():
    # Asymmetric gains (sectorized transmitter): one direction suffices.
    ap_to_ap = np.array([[0.0, 1e-6], [0.0, 0.0]])
    gains = GainMatrix(ap_to_ut=np.full((2, 1), 1e-6), ap_to_ap=ap_to_ap)
    aps = (ApNode(0, (0.0, 0.0)), ApNode(1, (1.0, 0.0)))
    plan = ChannelPlan({0: 0, 1: 0})
    assert build_contention_graph(gains, plan, aps, 10.0).edges() == [(0, 1)]


def test_raising_cca_never_adds_edges():
    rng = np.random.default_rng(3)
    n = 6
    g = rng.uniform(1e-9, 1e-5, size=(n, n))
    g = (g + g.T) / 2
    np.fill_diagonal(g, 0.0)
    gains = GainMatrix(ap_to_ut=np.full((n, 2), 1e-6), ap_to_ap=g)
    aps = tuple(ApNode(i, (float(i), 0.0)) for i in range(n))
    plan = ChannelPlan({i: 0 for i in range(n)})
    prev = None
    for cca in (0.0, 10.0, 20.0, 30.0):
        edges = set(build_contention_graph(gains, plan, aps, cca).edges())
        if prev is not None:
            assert edges <= prev
        prev = edges


def test_enumerate_power_set_empty_graph():
    graph = make_graph(3, [])
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    assert states.shape == (8, 3)
    assert states_to_sets(states) == brute_force_independent_sets(3, [])


def test_enumerate_triangle():
    graph = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    assert states.shape[0] == 4
    assert states_to_sets(states) == {frozenset(), frozenset({0}),
                                      frozenset({1}), frozenset({2})}


def test_enumerate_prism_13_states():
    graph = make_graph(6, PRISM_EDGES)
    brute = brute_force_independent_sets(6, PRISM_EDGES)
    assert len(brute) == 13
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    assert states_to_sets(states) == brute
    sizes = sorted(states.sum(axis=1).tolist())
    assert sizes == [0] + [1] * 6 + [2] * 6


def test_enumerate_maximal_only_prism():
    graph = make_graph(6, PRISM_EDGES)
    states = enumerate_states(graph, CtmcMode.MAXIMAL_ONLY)
    # Every vertex sits in some independent pair, so no singleton is maximal.
    assert states.shape[0] == 6
    assert np.all(states.sum(axis=1) == 2)


def test_enumerate_maximal_only_wider_than_a_machine_word():
    # 70 APs that all hear each other: the maximal sets are the singletons,
    # and each mask is wider than 64 bits.
    graph = make_graph(70, itertools.combinations(range(70), 2))
    states = enumerate_states(graph, CtmcMode.MAXIMAL_ONLY)
    assert states.dtype == np.uint8
    assert np.array_equal(states, np.eye(70))


def test_enumerate_no_csma_single_state():
    graph = make_graph(4, [(0, 1)])
    states = enumerate_states(graph, CtmcMode.NO_CSMA)
    assert states.shape == (1, 4)
    assert np.all(states == 1)


def test_enumerate_cross_channel_product():
    # channel 0: edge pair (3 sets); channel 1: two isolated APs (4 sets)
    graph = make_graph(4, [(0, 1)], channel_of={0: 0, 1: 0, 2: 1, 3: 1})
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    assert states.shape[0] == 12
    sets = states_to_sets(states)
    assert frozenset({0, 2, 3}) in sets
    assert not any({0, 1} <= s for s in sets)


def test_enumeration_overflow_raises():
    graph = make_graph(24, [])
    with pytest.raises(StateSpaceOverflow):
        enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS, cap=10_000)
    assert channel_ctmcs(graph, 100.0, cap=10_000)[0].model.mode == \
        CtmcMode.MAXIMAL_ONLY
    small = make_graph(10, [])
    assert channel_ctmcs(small, 100.0, cap=10_000)[0].model.mode == \
        CtmcMode.ALL_INDEPENDENT_SETS


def test_overflowing_channel_falls_back_alone():
    # Channel 0: five isolated APs, 32 independent sets, over the cap of 10.
    # Channel 1: two adjacent APs, 3 independent sets, stays exact.
    channel_of = {i: 0 for i in range(5)} | {5: 1, 6: 1}
    graph = make_graph(7, [(5, 6)], channel_of=channel_of)
    mac = channel_ctmcs(graph, 100.0, None, cap=10)
    assert mac[0].model.mode == CtmcMode.MAXIMAL_ONLY
    assert mac[0].model.n_states == 1
    assert mac[1].model.mode == CtmcMode.ALL_INDEPENDENT_SETS
    assert mac[1].model.n_states == 3
    with pytest.raises(StateSpaceOverflow):
        channel_ctmcs(graph, 100.0, CtmcMode.ALL_INDEPENDENT_SETS, cap=10)


def test_enumeration_equals_brute_force_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 11))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        graph = make_graph(n, edges)
        states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
        assert states_to_sets(states) == brute_force_independent_sets(n, edges)
        # maximal sets are exactly the brute-force maximal ones
        brute = brute_force_independent_sets(n, edges)
        maximal = {s for s in brute
                   if not any(s < t for t in brute)}
        mstates = enumerate_states(graph, CtmcMode.MAXIMAL_ONLY)
        assert states_to_sets(mstates) == maximal


def all_independent_masks(nbr, cap):
    """Every independent set as bitmasks (DFS, one per leaf): the reference
    for the vectorized enumeration."""
    n = len(nbr)
    out = []
    stack = [(0, 0)]
    while stack:
        v, mask = stack.pop()
        if v == n:
            out.append(mask)
            if len(out) > cap:
                raise StateSpaceOverflow(f"more than {cap} independent sets")
            continue
        stack.append((v + 1, mask))
        if nbr[v] & mask == 0:
            stack.append((v + 1, mask | (1 << v)))
    return sorted(out)


@st.composite
def _neighbor_masks(draw):
    n = draw(st.integers(0, 14))
    p = draw(st.floats(0.0, 1.0))
    nbr = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.floats(0.0, 1.0)) < p:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    return nbr


def masks_to_rows(masks, n):
    """[len(masks), n] 0/1 uint8 matrix; bit b of mask s is entry [s, b]."""
    return np.array([[m >> b & 1 for b in range(n)] for m in masks],
                    dtype=np.uint8).reshape(len(masks), n)


def packed_rows(words, n):
    """The 0/1 rows of a packed state list, read through CtmcModel.rows()
    after checking its layout: ceil(n/64) little-endian uint64 words a row."""
    assert words.dtype == np.dtype("<u8") and words.shape[1:] == (-(-n // 64),)
    return _packed_law(words, n, 1.0, CtmcMode.ALL_INDEPENDENT_SETS).rows()


@settings(max_examples=200, deadline=None)
@given(_neighbor_masks(), st.integers(0, 3000))
def test_vectorized_enumeration_matches_dfs(nbr, cap):
    try:
        want = masks_to_rows(all_independent_masks(nbr, cap), len(nbr))
    except StateSpaceOverflow:
        with pytest.raises(StateSpaceOverflow, match=f"more than {cap} "):
            _all_independent_states(nbr, cap)
        return
    got = packed_rows(_all_independent_states(nbr, cap), len(nbr))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)



def column_gather_independent_states(nbr, cap):
    """The enumeration over 0/1 byte columns, gathering each new member's
    earlier-neighbour columns: the reference for the packed-word version."""
    n = len(nbr)
    states = np.zeros((1, n), dtype=np.uint8)
    for v in range(n):
        if len(states) > cap:
            break
        earlier = [u for u in range(v) if nbr[v] >> u & 1]
        new = states[~states[:, earlier].any(axis=1)]
        new[:, v] = 1
        states = np.concatenate([states, new])
    if len(states) > cap:
        raise StateSpaceOverflow(
            f"more than {cap} independent sets in one channel; "
            "use MAXIMAL_ONLY mode")
    return states


# Enough sets to cross several word boundaries, few enough to stay quick: a
# graph with more sets than this is only checked to overflow alike.
REFERENCE_CAP = 20_000


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from([63, 64, 65, 129]), st.integers(0, 130)),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@example(63, 0.5, 1)
@example(64, 0.5, 2)
@example(65, 0.5, 3)
@example(129, 0.5, 4)
def test_packed_enumeration_matches_column_gather(n, sparsity, seed):
    # Each pair is a non-edge with probability sparsity * 16 / n (capped at
    # 1), so wide graphs stay dense enough for their sets to be counted.
    rng = np.random.default_rng(seed)
    absent = min(1.0, sparsity * 16 / max(n, 1))
    upper = np.triu(rng.random((n, n)) >= absent, 1)
    nbr = packed_neighbor_masks(upper | upper.T)
    try:
        want = column_gather_independent_states(nbr, REFERENCE_CAP)
    except StateSpaceOverflow:
        with pytest.raises(StateSpaceOverflow, match=f"more than {REFERENCE_CAP} "):
            _all_independent_states(nbr, REFERENCE_CAP)
        return
    count = len(want)
    got = packed_rows(_all_independent_states(nbr, count), n)
    assert got.dtype == want.dtype and got.shape == want.shape == (count, n)
    assert np.array_equal(got, want)
    with pytest.raises(StateSpaceOverflow, match=f"more than {count - 1} "):
        _all_independent_states(nbr, count - 1)

def test_stationary_prism_closed_form():
    graph = make_graph(6, PRISM_EDGES)
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    for rho in (1.0, 100.0, 1e4):
        model = stationary_distribution(states, rho)
        z = 1 + 6 * rho + 6 * rho ** 2
        for s in range(model.n_states):
            k = int(model.rows()[s].sum())
            assert model.pi()[s] == pytest.approx(rho ** k / z, abs=1e-12)
        assert model.pi().sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_single_ap_and_no_csma():
    states = np.array([[0], [1]], dtype=np.uint8)
    model = stationary_distribution(states, rho=100.0)
    assert model.pi()[1] == pytest.approx(100 / 101)
    ones = np.ones((1, 5), dtype=np.uint8)
    model = stationary_distribution(ones, rho=100.0, mode=CtmcMode.NO_CSMA)
    assert model.pi()[0] == 1.0


def test_stationary_validates_inputs():
    with pytest.raises(ValueError):
        stationary_distribution(np.array([[0], [1]]), rho=0.0)
    with pytest.raises(ValueError):
        stationary_distribution(np.zeros((0, 3)), rho=1.0)


def test_stationary_large_rho_no_overflow():
    graph = make_graph(40, [], channel_of={i: 0 for i in range(40)})
    states = enumerate_states(make_graph(20, []), CtmcMode.ALL_INDEPENDENT_SETS,
                              cap=2_000_000)
    model = stationary_distribution(states, rho=1e6)
    assert np.isfinite(model.pi()).all()
    assert model.pi().sum() == pytest.approx(1.0, abs=1e-12)


def test_airtime_shares_cases():
    single = stationary_distribution(np.array([[0], [1]]), rho=100.0)
    assert airtime_shares(single)[0] == pytest.approx(100 / 101)

    # empty graph: every AP transmits independently with share rho/(1+rho)
    graph = make_graph(3, [])
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    shares = airtime_shares(stationary_distribution(states, rho=100.0))
    assert np.allclose(shares, 100 / 101)

    # prism, rho -> infinity: each AP appears in 2 of the 6 dominant pairs
    graph = make_graph(6, PRISM_EDGES)
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    shares = airtime_shares(stationary_distribution(states, rho=1e9))
    assert np.allclose(shares, 2 / 6, atol=1e-6)


def test_mass_concentrates_on_maximum_sets_as_rho_grows():
    rng = np.random.default_rng(5)
    n = 8
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    graph = make_graph(n, edges)
    states = enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS)
    sizes = states.sum(axis=1)
    max_size = sizes.max()
    for rho, floor in ((10.0, 0.5), (1e4, 0.999)):
        model = stationary_distribution(states, rho)
        assert model.pi()[sizes == max_size].sum() > floor


def test_edge_removal_airtime_effects():
    # Removing a contention edge never hurts its endpoints, but per-AP
    # monotonicity fails in general: in a triangle u-k-v, removing (u, v)
    # adds the state {u, v}, diluting k. Even total airtime can drop in
    # larger graphs, so beyond the endpoints only a statistical check
    # (average effect over random instances) is meaningful.
    tri = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    path = make_graph(3, [(0, 1), (1, 2)])  # edge (0, 2) removed
    rho = 100.0
    s_tri = airtime_shares(stationary_distribution(
        enumerate_states(tri, CtmcMode.ALL_INDEPENDENT_SETS), rho))
    s_path = airtime_shares(stationary_distribution(
        enumerate_states(path, CtmcMode.ALL_INDEPENDENT_SETS), rho))
    assert s_path[0] > s_tri[0] and s_path[2] > s_tri[2]  # endpoints gain
    assert s_path[1] < s_tri[1]  # the middle AP loses: counterexample

    rng = np.random.default_rng(7)
    deltas = []
    for _ in range(20):
        n = int(rng.integers(3, 9))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        if not edges:
            continue
        u, v = edges[int(rng.integers(len(edges)))]
        reduced = [e for e in edges if e != (u, v)]
        full_states = enumerate_states(make_graph(n, edges),
                                       CtmcMode.ALL_INDEPENDENT_SETS)
        red_states = enumerate_states(make_graph(n, reduced),
                                      CtmcMode.ALL_INDEPENDENT_SETS)
        s_full = airtime_shares(stationary_distribution(full_states, rho))
        s_red = airtime_shares(stationary_distribution(red_states, rho))
        assert s_red[u] >= s_full[u] - 1e-12
        assert s_red[v] >= s_full[v] - 1e-12
        deltas.append(float(np.mean(s_red - s_full)))
    assert np.mean(deltas) > 0  # statistical form: less contention helps on average


def test_channel_ctmcs_factorization():
    # Product-state probabilities equal the product of per-channel ones.
    graph = make_graph(4, [(0, 1), (2, 3)], channel_of={0: 0, 1: 0, 2: 1, 3: 1})
    rho = 7.0
    full = stationary_distribution(
        enumerate_states(graph, CtmcMode.ALL_INDEPENDENT_SETS), rho)
    per_channel = channel_ctmcs(graph, rho)
    for s in range(full.n_states):
        p = 1.0
        for ch, ctmc in per_channel.items():
            block = full.rows()[s][list(ctmc.members)]
            idx = next(i for i in range(ctmc.model.n_states)
                       if np.array_equal(ctmc.model.rows()[i], block))
            p *= ctmc.model.pi()[idx]
        assert full.pi()[s] == pytest.approx(p, abs=1e-12)


def maximal_rows(rows, adjacency):
    """The rows of independent sets that no further member can join."""
    blocked = (rows @ adjacency.astype(np.uint8) > 0) | (rows > 0)
    return rows[blocked.all(axis=1)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from([0, 63, 64, 65, 129, 130]), st.integers(0, 130)),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.sampled_from(list(CtmcMode)))
@example(0, 0.5, 1, CtmcMode.MAXIMAL_ONLY)
@example(70, 0.0, 2, CtmcMode.MAXIMAL_ONLY)
@example(130, 0.5, 3, CtmcMode.NO_CSMA)
def test_packed_law_matches_unpacked_rows(n, sparsity, seed, mode):
    # Every mode's packed states unpack to the reference 0/1 rows in their
    # order, and pi by size is rho^|m| / Z state by state.
    rng = np.random.default_rng(seed)
    absent = min(1.0, sparsity * 16 / max(n, 1))
    upper = np.triu(rng.random((n, n)) >= absent, 1)
    adjacency = upper | upper.T
    nbr = packed_neighbor_masks(adjacency)
    if mode == CtmcMode.NO_CSMA:
        want = np.ones((1, n), dtype=np.uint8)
    else:
        try:
            want = column_gather_independent_states(nbr, REFERENCE_CAP)
        except StateSpaceOverflow:
            return  # enumeration past the cap is checked above
        if mode == CtmcMode.MAXIMAL_ONLY:
            want = maximal_rows(want, adjacency)
    words, got_mode = _channel_states(nbr, mode, REFERENCE_CAP)
    assert got_mode == mode
    sizes = want.sum(axis=1)
    for rho in (0.1, 1.0, 100.0, 1e4):
        model = _packed_law(words, n, rho, mode)
        assert np.array_equal(packed_rows(model.words, n), want)
        assert np.array_equal(model.sizes, sizes)
        logw = sizes * np.log(rho)
        exact = np.exp(logw - logw.max())
        np.testing.assert_allclose(model.pi(), exact / exact.sum(), rtol=0, atol=1e-12)
        assert model.pi().sum() == pytest.approx(1.0, abs=1e-12)
        block = slice(len(want) // 3, len(want) // 3 + 5)
        assert np.array_equal(model.rows(block), want[block])
        assert np.array_equal(model.pi(block), model.pi()[block])


@pytest.fixture(scope="module")
def stadium_graph():
    """The contention graph of stadium 100 APs / 1000 users, CCA 10 dB."""
    return pipeline.evaluate(pipeline.RunConfig(
        scenario={"generator": "stadium", "n_aps": 100, "n_users": 1000},
        cca_db=10.0)).graph


def test_chain_holds_words_and_sizes_only(stadium_graph):
    # A chain holds ceil(n/64) words and a uint16 size per state, plus one
    # weight per size: nothing else grows with the state count. Building
    # it once first keeps one-time imports out of the trace.
    channel_ctmcs(stadium_graph, 100.0)
    tracemalloc.start()
    try:
        mac = channel_ctmcs(stadium_graph, 100.0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    models = [c.model for c in mac.values()]
    assert [m.n_states for m in models] == [17_877, 11_628, 9_566, 4_273]
    per_state = [8 * -(-m.n_members // 64) + 2 for m in models]
    for m, most in zip(models, per_state):
        assert (m.words.nbytes + m.sizes.nbytes) / m.n_states <= most
        assert m.weights.size <= m.n_members + 1
    # Whatever the chains hold, counted by the allocator: the packed bytes
    # (433 440) and 16 KiB for the weight tables and Python objects
    # (measured 4 848).
    assert held <= sum(most * m.n_states for m, most in zip(models, per_state)) + (16 << 10)
    # Traced peak of the build, measured at 473 176 bytes (the parent's 0/1
    # rows and per-state pi peaked at 1 673 378).
    assert peak < 600_000

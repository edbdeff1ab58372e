import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy import special

from wlanmodel import rates
from wlanmodel.oracle import _draw
from wlanmodel.propagation import (
    PathlossParams,
    _normalize_pairs,
    _pair_normal,
    _sector_mask,
    _splitmix,
    gain_matrix,
    ndtri,
)
from wlanmodel.scenario import (
    ApNode,
    Scenario,
    ScenarioClass,
    Sector,
    UtNode,
    WallSegment,
    build_conference_hall,
    build_stadium,
    build_walled_office,
    from_tree,
)

from .test_scenario import wall_crossings

NO_SHADOW = PathlossParams(shadowing_sigma_db=0.0)


def _flat_scenario(aps, users, walls=(), size=40.0):
    return Scenario(width_m=size, height_m=size, walls=tuple(walls),
                    aps=tuple(aps), users=tuple(users))


def shadow_sample(sigma, seed, p1, p2):
    """Scalar reference for the frozen shadow: the draw for one pair."""
    coords = _normalize_pairs(np.array([p1], dtype=float), np.array([p2], dtype=float))
    return float(_pair_normal(seed, coords, sigma)[0])


def pathloss_db(params, scenario, p1, p2, seed=None):
    """Scalar reference for the gain matrix: intercept + slope*log10(d),
    walls, and the frozen shadow of the params' sigma when a seed is given."""
    d = max(math.dist(p1, p2), params.reference_distance_m)
    pl = params.a_db + params.b_db_per_decade * math.log10(d)
    pl += wall_crossings(scenario, p1, p2)
    if seed is not None:
        pl += shadow_sample(params.shadowing_sigma_db, seed, p1, p2)
    return pl


def sector_gain(ap, target):
    """Scalar reference for the sector mask: 1.0 if the bearing to target
    lies inside the AP sector (edges inclusive)."""
    if ap.sector is None:
        return 1.0
    dx = target[0] - ap.position[0]
    dy = target[1] - ap.position[1]
    bearing = math.degrees(math.atan2(dy, dx))
    diff = (bearing - ap.sector.orientation_deg + 180.0) % 360.0 - 180.0
    return 1.0 if abs(diff) <= ap.sector.width_deg / 2.0 else 0.0


def test_pathloss_at_reference_distance():
    s = _flat_scenario([ApNode(0, (1.0, 1.0))], [UtNode(0, (1.5, 1.0))])
    # distance 0.5 m clamps to the 1 m reference: a + b*log10(1) = a
    assert pathloss_db(NO_SHADOW, s, (1.0, 1.0), (1.5, 1.0)) == pytest.approx(46.8)


def test_pathloss_at_ten_meters():
    s = _flat_scenario([ApNode(0, (0.0, 0.0))], [UtNode(0, (10.0, 0.0))])
    assert pathloss_db(NO_SHADOW, s, (0.0, 0.0), (10.0, 0.0)) == pytest.approx(65.5)


def test_pathloss_frozen_shadowing():
    s = _flat_scenario([ApNode(0, (0.0, 0.0))], [UtNode(0, (10.0, 0.0))])
    params = PathlossParams(shadowing_sigma_db=3.0)
    a = pathloss_db(params, s, (0.0, 0.0), (10.0, 0.0), seed=5)
    b = pathloss_db(params, s, (0.0, 0.0), (10.0, 0.0), seed=5)
    c = pathloss_db(params, s, (10.0, 0.0), (0.0, 0.0), seed=5)
    assert a == b == c
    assert a != pytest.approx(65.5)  # shadow actually applied


def test_shadow_map_statistics():
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 100, size=(4000, 2))
    q = rng.uniform(0, 100, size=(4000, 2))
    draws = _pair_normal(9, _normalize_pairs(p, q), 3.0)
    assert abs(draws.mean()) < 0.2
    assert draws.std() == pytest.approx(3.0, rel=0.05)


def _key_uniform(keys):
    """The uniform a 64-bit key maps to before _pair_normal's clamp."""
    return ((keys >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def test_ndtri_matches_scipy_on_every_kind_of_key():
    keys = np.concatenate([_splitmix(np.arange(1 << 20, dtype=np.uint64)),
                           np.array([0, 2**64 - 1], dtype=np.uint64)])
    u = np.minimum(_key_uniform(keys), 1.0 - 2.0**-53)
    reference = special.ndtri(u)
    assert np.all(np.abs(ndtri(u) - reference) <= 1e-14 * np.abs(reference))
    assert np.abs(u - 0.5).min() < 1e-5 and u.min() < 1e-15  # all three regions


def test_ndtri_is_odd_and_strictly_increasing():
    # Dyadic grids on which 1 - u is exact, reaching each region and both edges.
    u = np.unique(np.concatenate([np.arange(1, 1 << 16) / 2.0**16,
                                  2.0 ** -np.arange(17.0, 54.0),
                                  1.0 - 2.0 ** -np.arange(17.0, 54.0)]))
    x = ndtri(u)
    assert np.all(np.abs(ndtri(1.0 - u) + x) <= 1e-15 * np.abs(x))
    assert np.all(np.diff(x) > 0.0)


def _unsplitmix(h):
    """Inverse of one splitmix64 step on a Python int."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x
    h = unshift(h, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    h = unshift(h, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return (unshift(h, 30) - 0x9E3779B97F4A7C15) % 2**64


def test_the_top_key_draws_a_finite_shadow():
    # Pick the last coordinate so the pair's key has all 53 top bits set:
    # its uniform (2^53 - 1/2) * 2^-53 rounds to exactly 1.0.
    seed, coords = 3, np.array([[1.0, 2.0, 3.0, 0.0]])
    h = _splitmix(np.array([seed], dtype=np.uint64))
    for col in range(3):
        h = _splitmix(h ^ coords[:, col].view(np.uint64))
    for low in range(1 << 11):
        word = np.array([_unsplitmix((2**53 - 1) << 11 | low) ^ int(h[0])],
                        dtype=np.uint64)
        if np.isfinite(word.view(np.float64)[0]):
            break
    coords[0, 3] = word.view(np.float64)[0]
    key = _splitmix(h ^ coords[:, 3].view(np.uint64))
    assert key[0] >> np.uint64(11) == 2**53 - 1 and _key_uniform(key)[0] == 1.0
    draw = _pair_normal(seed, coords, 3.0)[0]
    assert np.isfinite(draw)
    assert draw == 3.0 * ndtri(np.array([1.0 - 2.0**-53]))[0]


def test_gain_matrix_equidistant_users_equal():
    s = _flat_scenario([ApNode(0, (10.0, 10.0))],
                       [UtNode(0, (5.0, 10.0)), UtNode(1, (15.0, 10.0))])
    g = gain_matrix(s, NO_SHADOW, seed=0)
    assert g.ap_to_ut[0, 0] == pytest.approx(g.ap_to_ut[0, 1])


def test_gain_matrix_wall_discount():
    aps = [ApNode(0, (1.0, 5.0))]
    users = [UtNode(0, (9.0, 5.0))]
    bare = _flat_scenario(aps, users, size=10.0)
    walled = Scenario(width_m=10, height_m=10,
                      walls=(WallSegment((5.0, 0.0), (5.0, 10.0), 5.0),),
                      aps=tuple(aps), users=tuple(users))
    g0 = gain_matrix(bare, NO_SHADOW, seed=0).ap_to_ut[0, 0]
    g1 = gain_matrix(walled, NO_SHADOW, seed=0).ap_to_ut[0, 0]
    assert g1 == pytest.approx(g0 * 10 ** (-0.5))


def test_gain_matrix_hand_computed_two_by_two():
    aps = [ApNode(0, (0.0, 0.0)), ApNode(1, (20.0, 0.0))]
    users = [UtNode(0, (0.0, 10.0)), UtNode(1, (20.0, 5.0))]
    s = _flat_scenario(aps, users)
    g = gain_matrix(s, NO_SHADOW, seed=0)
    def expected(d):
        return 10 ** (-(46.8 + 18.7 * math.log10(d)) / 10)
    assert g.ap_to_ut[0, 0] == pytest.approx(expected(10.0))
    assert g.ap_to_ut[1, 1] == pytest.approx(expected(5.0))
    assert g.ap_to_ut[0, 1] == pytest.approx(expected(math.hypot(20, 5)))
    assert g.ap_to_ut[1, 0] == pytest.approx(expected(math.hypot(20, 10)))
    assert g.ap_to_ap[0, 1] == pytest.approx(expected(20.0))


def test_gain_matrix_matches_scalar_reference_per_pair():
    # Distance, walls and frozen shadowing, pair by pair; the unused
    # ap_to_ap diagonal is skipped.
    s = build_walled_office(4, 6, 30, seed=3)
    params = PathlossParams()
    assert params.shadowing_sigma_db > 0
    g = gain_matrix(s, params, seed=11)
    assert any(wall_crossings(s, ap.position, ut.position) > 0
               for ap in s.aps for ut in s.users)
    for i, ap in enumerate(s.aps):
        for k, ut in enumerate(s.users):
            pl = pathloss_db(params, s, ap.position, ut.position, seed=11)
            assert g.ap_to_ut[i, k] == pytest.approx(10 ** (-pl / 10), rel=1e-12)
        for j, other in enumerate(s.aps):
            if j != i:
                pl = pathloss_db(params, s, ap.position, other.position, seed=11)
                assert g.ap_to_ap[i, j] == pytest.approx(10 ** (-pl / 10), rel=1e-12)


@pytest.mark.parametrize("rows", [1, 3])
def test_gain_matrix_row_blocks_change_no_bit(monkeypatch, rows):
    # Shadowed, walled and sectorized: a block of one (or three) AP rows
    # gives exactly the gains of the default budget's single block.
    office = build_walled_office(4, 8, 40, seed=3)
    s = replace(office, aps=tuple(replace(ap, sector=Sector(30.0 * ap.id, 120.0))
                                  for ap in office.aps))
    params = PathlossParams()
    assert params.shadowing_sigma_db > 0 and s.walls
    whole = gain_matrix(s, params, seed=11)
    assert np.any(whole.ap_to_ut == 0) and np.any(whole.ap_to_ut > 0)
    monkeypatch.setattr(rates, "BLOCK_BYTES", 1 if rows == 1 else 32 * s.n_users * rows)
    blocked = gain_matrix(s, params, seed=11)
    assert np.array_equal(blocked.ap_to_ut, whole.ap_to_ut)
    assert np.array_equal(blocked.ap_to_ap, whole.ap_to_ap)


def test_gain_matrix_peak_memory_stays_near_its_output():
    # 20 APs x 20 000 users: the pathloss is built in row blocks under
    # rates.BLOCK_BYTES, so the shadow keys of all 400 000 pairs (over
    # 200 bytes a pair) never live at once; the output is 3.2 MB.
    s = build_stadium(20, 20_000, seed=1)
    params = PathlossParams.for_scenario(s.scenario_class)
    tracemalloc.start()
    try:
        g = gain_matrix(s, params, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.ap_to_ut.nbytes


@pytest.mark.parametrize("sector", [None, Sector(0.0, 90.0)], ids=["omni", "sectorized"])
def test_sectorized_gain_matrix_peak_memory_stays_near_its_output(sector):
    # The sector mask is applied inside the pathloss row blocks, so no
    # [n_aps x n_users] bearing, difference or mask array is built, and the
    # blocks are sized by what one block's temporaries take.
    s = build_stadium(100, 20_000, seed=1)
    s = replace(s, aps=tuple(replace(ap, sector=sector) for ap in s.aps))
    params = PathlossParams.for_scenario(s.scenario_class)
    tracemalloc.start()
    try:
        g = gain_matrix(s, params, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.any(g.ap_to_ut > 0)
    assert np.any(g.ap_to_ut == 0) == (sector is not None)
    assert peak < 1.5 * g.ap_to_ut.nbytes


def test_gain_monotone_in_distance():
    aps = [ApNode(0, (0.0, 0.0))]
    users = [UtNode(k, (float(2 * (k + 1)), 0.0)) for k in range(15)]
    s = _flat_scenario(aps, users)
    g = gain_matrix(s, NO_SHADOW, seed=0).ap_to_ut[0]
    assert np.all(np.diff(g) < 0)


def test_gain_matrix_reproducible_and_bounded():
    s = build_conference_hall(5, 40, seed=2)
    params = PathlossParams()
    a = gain_matrix(s, params, seed=7)
    b = gain_matrix(s, params, seed=7)
    assert np.array_equal(a.ap_to_ut, b.ap_to_ut)
    assert np.array_equal(a.ap_to_ap, b.ap_to_ap)
    assert np.all(a.ap_to_ut > 0) and np.all(a.ap_to_ut <= 1)
    off = ~np.eye(s.n_aps, dtype=bool)
    assert np.all(a.ap_to_ap[off] > 0) and np.all(a.ap_to_ap[off] <= 1)
    assert np.allclose(a.ap_to_ap, a.ap_to_ap.T)  # symmetric without sectors
    c = gain_matrix(s, params, seed=8)
    assert not np.array_equal(a.ap_to_ut, c.ap_to_ut)


def test_gain_above_unity_fails_loudly():
    s = _flat_scenario([ApNode(0, (0.0, 0.0))], [UtNode(0, (1.0, 0.0))])
    bad = PathlossParams(a_db=-5.0, shadowing_sigma_db=0.0)
    with pytest.raises(ValueError):
        gain_matrix(s, bad, seed=0)


def test_sector_gain_rules():
    ap = ApNode(0, (10.0, 10.0), sector=Sector(orientation_deg=0.0, width_deg=90.0))
    assert sector_gain(ap, (20.0, 10.0)) == 1.0   # boresight
    assert sector_gain(ap, (0.0, 10.0)) == 0.0    # behind
    assert sector_gain(ap, (15.0, 15.0)) == 1.0   # exactly on the +45 edge
    assert sector_gain(ap, (15.0, 5.0)) == 1.0    # exactly on the -45 edge
    assert sector_gain(ap, (10.0, 20.0)) == 0.0   # 90 degrees off
    omni = ApNode(1, (10.0, 10.0))
    assert sector_gain(omni, (0.0, 0.0)) == 1.0
    targets = np.array([(20.0, 10.0), (0.0, 10.0), (15.0, 15.0), (15.0, 5.0),
                        (10.0, 20.0), (0.0, 0.0)])
    mask = _sector_mask((ap, omni), targets)
    assert mask.tolist() == [[1.0, 0.0, 1.0, 1.0, 0.0, 0.0], [1.0] * 6]


def test_sector_mask_matches_scalar_reference():
    # Integer grid around each AP: bearings of 0, +-45, +-90, 135 and 180
    # degrees fall exactly on the sector edges of these widths.
    aps = [ApNode(0, (10.0, 10.0), sector=Sector(0.0, 90.0)),
           ApNode(1, (20.0, 20.0), sector=Sector(90.0, 180.0)),
           ApNode(2, (5.0, 30.0), sector=Sector(-135.0, 90.0)),
           ApNode(3, (30.0, 5.0), sector=Sector(180.0, 360.0)),
           ApNode(4, (15.0, 15.0), sector=Sector(45.0, 60.0)),
           ApNode(5, (25.0, 25.0))]
    xs = np.arange(0.0, 41.0, 1.0)
    targets = np.array([(x, y) for x in xs for y in xs])
    mask = _sector_mask(tuple(aps), targets)
    expected = [[sector_gain(ap, tuple(t)) for t in targets] for ap in aps]
    assert mask.tolist() == expected
    assert 0.0 < mask[:5].mean() < 1.0 and np.all(mask[5] == 1.0)


def test_sectorized_gain_matrix_zeroes_back_lobe():
    aps = [ApNode(0, (10.0, 10.0), sector=Sector(0.0, 90.0)), ApNode(1, (0.0, 10.0))]
    users = [UtNode(0, (20.0, 10.0)), UtNode(1, (2.0, 10.0))]
    s = _flat_scenario(aps, users)
    g = gain_matrix(s, NO_SHADOW, seed=0)
    assert g.ap_to_ut[0, 0] > 0       # in sector
    assert g.ap_to_ut[0, 1] == 0.0    # behind the sectorized AP
    assert g.ap_to_ap[0, 1] == 0.0    # AP 1 sits behind AP 0
    assert g.ap_to_ap[1, 0] > 0       # omni AP still reaches AP 0


def _rayleigh(rng, n_draws, antennas=1):
    """The oracle's channel draw at unit power: [n_draws, antennas]."""
    return _draw(rng, np.ones((n_draws, 1, 1)), np.array([antennas]))[:, :, 0]


def test_sample_fading_moments():
    draws = _rayleigh(np.random.default_rng([123, 0]), 100_000)
    assert abs(draws.mean()) < 0.02
    h = _rayleigh(np.random.default_rng([123, 1]), 20_000, 4)
    norms = np.sum(np.abs(h) ** 2, axis=1)
    assert np.mean(norms) == pytest.approx(4.0, rel=0.02)


def test_sample_fading_deterministic():
    a = _rayleigh(np.random.default_rng([42, 7]), 6)
    b = _rayleigh(np.random.default_rng([42, 7]), 6)
    assert np.array_equal(a, b)
    c = _rayleigh(np.random.default_rng([42, 8]), 6)
    assert not np.array_equal(a, c)


def test_params_for_scenario_profiles():
    indoor = PathlossParams.for_scenario(ScenarioClass.CONFERENCE_HALL)
    outdoor = PathlossParams.for_scenario(ScenarioClass.STADIUM)
    assert indoor.a_db == 46.8 and indoor.b_db_per_decade == 18.7
    assert outdoor.a_db == 41.0 and outdoor.b_db_per_decade == 23.0
    assert from_tree(PathlossParams, asdict(indoor)) == indoor

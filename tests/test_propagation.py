import math

import numpy as np
import pytest

from wlanmodel.oracle import _rayleigh
from wlanmodel.propagation import (
    PathlossParams,
    ShadowMap,
    _sector_mask,
    gain_matrix,
    pathloss_db,
)
from wlanmodel.scenario import (
    ApNode,
    Scenario,
    ScenarioClass,
    Sector,
    UtNode,
    WallSegment,
    build_conference_hall,
)

NO_SHADOW = PathlossParams(shadowing_sigma_db=0.0)


def _flat_scenario(aps, users, walls=(), size=40.0):
    return Scenario(width_m=size, height_m=size, walls=tuple(walls),
                    aps=tuple(aps), users=tuple(users))


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
    shadows = ShadowMap(params.shadowing_sigma_db, seed=5)
    a = pathloss_db(params, s, (0.0, 0.0), (10.0, 0.0), shadows)
    b = pathloss_db(params, s, (0.0, 0.0), (10.0, 0.0), shadows)
    c = pathloss_db(params, s, (10.0, 0.0), (0.0, 0.0), shadows)
    assert a == b == c
    assert a != pytest.approx(65.5)  # shadow actually applied


def test_shadow_map_statistics():
    shadows = ShadowMap(3.0, seed=9)
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 100, size=(4000, 2))
    q = rng.uniform(0, 100, size=(4000, 2))
    draws = shadows.sample_many(p, q)
    assert abs(draws.mean()) < 0.2
    assert draws.std() == pytest.approx(3.0, rel=0.05)


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
    mask = _sector_mask(_flat_scenario([ap, omni], [UtNode(0, (1.0, 1.0))]), targets)
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
    mask = _sector_mask(_flat_scenario(aps, [UtNode(0, (1.0, 1.0))]), targets)
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


def test_sample_fading_moments():
    draws = _rayleigh(np.random.default_rng([123, 0]), (100_000,))
    assert abs(draws.mean()) < 0.02
    h = _rayleigh(np.random.default_rng([123, 1]), (20_000, 4))
    norms = np.sum(np.abs(h) ** 2, axis=1)
    assert np.mean(norms) == pytest.approx(4.0, rel=0.02)


def test_sample_fading_deterministic():
    a = _rayleigh(np.random.default_rng([42, 7]), (6,))
    b = _rayleigh(np.random.default_rng([42, 7]), (6,))
    assert np.array_equal(a, b)
    c = _rayleigh(np.random.default_rng([42, 8]), (6,))
    assert not np.array_equal(a, c)


def test_params_for_scenario_profiles():
    indoor = PathlossParams.for_scenario(ScenarioClass.CONFERENCE_HALL)
    outdoor = PathlossParams.for_scenario(ScenarioClass.STADIUM)
    assert indoor.a_db == 46.8 and indoor.b_db_per_decade == 18.7
    assert outdoor.a_db == 41.0 and outdoor.b_db_per_decade == 23.0
    assert PathlossParams.from_dict(indoor.to_dict()) == indoor

import json
import math

import numpy as np
import pytest

from wlanmodel.scenario import (
    ApNode,
    Scenario,
    ScenarioClass,
    UtNode,
    WallSegment,
    build_conference_hall,
    build_open_floor,
    build_stadium,
    build_walled_office,
    from_tree,
)


def _orient(a, b, c):
    """Signed area of triangle abc (exact for grid-snapped coordinates)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_properly_cross(p1, p2, q1, q2):
    # Strict crossing only: endpoint touches and collinear overlaps are not
    # crossings, which encodes both tie rules at once.
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and \
           ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0


def wall_crossings(scenario, p1, p2):
    """Scalar reference for the gain matrix's wall term: total wall
    attenuation in dB along the open segment (p1, p2)."""
    total = 0.0
    for wall in scenario.walls:
        if _segments_properly_cross(p1, p2, wall.p1, wall.p2):
            total += wall.attenuation_db
    return total


def test_conference_hall_paper_scale():
    s = build_conference_hall(20, 200, seed=7)
    assert s.n_aps == 20 and s.n_users == 200
    assert s.width_m == 20.0 and s.height_m == 20.0
    assert len(s.walls) == 0
    assert s.scenario_class == ScenarioClass.CONFERENCE_HALL


def test_conference_hall_minimal():
    s = build_conference_hall(1, 1, seed=0)
    assert s.aps[0].position == (10.0, 10.0)  # centered
    assert s.n_users == 1


def test_conference_hall_16_is_4x4_lattice():
    s = build_conference_hall(16, 200, seed=0)
    centers = {2.5, 7.5, 12.5, 17.5}  # cell centers of a 4x4 partition of 20 m
    xs = {ap.position[0] for ap in s.aps}
    ys = {ap.position[1] for ap in s.aps}
    assert xs == centers and ys == centers
    assert len({ap.position for ap in s.aps}) == 16


def test_open_floor_two_rows():
    s = build_open_floor(20, 200, seed=3)
    ys = sorted({ap.position[1] for ap in s.aps})
    assert len(ys) == 2
    assert sum(1 for ap in s.aps if ap.position[1] == ys[0]) == 10
    assert sum(1 for ap in s.aps if ap.position[1] == ys[1]) == 10


def test_open_floor_single_ap_per_row():
    s = build_open_floor(2, 1, seed=3)
    assert [ap.position[0] for ap in s.aps] == [80.0, 80.0]


def test_open_floor_40_aps_spacing():
    s = build_open_floor(40, 200, seed=3)
    ys = sorted({ap.position[1] for ap in s.aps})
    row = sorted(ap.position[0] for ap in s.aps if ap.position[1] == ys[0])
    assert len(row) == 20
    gaps = {round(b - a, 6) for a, b in zip(row, row[1:])}
    assert gaps == {8.0}  # 160 m / 20 APs


def test_walled_office_wall_counts():
    # corridor boundaries (2) + per-row partitions (rooms_per_row - 1 each)
    assert len(build_walled_office(4, 20, 200, seed=1).walls) == 2 + 2
    assert len(build_walled_office(40, 20, 200, seed=1).walls) == 2 + 19 * 2
    assert len(build_walled_office(2, 1, 1, seed=1).walls) == 2


def test_walled_office_rejects_odd_rooms():
    with pytest.raises(ValueError):
        build_walled_office(3, 20, 200, seed=1)
    with pytest.raises(ValueError):
        build_walled_office(0, 20, 200, seed=1)


def test_walled_office_many_rooms_separates_aps():
    s = build_walled_office(40, 20, 200, seed=1)
    # With 20 rooms per row and 20 APs, most AP pairs are wall-separated.
    separated = 0
    pairs = 0
    for i in range(s.n_aps):
        for j in range(i + 1, s.n_aps):
            pairs += 1
            if wall_crossings(s, s.aps[i].position, s.aps[j].position) > 0:
                separated += 1
    assert separated / pairs > 0.8


def test_stadium_ring_layout():
    s4 = build_stadium(4, 40, seed=5)
    center = (100.0, 100.0)
    radii4 = {round(math.dist(ap.position, center), 0) for ap in s4.aps}
    assert len(radii4) == 1  # one ring

    s8 = build_stadium(8, 100, seed=5)
    radii8 = sorted(round(math.dist(ap.position, center), 0) for ap in s8.aps)
    assert len(set(radii8)) == 2  # two rings of four
    assert radii8.count(radii8[0]) == 4


def test_stadium_users_in_annulus():
    s = build_stadium(8, 500, seed=9)
    for ut in s.users:
        d = math.dist(ut.position, (100.0, 100.0))
        assert 30.0 - 0.5 <= d <= 95.0 + 0.5


def test_stadium_paper_scale():
    s = build_stadium(200, 20000, seed=1)
    assert s.n_aps == 200 and s.n_users == 20000


@pytest.mark.parametrize("builder,args", [
    (build_conference_hall, (5, 30)),
    (build_open_floor, (6, 30)),
    (build_stadium, (8, 30)),
])
def test_generators_deterministic(builder, args):
    a = builder(*args, seed=42)
    b = builder(*args, seed=42)
    assert a == b
    c = builder(*args, seed=43)
    assert [u.position for u in c.users] != [u.position for u in a.users]


def test_generated_nodes_satisfy_invariants():
    # Construction validates invariants; exercise a spread of parameters.
    rng = np.random.default_rng(0)
    for _ in range(10):
        n_aps = int(rng.integers(1, 30))
        n_users = int(rng.integers(1, 60))
        seed = int(rng.integers(0, 1000))
        for builder in (build_conference_hall, build_open_floor, build_stadium):
            s = builder(n_aps, n_users, seed=seed)
            step = s.grid_step_m
            for node in (*s.aps, *s.users):
                x, y = node.position
                assert abs(x / step - round(x / step)) < 1e-9
                assert abs(y / step - round(y / step)) < 1e-9


def test_user_placement_stable_across_ap_counts():
    a = build_conference_hall(4, 50, seed=11)
    b = build_conference_hall(25, 50, seed=11)
    assert [u.position for u in a.users] == [u.position for u in b.users]


def test_scenario_validation_errors():
    ap = ApNode(0, (1.0, 1.0))
    ut = UtNode(0, (2.0, 2.0))
    with pytest.raises(ValueError):
        Scenario(10, 10, aps=(), users=(ut,))
    with pytest.raises(ValueError):
        Scenario(10, 10, aps=(ap,), users=(UtNode(0, (20.0, 2.0)),))
    with pytest.raises(ValueError):
        Scenario(10, 10, aps=(ap,), users=(UtNode(0, (2.25, 2.0)),))
    with pytest.raises(ValueError):
        Scenario(10, 10, aps=(ap, ApNode(5, (3.0, 3.0))), users=(ut,))


def test_wall_segment_validation():
    with pytest.raises(ValueError):
        WallSegment((0.0, 0.0), (0.0, 0.0), 5.0)
    with pytest.raises(ValueError):
        WallSegment((0.0, 0.0), (1.0, 0.0), -1.0)


def _hall_with_wall():
    return Scenario(
        width_m=10, height_m=10,
        walls=(WallSegment((5.0, 0.0), (5.0, 10.0), 5.0),),
        aps=(ApNode(0, (1.0, 5.0)),),
        users=(UtNode(0, (9.0, 5.0)),),
    )


def test_wall_crossings_cases():
    s = _hall_with_wall()
    no_walls = Scenario(width_m=10, height_m=10, aps=s.aps, users=s.users)
    assert wall_crossings(no_walls, (1.0, 5.0), (9.0, 5.0)) == 0.0
    assert wall_crossings(s, (1.0, 5.0), (9.0, 5.0)) == 5.0
    # path on one side does not cross
    assert wall_crossings(s, (1.0, 1.0), (4.0, 9.0)) == 0.0
    # coincident with the wall: tie rule says no crossing
    assert wall_crossings(s, (5.0, 0.0), (5.0, 10.0)) == 0.0
    assert wall_crossings(s, (5.0, 2.0), (5.0, 8.0)) == 0.0
    # endpoint touching the wall line: no crossing
    assert wall_crossings(s, (1.0, 5.0), (5.0, 5.0)) == 0.0


def test_wall_crossings_symmetric():
    s = build_walled_office(8, 10, 20, seed=2)
    rng = np.random.default_rng(1)
    pts = [(float(x), float(y)) for x, y in
           zip(rng.uniform(0, 160, 20), rng.uniform(0, 23, 20))]
    for a, b in zip(pts[::2], pts[1::2]):
        assert wall_crossings(s, a, b) == wall_crossings(s, b, a)


def test_scenario_roundtrip(tmp_path):
    s = build_walled_office(4, 6, 10, seed=3)
    path = tmp_path / "scenario.json"
    s.save(path)
    assert from_tree(Scenario, json.loads(path.read_text())) == s


def test_missing_required_key_names_record_field_and_index(tmp_path):
    path = tmp_path / "scenario.json"
    build_conference_hall(4, 12, seed=0).save(path)
    for item in (0, 5):
        tree = json.loads(path.read_text())
        del tree["users"][item]["position"]
        with pytest.raises(ValueError) as err:
            from_tree(Scenario, tree)
        assert str(err.value) == \
            f"Scenario.users: UtNode is missing field position (item {item})"


def test_non_finite_number_names_record_field_and_index(tmp_path):
    path = tmp_path / "scenario.json"
    build_conference_hall(4, 12, seed=0).save(path)
    for value in (math.nan, math.inf, -math.inf):
        tree = json.loads(path.read_text())
        tree["aps"][1]["power_db"] = value
        text = json.dumps(tree)  # the non-standard NaN / Infinity tokens
        with pytest.raises(ValueError) as err:
            from_tree(Scenario, json.loads(text))
        assert str(err.value) == ("Scenario.aps: ApNode.power_db: "
                                  f"expected a finite number, got {value!r} (item 1)")

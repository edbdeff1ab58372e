"""Deployment geometries: walls and AP/user placements on a quantized grid.

All coordinates are meters. Node positions are snapped to multiples of the
scenario grid step, and generators are pure functions of their parameters
and the seed.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

DEFAULT_GRID_STEP_M = 0.5
DEFAULT_WALL_ATTENUATION_DB = 5.0
DEFAULT_ANTENNAS = 4
DEFAULT_POWER_DB = 90.0

Point = tuple[float, float]


class ScenarioClass(str, Enum):
    CONFERENCE_HALL = "conference_hall"
    OPEN_FLOOR = "open_floor"
    WALLED_OFFICE = "walled_office"
    STADIUM = "stadium"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Sector:
    """Binary radiation sector: full gain inside, zero outside."""

    orientation_deg: float
    width_deg: float

    def __post_init__(self):
        if not 0.0 < self.width_deg <= 360.0:
            raise ValueError(f"sector width must be in (0, 360], got {self.width_deg}")


@dataclass(frozen=True)
class WallSegment:
    p1: Point
    p2: Point
    attenuation_db: float = DEFAULT_WALL_ATTENUATION_DB

    def __post_init__(self):
        if tuple(self.p1) == tuple(self.p2):
            raise ValueError("wall endpoints must be distinct")
        if self.attenuation_db < 0:
            raise ValueError("wall attenuation must be nonnegative")


@dataclass(frozen=True)
class ApNode:
    id: int
    position: Point
    antennas: int = DEFAULT_ANTENNAS
    power_db: float = DEFAULT_POWER_DB  # dB above unit noise PSD
    sector: Sector | None = None

    def __post_init__(self):
        if self.antennas < 1:
            raise ValueError("AP needs at least one antenna")

    @property
    def power_linear(self) -> float:
        return 10.0 ** (self.power_db / 10.0)


@dataclass(frozen=True)
class UtNode:
    id: int
    position: Point


@dataclass(frozen=True)
class Scenario:
    width_m: float
    height_m: float
    grid_step_m: float = DEFAULT_GRID_STEP_M
    walls: tuple[WallSegment, ...] = ()
    aps: tuple[ApNode, ...] = ()
    users: tuple[UtNode, ...] = ()
    scenario_class: ScenarioClass = ScenarioClass.CUSTOM

    def __post_init__(self):
        if self.width_m <= 0 or self.height_m <= 0 or self.grid_step_m <= 0:
            raise ValueError("region dimensions and grid step must be positive")
        if not self.aps or not self.users:
            raise ValueError("scenario needs at least one AP and one user")
        for kind, nodes in (("ap", self.aps), ("user", self.users)):
            ids = [n.id for n in nodes]
            if ids != list(range(len(nodes))):
                raise ValueError(f"{kind} ids must be dense from 0, got {ids}")
            for n in nodes:
                self._check_position(kind, n.id, n.position)

    def _check_position(self, kind: str, node_id: int, pos: Point):
        x, y = pos
        if not (0.0 <= x <= self.width_m and 0.0 <= y <= self.height_m):
            raise ValueError(f"{kind} {node_id} at {pos} lies outside the region")
        for v in (x, y):
            if abs(v / self.grid_step_m - round(v / self.grid_step_m)) > 1e-9:
                raise ValueError(
                    f"{kind} {node_id} coordinate {v} is off the "
                    f"{self.grid_step_m} m grid"
                )

    @property
    def n_aps(self) -> int:
        return len(self.aps)

    @property
    def n_users(self) -> int:
        return len(self.users)

    def ap_positions(self) -> np.ndarray:
        return np.array([ap.position for ap in self.aps], dtype=float)

    def user_positions(self) -> np.ndarray:
        return np.array([ut.position for ut in self.users], dtype=float)

    def save(self, path: str):
        """Write the scenario as JSON (meters and dB); `from_tree` reads it."""
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, default=str)


def from_tree(cls, tree):
    """Build a record (a frozen dataclass) from its JSON tree, the layout
    `dataclasses.asdict` writes. A missing key keeps its default; a missing
    required key, a key that is not a field, a value its field type cannot
    hold, or a NaN, an infinity or an integer beyond the float range is
    refused, naming the record, the field and the list item."""
    return _converter(cls)(tree)


@functools.cache
def _converter(tp):
    """The function that builds a `tp` from a JSON value, made once per type."""
    args = get_args(tp)
    if get_origin(tp) is UnionType:  # X | None
        (inner,) = (_converter(a) for a in args if a is not type(None))
        return lambda v: None if v is None else inner(v)
    if get_origin(tp) is tuple:  # tuple[X, ...] or a fixed tuple like Point
        items = [_converter(a) for a in args if a is not Ellipsis]
        fixed = args[-1] is not Ellipsis

        def sequence(v):
            if not isinstance(v, (list, tuple)) or fixed and len(v) != len(items):
                raise ValueError(f"expected {tp}, got {v!r}")
            out = []
            try:
                for convert, x in zip(items if fixed else repeat(items[0]), v):
                    out.append(convert(x))
            except ValueError as exc:
                raise ValueError(f"{exc} (item {len(out)})") from None
            return tuple(out)
        return sequence
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        field_of = {f.name: _converter(hints[f.name]) for f in fields(tp)}
        required = {f.name for f in fields(tp)
                    if f.default is MISSING and f.default_factory is MISSING}

        def record(tree):
            if not isinstance(tree, dict):
                raise ValueError(f"expected a {tp.__name__} object, got {tree!r}")
            if not tree.keys() <= field_of.keys():
                unknown = ", ".join(sorted(tree.keys() - field_of.keys()))
                raise ValueError(f"{tp.__name__} has no field {unknown}")
            if not required <= tree.keys():
                missing = ", ".join(sorted(required - tree.keys()))
                raise ValueError(f"{tp.__name__} is missing field {missing}")
            values = {}
            for key, value in tree.items():
                try:
                    values[key] = field_of[key](value)
                except ValueError as exc:
                    raise ValueError(f"{tp.__name__}.{key}: {exc}") from None
            return tp(**values)
        return record
    kinds = (int, float) if tp is float else tp

    def leaf(v):
        # json reads NaN, Infinity and integers of any size
        if isinstance(v, (int, float)) and not abs(v) <= sys.float_info.max:
            raise ValueError(f"expected a finite number, got {v!r}")
        if isinstance(v, kinds) and not isinstance(v, bool):
            return v
        if issubclass(tp, (Enum, Fraction)) and isinstance(v, (str, int)):
            return tp(v)  # its ValueError names the value
        raise ValueError(f"expected {tp.__name__}, got {v!r}")
    return leaf


def snap(value: float) -> float:
    """Snap a coordinate to the nearest multiple of the generators' grid step."""
    return round(value / DEFAULT_GRID_STEP_M) * DEFAULT_GRID_STEP_M


def _clip_snap(value: float, upper: float) -> float:
    return min(max(snap(value), 0.0), snap(upper))


def _uniform_grid_points(rng: np.random.Generator, n: int, width: float,
                         height: float) -> list[Point]:
    step = DEFAULT_GRID_STEP_M
    nx = int(round(width / step))
    ny = int(round(height / step))
    xi = rng.integers(0, nx + 1, size=n)
    yi = rng.integers(0, ny + 1, size=n)
    return [(float(x * step), float(y * step)) for x, y in zip(xi, yi)]


def _generated(scenario_class: ScenarioClass, width: float, height: float,
               ap_pos: list[Point], user_pos: list[Point], antennas: int,
               power_db: float, walls: tuple[WallSegment, ...] = ()) -> Scenario:
    """A generator's scenario on the default grid: identical APs and users,
    numbered in order."""
    return Scenario(
        width_m=width, height_m=height, walls=walls,
        aps=tuple(ApNode(id=i, position=p, antennas=antennas, power_db=power_db)
                  for i, p in enumerate(ap_pos)),
        users=tuple(UtNode(id=i, position=p) for i, p in enumerate(user_pos)),
        scenario_class=scenario_class)


def _user_rng(seed: int) -> np.random.Generator:
    # Users get their own substream so user placements are identical across
    # runs that only change the AP count (sweep comparability).
    return np.random.default_rng([seed, 1])


def _lattice_positions(n: int, width: float, height: float) -> list[Point]:
    # Near-square lattice: rows = round(sqrt(n)), columns = ceil(n / rows),
    # APs at cell centers of the rows x cols partition, row-major, first n.
    rows = max(1, round(math.sqrt(n)))
    cols = math.ceil(n / rows)
    pts = []
    for r in range(rows):
        for c in range(cols):
            if len(pts) == n:
                break
            x = _clip_snap((c + 0.5) * width / cols, width)
            y = _clip_snap((r + 0.5) * height / rows, height)
            pts.append((x, y))
    return pts


def build_conference_hall(n_aps: int, n_users: int, seed: int, *,
                          antennas: int = DEFAULT_ANTENNAS,
                          power_db: float = DEFAULT_POWER_DB) -> Scenario:
    """20 m x 20 m open hall: APs on a near-square lattice, users uniform."""
    if n_aps < 1 or n_users < 1:
        raise ValueError("need at least one AP and one user")
    width = height = 20.0
    ap_pos = _lattice_positions(n_aps, width, height)
    user_pos = _uniform_grid_points(_user_rng(seed), n_users, width, height)
    return _generated(ScenarioClass.CONFERENCE_HALL, width, height,
                      ap_pos, user_pos, antennas, power_db)


def _two_row_positions(n: int, width: float, y_rows: tuple[float, float]) -> list[Point]:
    # Equally spaced in two rows; odd counts put the extra AP in the bottom row.
    n_bottom = math.ceil(n / 2)
    n_top = n - n_bottom
    pts = []
    for count, y in ((n_bottom, y_rows[0]), (n_top, y_rows[1])):
        for j in range(count):
            x = _clip_snap((j + 0.5) * width / count, width)
            pts.append((x, snap(y)))
    return pts


def build_open_floor(n_aps: int, n_users: int, seed: int, *,
                     antennas: int = DEFAULT_ANTENNAS,
                     power_db: float = DEFAULT_POWER_DB) -> Scenario:
    """160 m x 23 m open office floor: APs equally spaced in two rows."""
    if n_aps < 1 or n_users < 1:
        raise ValueError("need at least one AP and one user")
    width, height = 160.0, 23.0
    ap_pos = _two_row_positions(n_aps, width, (height / 4, 3 * height / 4))
    user_pos = _uniform_grid_points(_user_rng(seed), n_users, width, height)
    return _generated(ScenarioClass.OPEN_FLOOR, width, height,
                      ap_pos, user_pos, antennas, power_db)


def build_walled_office(n_rooms: int, n_aps: int, n_users: int, seed: int, *,
                        antennas: int = DEFAULT_ANTENNAS,
                        power_db: float = DEFAULT_POWER_DB) -> Scenario:
    """160 m office floor: two rows of rooms (10 m deep) around a 3 m corridor.

    Walls emitted, each of the default attenuation: one full-length wall on
    each room-row/corridor boundary, plus the vertical partitions between
    adjacent rooms within each row.
    """
    if n_rooms < 2 or n_rooms % 2 != 0:
        raise ValueError("n_rooms must be even and >= 2")
    if n_aps < 1 or n_users < 1:
        raise ValueError("need at least one AP and one user")
    width, room_depth, corridor = 160.0, 10.0, 3.0
    height = 2 * room_depth + corridor
    rooms_per_row = n_rooms // 2
    room_len = width / rooms_per_row

    walls = [WallSegment((0.0, room_depth), (width, room_depth)),
             WallSegment((0.0, room_depth + corridor), (width, room_depth + corridor))]
    for k in range(1, rooms_per_row):
        x = snap(k * room_len)
        walls.append(WallSegment((x, 0.0), (x, room_depth)))
        walls.append(WallSegment((x, room_depth + corridor), (x, height)))

    y_rows = (room_depth / 2, room_depth + corridor + room_depth / 2)
    ap_pos = _two_row_positions(n_aps, width, y_rows)
    user_pos = _uniform_grid_points(_user_rng(seed), n_users, width, height)
    return _generated(ScenarioClass.WALLED_OFFICE, width, height,
                      ap_pos, user_pos, antennas, power_db, tuple(walls))


# Stadium layout constants: seating annulus for users, AP rings inside it,
# a fixed four APs per ring with alternate rings rotated by half a slot.
STADIUM_SIDE_M = 200.0
STADIUM_SEAT_INNER_M = 30.0
STADIUM_SEAT_OUTER_M = 95.0
STADIUM_AP_INNER_M = 35.0
STADIUM_AP_OUTER_M = 90.0
STADIUM_APS_PER_RING = 4


def build_stadium(n_aps: int, n_users: int, seed: int, *,
                  antennas: int = DEFAULT_ANTENNAS,
                  power_db: float = DEFAULT_POWER_DB) -> Scenario:
    """200 m x 200 m stadium bowl: APs on concentric rings, users in the stands."""
    if n_aps < 1 or n_users < 1:
        raise ValueError("need at least one AP and one user")
    side = STADIUM_SIDE_M
    cx = cy = side / 2
    n_rings = math.ceil(n_aps / STADIUM_APS_PER_RING)
    ap_pos = []
    for ring in range(n_rings):
        r = STADIUM_AP_INNER_M + (ring + 0.5) * (
            STADIUM_AP_OUTER_M - STADIUM_AP_INNER_M) / n_rings
        offset = 0.5 * (ring % 2)
        for slot in range(STADIUM_APS_PER_RING):
            if len(ap_pos) == n_aps:
                break
            theta = 2 * math.pi * (slot + offset) / STADIUM_APS_PER_RING
            x = _clip_snap(cx + r * math.cos(theta), side)
            y = _clip_snap(cy + r * math.sin(theta), side)
            ap_pos.append((x, y))

    rng = _user_rng(seed)
    user_pos: list[Point] = []
    while len(user_pos) < n_users:
        batch = _uniform_grid_points(rng, 2 * (n_users - len(user_pos)) + 8, side, side)
        for x, y in batch:
            d = math.hypot(x - cx, y - cy)
            if STADIUM_SEAT_INNER_M <= d <= STADIUM_SEAT_OUTER_M:
                user_pos.append((x, y))
                if len(user_pos) == n_users:
                    break
    return _generated(ScenarioClass.STADIUM, side, side,
                      ap_pos, user_pos, antennas, power_db)


GENERATORS = {
    "conference_hall": build_conference_hall,
    "open_floor": build_open_floor,
    "walled_office": build_walled_office,
    "stadium": build_stadium,
}

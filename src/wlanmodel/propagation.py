"""Large-scale link gains and small-scale Rayleigh fading.

Gains combine log-distance pathloss, log-normal shadowing frozen per node
pair, per-crossing wall attenuation, and an optional binary sector mask on
the transmitter. Noise PSD is normalized to 1 (0 dB), so AP powers are dB
above the noise floor and gains are linear attenuations <= 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtri

from .scenario import Point, Scenario, ScenarioClass, wall_crossings

#: Default profiles. The indoor profile is a log-distance fit typical of
#: open indoor WLAN deployments; the outdoor profile is steeper with more
#: shadowing spread. Both are configurable and echoed in every report.
INDOOR_PROFILE = dict(a_db=46.8, b_db_per_decade=18.7, shadowing_sigma_db=3.0)
OUTDOOR_PROFILE = dict(a_db=41.0, b_db_per_decade=23.0, shadowing_sigma_db=4.0)


@dataclass(frozen=True)
class PathlossParams:
    a_db: float = INDOOR_PROFILE["a_db"]
    b_db_per_decade: float = INDOOR_PROFILE["b_db_per_decade"]
    shadowing_sigma_db: float = INDOOR_PROFILE["shadowing_sigma_db"]
    reference_distance_m: float = 1.0
    profile: str = "indoor"

    def __post_init__(self):
        if self.b_db_per_decade <= 0:
            raise ValueError("pathloss slope must be positive")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be nonnegative")
        if self.reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")

    @classmethod
    def for_scenario(cls, scenario_class: ScenarioClass) -> "PathlossParams":
        if scenario_class == ScenarioClass.STADIUM:
            return cls(profile="outdoor", **OUTDOOR_PROFILE)
        return cls(profile="indoor", **INDOOR_PROFILE)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PathlossParams":
        return cls(**data)


_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _splitmix(x: np.ndarray) -> np.ndarray:
    x = (x + _GOLDEN).astype(_U64)
    x ^= x >> _U64(30)
    x *= _MIX1
    x ^= x >> _U64(27)
    x *= _MIX2
    x ^= x >> _U64(31)
    return x


def _pair_normal(seed: int, coords: np.ndarray, sigma: float) -> np.ndarray:
    """Zero-mean normal draw keyed purely by (seed, coordinate pair).

    `coords` is [n, 4] with the pair already in normalized (sorted) order,
    so the same pair always maps to the same sample regardless of query
    order. The key is mixed through splitmix64 and inverted through the
    normal CDF.
    """
    if sigma == 0.0:
        return np.zeros(coords.shape[0])
    h = _splitmix(np.full(coords.shape[0], np.uint64(seed) if seed >= 0
                          else np.uint64(2**64 + seed)))
    words = coords.astype(np.float64).view(np.uint64).reshape(coords.shape[0], 4)
    for col in range(4):
        h = _splitmix(h ^ words[:, col])
    u = ((h >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return sigma * ndtri(u)


def _normalize_pairs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stack two [n, 2] position arrays into [n, 4] sorted-pair keys."""
    first = np.concatenate([p, q], axis=1)
    second = np.concatenate([q, p], axis=1)
    swap = (q[:, 0] < p[:, 0]) | ((q[:, 0] == p[:, 0]) & (q[:, 1] < p[:, 1]))
    return np.where(swap[:, None], second, first)


class ShadowMap:
    """Frozen shadowing landscape: one sample per unordered position pair."""

    def __init__(self, sigma_db: float, seed: int):
        self.sigma_db = float(sigma_db)
        self.seed = int(seed)

    def sample(self, p1: Point, p2: Point) -> float:
        coords = _normalize_pairs(np.array([p1], dtype=float),
                                  np.array([p2], dtype=float))
        return float(_pair_normal(self.seed, coords, self.sigma_db)[0])

    def sample_many(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _pair_normal(self.seed, _normalize_pairs(p, q), self.sigma_db)


def pathloss_db(params: PathlossParams, scenario: Scenario, p1: Point, p2: Point,
                shadow_map: ShadowMap | None = None) -> float:
    """Link pathloss in dB: intercept + slope*log10(d), walls, frozen shadow."""
    d = max(math.dist(p1, p2), params.reference_distance_m)
    pl = params.a_db + params.b_db_per_decade * math.log10(d)
    pl += wall_crossings(scenario, p1, p2)
    if shadow_map is not None:
        pl += shadow_map.sample(p1, p2)
    return pl


@dataclass
class GainMatrix:
    """Linear power gains: ap_to_ut[i, k] and ap_to_ap[i, j], transmitter first.

    The ap_to_ap diagonal is unused and left at zero. Without sector masks
    the matrices are symmetric in the pair and all entries are positive;
    a sector mask may zero the off-sector directions of its transmitter.
    """

    ap_to_ut: np.ndarray
    ap_to_ap: np.ndarray
    seed: int


def _wall_attenuation_matrix(scenario: Scenario, tx: np.ndarray,
                             rx: np.ndarray) -> np.ndarray:
    """Summed wall crossings in dB for every (tx, rx) pair, [n_tx, n_rx]."""
    total = np.zeros((tx.shape[0], rx.shape[0]))
    if not scenario.walls:
        return total
    p1 = tx[:, None, :]  # [n_tx, 1, 2]
    p2 = rx[None, :, :]  # [1, n_rx, 2]
    for wall in scenario.walls:
        q1 = np.asarray(wall.p1, dtype=float)
        q2 = np.asarray(wall.p2, dtype=float)
        d1 = _orient_arr(q1, q2, p1)
        d2 = _orient_arr(q1, q2, p2)
        d3 = _orient_points(p1, p2, q1)
        d4 = _orient_points(p1, p2, q2)
        cross = ((d1 > 0) != (d2 > 0)) & (d1 != 0) & (d2 != 0) & \
                ((d3 > 0) != (d4 > 0)) & (d3 != 0) & (d4 != 0)
        total += wall.attenuation_db * cross
    return total


def _orient_arr(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (b[0] - a[0]) * (c[..., 1] - a[1]) - (b[1] - a[1]) * (c[..., 0] - a[0])


def _orient_points(p1: np.ndarray, p2: np.ndarray, q: np.ndarray) -> np.ndarray:
    return (p2[..., 0] - p1[..., 0]) * (q[1] - p1[..., 1]) - \
           (p2[..., 1] - p1[..., 1]) * (q[0] - p1[..., 0])


def _pair_pathloss_db(scenario: Scenario, params: PathlossParams, shadows: ShadowMap,
                      tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    d = np.hypot(tx[:, None, 0] - rx[None, :, 0], tx[:, None, 1] - rx[None, :, 1])
    d = np.maximum(d, params.reference_distance_m)
    pl = params.a_db + params.b_db_per_decade * np.log10(d)
    pl += _wall_attenuation_matrix(scenario, tx, rx)
    if params.shadowing_sigma_db > 0:
        tx_rep = np.repeat(tx, rx.shape[0], axis=0)
        rx_rep = np.tile(rx, (tx.shape[0], 1))
        pl += shadows.sample_many(tx_rep, rx_rep).reshape(tx.shape[0], rx.shape[0])
    return pl


def _sector_mask(scenario: Scenario, targets: np.ndarray) -> np.ndarray:
    """1.0 where the bearing from an AP to a target lies inside the AP's
    sector (edges inclusive), else 0.0; omni APs reach every target.
    Returns [n_aps, n_targets]."""
    mask = np.ones((scenario.n_aps, targets.shape[0]))
    rows = [i for i, ap in enumerate(scenario.aps) if ap.sector is not None]
    if not rows:
        return mask
    pos = scenario.ap_positions()[rows]
    orientation = np.array([scenario.aps[i].sector.orientation_deg for i in rows])
    half_width = np.array([scenario.aps[i].sector.width_deg / 2.0 for i in rows])
    bearing = np.degrees(np.arctan2(targets[None, :, 1] - pos[:, None, 1],
                                    targets[None, :, 0] - pos[:, None, 0]))
    diff = (bearing - orientation[:, None] + 180.0) % 360.0 - 180.0
    mask[rows] = np.abs(diff) <= half_width[:, None]
    return mask


def gain_matrix(scenario: Scenario, params: PathlossParams, seed: int) -> GainMatrix:
    """Compute all AP->UT and AP->AP linear gains for one shadowing draw."""
    shadows = ShadowMap(params.shadowing_sigma_db, seed)
    ap_pos = scenario.ap_positions()
    ut_pos = scenario.user_positions()

    pl_ut = _pair_pathloss_db(scenario, params, shadows, ap_pos, ut_pos)
    pl_ap = _pair_pathloss_db(scenario, params, shadows, ap_pos, ap_pos)
    off_diag = ~np.eye(scenario.n_aps, dtype=bool)
    if np.any(pl_ut < 0) or np.any(pl_ap[off_diag] < 0):
        raise ValueError(
            "pathloss configuration yields gain above unity; check a_db / "
            "reference_distance_m against node spacing"
        )

    ap_to_ut = 10.0 ** (-pl_ut / 10.0) * _sector_mask(scenario, ut_pos)
    ap_to_ap = 10.0 ** (-pl_ap / 10.0) * _sector_mask(scenario, ap_pos)
    np.fill_diagonal(ap_to_ap, 0.0)  # self-gain unused
    return GainMatrix(ap_to_ut=ap_to_ut, ap_to_ap=ap_to_ap, seed=seed)

"""Large-scale link gains and small-scale Rayleigh fading.

Gains combine log-distance pathloss, log-normal shadowing frozen per node
pair, per-crossing wall attenuation, and an optional binary sector mask on
the transmitter. Noise PSD is normalized to 1 (0 dB), so AP powers are dB
above the noise floor and gains are linear attenuations <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ApNode, Scenario, ScenarioClass

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


# Wichura's AS241 (Appl. Statist. 37(3), 1988), highest power first: the
# numerator and denominator coefficients of the central region |u - 1/2| <=
# 0.425 in r = 0.180625 - q^2, of the tail r = sqrt(-log(min(u, 1 - u))) <= 5
# in r - 1.6, and of the far tail in r - 5.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_TAIL = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850615025e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def _horner(coeffs: tuple, r: np.ndarray) -> np.ndarray:
    """Polynomial with the given coefficients (highest power first) at r."""
    acc = np.full_like(r, coeffs[0])
    for c in coeffs[1:]:
        acc *= r
        acc += c
    return acc


def ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF, elementwise over the open interval (0, 1),
    by AS241 (about 1e-16 relative). Each element is evaluated only by the
    rational function of its own region; the regions are gathered by index,
    which is faster than boolean masks on random draws."""
    u = np.asarray(u, dtype=np.float64)
    q = u - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    at = np.flatnonzero(central)
    qc = q[at]
    r = 0.180625 - qc * qc
    num, den = _AS241_CENTRAL
    x[at] = qc * _horner(num, r) / _horner(den, r)
    at = np.flatnonzero(~central)
    qt = q[at]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, u[at], 1.0 - u[at])))
    xt = np.empty_like(r)
    far = r > 5.0
    for region, shift, (num, den) in ((~far, 1.6, _AS241_TAIL),
                                      (far, 5.0, _AS241_FAR)):
        rs = r[region] - shift
        xt[region] = _horner(num, rs) / _horner(den, rs)
    x[at] = np.where(qt < 0.0, -xt, xt)
    return x


def _pair_normal(seed: int, coords: np.ndarray, sigma: float) -> np.ndarray:
    """Zero-mean normal draw keyed purely by (seed, coordinate pair).

    `coords` is [n, 4] with the pair already in normalized (sorted) order,
    so the same pair always maps to the same sample regardless of query
    order. The key is mixed through splitmix64 and inverted through the
    normal CDF (AS241).
    """
    h = _splitmix(np.full(coords.shape[0], np.uint64(seed) if seed >= 0
                          else np.uint64(2**64 + seed)))
    words = coords.astype(np.float64).view(np.uint64).reshape(coords.shape[0], 4)
    for col in range(4):
        h = _splitmix(h ^ words[:, col])
    # The top key's u = (2^53 - 1/2) * 2^-53 rounds to 1.0; clamp it below.
    u = np.minimum(((h >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53,
                   1.0 - 2.0**-53)
    return sigma * ndtri(u)


def _normalize_pairs(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stack two [n, 2] position arrays into [n, 4] sorted-pair keys."""
    first = np.concatenate([p, q], axis=1)
    second = np.concatenate([q, p], axis=1)
    swap = (q[:, 0] < p[:, 0]) | ((q[:, 0] == p[:, 0]) & (q[:, 1] < p[:, 1]))
    return np.where(swap[:, None], second, first)


@dataclass
class GainMatrix:
    """Linear power gains: ap_to_ut[i, k] and ap_to_ap[i, j], transmitter first.

    The ap_to_ap diagonal is unused and left at zero. Without sector masks
    the matrices are symmetric in the pair and all entries are positive;
    a sector mask may zero the off-sector directions of its transmitter.
    """

    ap_to_ut: np.ndarray
    ap_to_ap: np.ndarray


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
        d1 = _orient(q1, q2, p1)
        d2 = _orient(q1, q2, p2)
        d3 = _orient(p1, p2, q1)
        d4 = _orient(p1, p2, q2)
        cross = ((d1 > 0) != (d2 > 0)) & (d1 != 0) & (d2 != 0) & \
                ((d3 > 0) != (d4 > 0)) & (d3 != 0) & (d4 != 0)
        total += wall.attenuation_db * cross
    return total


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed area of triangle abc over points [..., 0/1], broadcast."""
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - \
           (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])


def _pair_pathloss_db(scenario: Scenario, params: PathlossParams, seed: int,
                      rx: np.ndarray) -> np.ndarray:
    """Pathloss in dB from every AP to every receiver, [n_aps, n_rx]; +inf
    where the receiver lies outside the AP's sector.

    APs are walked in row blocks whose temporaries (about 128 bytes a pair)
    fit rates.BLOCK_BYTES (one row at least). Each pair's shadow is keyed by
    its two positions alone, so the blocks leave every entry unchanged.
    """
    from .rates import row_blocks  # rates imports this module

    tx = scenario.ap_positions()
    pl = np.empty((tx.shape[0], rx.shape[0]))
    for block in row_blocks(tx.shape[0], 128 * rx.shape[0]):
        t, out = tx[block], pl[block]
        d = np.hypot(t[:, None, 0] - rx[None, :, 0], t[:, None, 1] - rx[None, :, 1])
        d = np.maximum(d, params.reference_distance_m)
        out[:] = params.a_db + params.b_db_per_decade * np.log10(d)
        out += _wall_attenuation_matrix(scenario, t, rx)
        if params.shadowing_sigma_db > 0:
            pairs = _normalize_pairs(np.repeat(t, rx.shape[0], axis=0),
                                     np.tile(rx, (t.shape[0], 1)))
            out += _pair_normal(seed, pairs, params.shadowing_sigma_db).reshape(out.shape)
        out[~_sector_mask(scenario.aps[block], rx)] = np.inf
    return pl


def _sector_mask(aps: tuple[ApNode, ...], targets: np.ndarray) -> np.ndarray:
    """True where the bearing from an AP to a target lies inside the AP's
    sector (edges inclusive); omni APs reach every target.
    Returns [n_aps, n_targets]."""
    mask = np.ones((len(aps), targets.shape[0]), dtype=bool)
    rows = [i for i, ap in enumerate(aps) if ap.sector is not None]
    if not rows:
        return mask
    pos = np.array([aps[i].position for i in rows], dtype=float)
    orientation = np.array([aps[i].sector.orientation_deg for i in rows])
    half_width = np.array([aps[i].sector.width_deg / 2.0 for i in rows])
    bearing = np.degrees(np.arctan2(targets[None, :, 1] - pos[:, None, 1],
                                    targets[None, :, 0] - pos[:, None, 0]))
    diff = (bearing - orientation[:, None] + 180.0) % 360.0 - 180.0
    mask[rows] = np.abs(diff) <= half_width[:, None]
    return mask


def gain_matrix(scenario: Scenario, params: PathlossParams, seed: int) -> GainMatrix:
    """Compute all AP->UT and AP->AP linear gains for one shadowing draw."""
    pl_ut = _pair_pathloss_db(scenario, params, seed, scenario.user_positions())
    pl_ap = _pair_pathloss_db(scenario, params, seed, scenario.ap_positions())
    off_diag = ~np.eye(scenario.n_aps, dtype=bool)
    if np.any(pl_ut < 0) or np.any(pl_ap[off_diag] < 0):
        raise ValueError(
            "pathloss configuration yields gain above unity; check a_db / "
            "reference_distance_m against node spacing"
        )

    # 10 ** (-pl / 10) in place: no second [n_aps x n_users] array.
    ap_to_ut = np.power(10.0, np.divide(pl_ut, -10.0, out=pl_ut), out=pl_ut)
    ap_to_ap = 10.0 ** (-pl_ap / 10.0)
    np.fill_diagonal(ap_to_ap, 0.0)  # self-gain unused
    return GainMatrix(ap_to_ut=ap_to_ut, ap_to_ap=ap_to_ap)

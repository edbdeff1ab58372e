"""Rate quantization (modulation/coding table), OFDM overhead, summary stats."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class McsRow:
    index: int
    modulation: str
    bits_per_symbol: int
    code_rate: Fraction
    min_snr_db: float

    @property
    def efficiency(self) -> float:
        """Spectral efficiency in bit/s/Hz."""
        return float(self.bits_per_symbol * self.code_rate)


@dataclass(frozen=True)
class McsTable:
    rows: tuple[McsRow, ...]

    def __post_init__(self):
        snrs = [r.min_snr_db for r in self.rows]
        effs = [r.efficiency for r in self.rows]
        if sorted(snrs) != snrs or len(set(snrs)) != len(snrs):
            raise ValueError("MCS SNR thresholds must be strictly increasing")
        if sorted(effs) != effs or len(set(effs)) != len(effs):
            raise ValueError("MCS efficiencies must be strictly increasing")

    @property
    def thresholds_db(self) -> np.ndarray:
        return np.array([r.min_snr_db for r in self.rows])

    @property
    def efficiencies(self) -> np.ndarray:
        return np.array([r.efficiency for r in self.rows])


#: The nine mandatory 802.11ac modulation/coding pairs. Vendor tables vary;
#: this is the default and can be overridden from the run config.
DEFAULT_MCS_TABLE = McsTable(rows=(
    McsRow(0, "BPSK", 1, Fraction(1, 2), 2.0),
    McsRow(1, "QPSK", 2, Fraction(1, 2), 5.0),
    McsRow(2, "QPSK", 2, Fraction(3, 4), 8.0),
    McsRow(3, "16-QAM", 4, Fraction(1, 2), 12.0),
    McsRow(4, "16-QAM", 4, Fraction(3, 4), 15.0),
    McsRow(5, "64-QAM", 6, Fraction(2, 3), 18.0),
    McsRow(6, "64-QAM", 6, Fraction(3, 4), 21.0),
    McsRow(7, "64-QAM", 6, Fraction(5, 6), 24.0),
    McsRow(8, "256-QAM", 8, Fraction(3, 4), 27.0),
))


def mcs_quantize(sinr_db, table: McsTable = DEFAULT_MCS_TABLE):
    """Spectral efficiency of the best MCS decodable at the given SINR (dB).

    Below the first threshold the link carries nothing (0 bit/s/Hz).
    Accepts scalars or arrays; a scalar gives a numpy float.
    """
    idx = np.searchsorted(table.thresholds_db, sinr_db, side="right")
    return np.concatenate([[0.0], table.efficiencies])[idx]


#: Data subcarriers out of the FFT size per channel width (MHz), and the
#: guard-interval overhead: a 0.8 us GI on a 4 us symbol costs a factor 1.25.
OFDM_SUBCARRIERS = {20: (52, 64), 40: (108, 128), 80: (234, 256)}
GI_OVERHEAD = 1.25


def ofdm_efficiency(width_mhz: int) -> float:
    """Fraction of the nominal channel rate that carries data."""
    try:
        data, total = OFDM_SUBCARRIERS[int(width_mhz)]
    except KeyError:
        raise ValueError(f"unsupported channel width {width_mhz} MHz "
                         f"(choose from {sorted(OFDM_SUBCARRIERS)})") from None
    return data / (total * GI_OVERHEAD)


def summarize(values, outage_threshold: float = 0.0) -> dict:
    """Order statistics over per-user throughputs (or rates)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty report")
    return {
        "mean": float(np.mean(arr)),
        "median": float(np.median(arr)),
        "p5": float(np.percentile(arr, 5)),
        "outage": float(np.mean(arr <= outage_threshold)),
        "outage_threshold": float(outage_threshold),
        "n": int(arr.size),
    }

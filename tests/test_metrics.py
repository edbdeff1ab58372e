import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from wlanmodel.metrics import (
    DEFAULT_MCS_TABLE,
    McsRow,
    McsTable,
    mcs_quantize,
    ofdm_efficiency,
    summarize,
)
from wlanmodel.scenario import from_tree

# index -> (threshold dB, bit/s/Hz)
EXPECTED_ROWS = [
    (2.0, 0.5), (5.0, 1.0), (8.0, 1.5), (12.0, 2.0), (15.0, 3.0),
    (18.0, 4.0), (21.0, 4.5), (24.0, 5.0), (27.0, 6.0),
]


def test_table_matches_expected_rows():
    assert [(r.min_snr_db, r.efficiency) for r in DEFAULT_MCS_TABLE.rows] == EXPECTED_ROWS


def test_quantize_examples():
    assert mcs_quantize(16.0) == 3.0     # 16-QAM 3/4
    assert mcs_quantize(1.0) == 0.0      # below the first threshold
    assert mcs_quantize(30.0) == 6.0     # 256-QAM 3/4


def test_quantize_every_boundary():
    for snr, eff in EXPECTED_ROWS:
        assert mcs_quantize(snr) == eff          # inclusive at the threshold
        assert mcs_quantize(snr - 1e-9) < eff    # exclusive just below


def test_quantize_vectorized():
    out = mcs_quantize(np.array([1.0, 2.0, 26.9, 27.0, 100.0]))
    assert out.tolist() == [0.0, 0.5, 5.0, 6.0, 6.0]


def test_quantize_nondecreasing_step():
    grid = np.linspace(-10, 40, 2001)
    eff = mcs_quantize(grid)
    assert np.all(np.diff(eff) >= 0)


def test_quantize_below_shannon():
    # Each efficiency must be achievable at its own threshold.
    for snr, eff in EXPECTED_ROWS:
        assert eff <= math.log2(1 + 10 ** (snr / 10))


def test_ofdm_efficiency_exact():
    assert ofdm_efficiency(20) == 0.65
    assert ofdm_efficiency(40) == 0.675
    assert ofdm_efficiency(80) == 0.73125


def test_ofdm_efficiency_increases_with_width():
    assert ofdm_efficiency(20) < ofdm_efficiency(40) < ofdm_efficiency(80)


def test_ofdm_rejects_unknown_width():
    with pytest.raises(ValueError):
        ofdm_efficiency(60)


def test_table_validation():
    with pytest.raises(ValueError):
        McsTable(rows=(
            McsRow(0, "BPSK", 1, Fraction(1, 2), 5.0),
            McsRow(1, "QPSK", 2, Fraction(1, 2), 2.0),
        ))
    with pytest.raises(ValueError):
        McsTable(rows=(
            McsRow(0, "QPSK", 2, Fraction(1, 2), 2.0),
            McsRow(1, "BPSK", 1, Fraction(1, 2), 5.0),
        ))


def test_table_roundtrip_and_override():
    assert from_tree(McsTable, asdict(DEFAULT_MCS_TABLE)) == DEFAULT_MCS_TABLE
    custom = from_tree(McsTable, {"rows": [
        {"index": 0, "modulation": "QPSK", "bits_per_symbol": 2,
         "code_rate": "1/2", "min_snr_db": 4.0},
        {"index": 1, "modulation": "64-QAM", "bits_per_symbol": 6,
         "code_rate": "5/6", "min_snr_db": 20.0},
    ]})
    assert mcs_quantize(10.0, custom) == 1.0
    assert mcs_quantize(25.0, custom) == 5.0


def test_summarize_examples():
    s = summarize([1.0, 2.0, 3.0])
    assert s["mean"] == 2.0 and s["median"] == 2.0
    s = summarize([4.0, 4.0, 4.0])
    assert s["p5"] == s["mean"] == 4.0
    s = summarize([1.0, 2.0], outage_threshold=10.0)
    assert s["outage"] == 1.0
    with pytest.raises(ValueError):
        summarize([])

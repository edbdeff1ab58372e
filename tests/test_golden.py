"""Golden outputs of small end-to-end runs, pinned to 1e-12 relative.

Each case records the throughput summary (mean, median, p5, outage) and two
checksums of the per-user spectral efficiencies: the plain sum and a
position-weighted sum, so that a permutation of users shows. The cases
cover every PHY mode in both rate modes, disabled carrier sensing,
co-channel distributed clusters and sectorized APs; quantized MU-MIMO pins
how exact ties in the stream search break.
"""

import math

import pytest

from wlanmodel import pipeline

REL = 1e-12

_HALL = {"generator": "conference_hall", "n_aps": 8, "n_users": 60}
_FLOOR = {"generator": "open_floor", "n_aps": 12, "n_users": 90}

CASES = {
    "su_gaussian": dict(scenario=_HALL, technology="su_beamforming"),
    "su_quantized": dict(scenario=_HALL, technology="su_beamforming",
                         rate_mode="quantized"),
    "mu_gaussian": dict(scenario=_FLOOR, technology="concentrated_mu_mimo"),
    "mu_quantized": dict(scenario=_FLOOR, technology="concentrated_mu_mimo",
                         rate_mode="quantized"),
    "dist_gaussian": dict(scenario=_FLOOR, technology="distributed_mu_mimo",
                          n_clusters=3),
    "dist_quantized": dict(scenario=_FLOOR, technology="distributed_mu_mimo",
                           n_clusters=3, rate_mode="quantized"),
    "mu_quantized_no_cca": dict(scenario=_HALL, technology="concentrated_mu_mimo",
                                rate_mode="quantized", cca_db=None),
    "dist_co_channel": dict(scenario=_FLOOR, technology="distributed_mu_mimo",
                            channelization="2x40", n_clusters=4,
                            rate_mode="quantized"),
    "su_sectorized": dict(scenario=_HALL, technology="su_beamforming",
                          sector_width_deg=90.0, cca_db=None),
}

EXPECTED = {
    "su_gaussian": {
        "mean": 17075657.400882084, "median": 16887272.97804038,
        "p5": 13044069.8736123, "outage": 0.0,
        "se_sum": 51.22697220264625, "se_wsum": 25.8475150986136,
    },
    "su_quantized": {
        "mean": 5143330.964226487, "median": 4850746.268656717,
        "p5": 4850746.268656717, "outage": 0.0,
        "se_sum": 23.738450604122246, "se_wsum": 12.074449182658137,
    },
    "mu_gaussian": {
        "mean": 30912508.418366216, "median": 27479590.637947097,
        "p5": 8212218.526800444, "outage": 0.0,
        "se_sum": 139.10628788264796, "se_wsum": 74.03150844068969,
    },
    "mu_quantized": {
        "mean": 9125530.074784268, "median": 7359572.590922459,
        "p5": 1976547.3162920142, "outage": 0.0,
        "se_sum": 63.176746671583395, "se_wsum": 32.189866586137235,
    },
    "dist_gaussian": {
        "mean": 69462889.48101251, "median": 69951501.90735596,
        "p5": 48558704.393195815, "outage": 0.0,
        "se_sum": 312.5830026645563, "se_wsum": 157.0179161987754,
    },
    "dist_quantized": {
        "mean": 27010509.25925926, "median": 27083333.333333336,
        "p5": 16900000.0, "outage": 0.0,
        "se_sum": 186.99583333333334, "se_wsum": 93.76817129629629,
    },
    "mu_quantized_no_cca": {
        "mean": 2839880.9523809524, "median": 1625000.0,
        "p5": 0.0, "outage": 0.4166666666666667,
        "se_sum": 13.107142857142858, "se_wsum": 6.219047619047618,
    },
    "dist_co_channel": {
        "mean": 21153478.260869566, "median": 18000000.0,
        "p5": 4695652.173913043, "outage": 0.011111111111111112,
        "se_sum": 70.51159420289855, "se_wsum": 36.24001114827202,
    },
    "su_sectorized": {
        "mean": 15323442.442043308, "median": 9859291.266813897,
        "p5": 0.0, "outage": 0.2,
        "se_sum": 45.97032732612993, "se_wsum": 23.771580368068843,
    },
}


def digest(result) -> dict:
    report = result.report
    se = [float(v) for v in report.spectral_efficiency]
    out = {k: float(report.summary[k]) for k in ("mean", "median", "p5", "outage")}
    out["se_sum"] = math.fsum(se)
    out["se_wsum"] = math.fsum((k + 1) * v for k, v in enumerate(se)) / len(se)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name):
    got = digest(pipeline.evaluate(pipeline.RunConfig(**CASES[name])))
    want = EXPECTED[name]
    assert set(got) == set(want)
    for key, ref in want.items():
        assert abs(got[key] - ref) <= REL * max(abs(got[key]), abs(ref)), \
            f"{name}.{key}: {got[key]!r} != {ref!r}"

import numpy as np
import pytest

from wlanmodel import pipeline
from wlanmodel.csma import build_contention_graph
from wlanmodel.propagation import PathlossParams, gain_matrix
from wlanmodel.radio_plan import ChannelPlan, channel_preset
from wlanmodel.rates import TechConfig, su_channel_state_rates
from wlanmodel.radio_plan import AssociationMap
from wlanmodel.scenario import ApNode, Scenario, Sector, UtNode

NO_SHADOW = PathlossParams(shadowing_sigma_db=0.0)


def _north_facing_pair():
    sector = Sector(orientation_deg=90.0, width_deg=90.0)
    aps = (ApNode(0, (5.0, 5.0), sector=sector),
           ApNode(1, (15.0, 5.0), sector=sector))
    users = (UtNode(0, (5.0, 10.0)), UtNode(1, (15.0, 10.0)))
    return Scenario(width_m=20, height_m=20, aps=aps, users=users)


def test_zeroed_directions_remove_contention_edges():
    scen = _north_facing_pair()
    gains = gain_matrix(scen, NO_SHADOW, seed=0)
    plan = ChannelPlan(channel_preset("1x80"), {0: 0, 1: 0}, 0)
    graph = build_contention_graph(gains, plan, scen.aps, cca_db=10.0)
    assert graph.edges() == []  # neither AP radiates toward the other

    omni = Scenario(width_m=20, height_m=20,
                    aps=tuple(ApNode(a.id, a.position) for a in scen.aps),
                    users=scen.users)
    gains_omni = gain_matrix(omni, NO_SHADOW, seed=0)
    graph_omni = build_contention_graph(gains_omni, plan, omni.aps, cca_db=10.0)
    assert graph_omni.edges() == [(0, 1)]


def test_zeroed_direction_interference_vanishes_downstream():
    scen = _north_facing_pair()
    gains = gain_matrix(scen, NO_SHADOW, seed=0)
    # Both APs in-sector toward their own user, out-of-sector to the other's.
    assert gains.ap_to_ut[0, 0] > 0 and gains.ap_to_ut[1, 1] > 0
    assert gains.ap_to_ut[0, 1] == 0.0 and gains.ap_to_ut[1, 0] == 0.0
    assoc = AssociationMap(sets={0: (0,), 1: (1,)}, permutation_seed=0)
    both_on, alone = su_channel_state_rates(
        gains, assoc, scen.aps, [0, 1], np.array([[1, 1], [1, 0]]),
        TechConfig(), scen.n_users)
    assert both_on[0] == pytest.approx(alone[0])  # no cross interference


def test_sectorization_lifts_no_cca_throughput():
    base = dict(scenario={"generator": "conference_hall", "n_aps": 20,
                          "n_users": 100},
                cca_db=None, rate_mode="quantized")
    for tech in ("su_beamforming", "concentrated_mu_mimo"):
        omni = pipeline.evaluate(pipeline.RunConfig(technology=tech, **base))
        sect = pipeline.evaluate(pipeline.RunConfig(
            technology=tech, sector_width_deg=90.0, **base))
        assert sect.report.summary["mean"] > 1.5 * omni.report.summary["mean"]


def test_sector_config_roundtrip():
    cfg = pipeline.RunConfig(sector_width_deg=90.0, sector_orientation_deg=45.0)
    again = pipeline.RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    scen, _ = pipeline.build_scenario(cfg)
    assert all(ap.sector == Sector(45.0, 90.0) for ap in scen.aps)

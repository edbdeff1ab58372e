"""Analytical throughput modeling for dense multi-AP wireless networks."""

from .csma import (
    ChannelCtmc,
    ContentionGraph,
    CtmcMode,
    CtmcModel,
    StateSpaceOverflow,
    airtime_shares,
    build_contention_graph,
    channel_ctmcs,
    enumerate_states,
    stationary_distribution,
)
from .metrics import DEFAULT_MCS_TABLE, McsRow, McsTable, mcs_quantize, ofdm_efficiency, summarize
from .oracle import OracleConfig, OracleReport, mc_dist_rate, mc_mu_rate, mc_su_rate
from .pipeline import RunConfig, Seeds, evaluate, mc_validate, sweep
from .propagation import (
    GainMatrix,
    PathlossParams,
    ShadowMap,
    gain_matrix,
    pathloss_db,
)
from .radio_plan import (
    AssociationMap,
    Channel,
    ChannelPlan,
    Cluster,
    ClusterPlan,
    assign_channels,
    associate_users,
    associate_users_to_clusters,
    build_clusters,
    channel_preset,
)
from .rates import (
    RateMode,
    RateReport,
    TechConfig,
    Technology,
    average_over_ctmc,
    dist_mu_rate,
    peak_rate_matrix,
    throughput_report,
    zf_rates,
)
from .scenario import (
    ApNode,
    Scenario,
    ScenarioClass,
    Sector,
    UtNode,
    WallSegment,
    build_conference_hall,
    build_open_floor,
    build_stadium,
    build_walled_office,
    wall_crossings,
)

__version__ = "0.1.0"

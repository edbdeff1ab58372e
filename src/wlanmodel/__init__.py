"""Analytical throughput modeling for dense multi-AP wireless networks.

Importing the package loads none of its modules: each exported name, and
each module, is imported on first use (PEP 562), so a caller that needs only
`wlanmodel.scenario` pays for nothing else.
"""

from importlib import import_module

_EXPORTS = {
    "csma": "ChannelCtmc ContentionGraph CtmcMode CtmcModel StateSpaceOverflow "
            "build_contention_graph channel_ctmcs enumerate_states stationary_distribution",
    "metrics": "DEFAULT_MCS_TABLE McsRow McsTable mcs_quantize ofdm_efficiency summarize",
    "oracle": "OracleConfig OracleReport mc_dist_rate mc_mu_rate mc_su_rate",
    "pipeline": "RunConfig Seeds evaluate mc_validate sweep",
    "propagation": "GainMatrix PathlossParams gain_matrix",
    "radio_plan": "AssociationMap Channel ChannelPlan Cluster ClusterPlan assign_channels "
                  "associate_users associate_users_to_clusters build_clusters channel_preset",
    "rates": "RateMode RateReport TechConfig Technology chain_average_rates dist_mu_rate "
             "peak_rate_matrix throughput_report",
    "scenario": "ApNode Scenario ScenarioClass Sector UtNode WallSegment build_conference_hall "
                "build_open_floor build_stadium build_walled_office",
}
# Each exported name, and each module (mapped to None), to the module it lives in.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULE_OF.update(dict.fromkeys(_EXPORTS))

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_MODULE_OF[name] or name}", __name__)
    value = getattr(module, name) if _MODULE_OF[name] else module
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})

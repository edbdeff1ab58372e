"""The benchmark's traced call sites still exist in the program.

perfbench/spans.py wraps functions at the module attributes their callers
look up. A traced run whose spans lose every call site leaves out their
metrics, and one whose program prints to stdout no longer ends in its
result line; both are refactoring accidents these tests catch early. The
benchmark's set-up writes each scenario file with `Scenario.save` and every
operation reads it back with `pipeline.build_scenario`, so both ends of
that file are checked here too.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from wlanmodel import pipeline, rates
from wlanmodel.oracle import OracleConfig
from wlanmodel.scenario import GENERATORS, ApNode, Scenario, Sector, UtNode, WallSegment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def spans():
    yield from _benchmark_module("spans")


@pytest.fixture(scope="module")
def workloads():
    yield from _benchmark_module("workloads")


def test_every_span_has_a_call_site(spans):
    # The same rule as Tracer.absent_spans: a span is present when at least
    # one of its targets resolves to a module attribute.
    present = {t.span for t in spans.TARGETS
               if getattr(importlib.import_module(t.module), t.attr, None) is not None}
    assert set(spans.SPAN_NAMES) - present == set()


@pytest.mark.parametrize("kernel", [rates.su_channel_state_rates,
                                    rates.mu_channel_state_rates])
def test_kernel_parameters_match_the_benchmark_binding(spans, kernel):
    names = next(c for c in spans._kernel_args.__code__.co_consts
                 if isinstance(c, tuple) and "n_users_total" in c)
    assert tuple(inspect.signature(kernel).parameters)[:7] == names


@pytest.mark.parametrize("technology", ["su_beamforming", "concentrated_mu_mimo",
                                        "distributed_mu_mimo"])
def test_evaluation_and_validation_print_nothing(capsys, technology, tmp_path):
    cfg = pipeline.RunConfig(
        scenario={"generator": "conference_hall", "n_aps": 4, "n_users": 12},
        technology=technology, oracle=OracleConfig(n_realizations=20))
    pipeline.write_validation(pipeline.mc_validate(cfg), tmp_path)
    pipeline.write_report(pipeline.evaluate(cfg), tmp_path)
    assert capsys.readouterr().out == ""


def test_benchmark_scenario_files_read_back_exactly(workloads, tmp_path):
    seed = 12
    for workload in workloads.WORKLOADS.values():
        workloads.make_inputs(workload, seed, "smoke", tmp_path)
        path = workloads.scenario_path(tmp_path, workload)
        scenario = pipeline.build_scenario(
            pipeline.RunConfig(scenario={"file": str(path)}))
        generated = GENERATORS[workload.generator](*workload.sizes("smoke"), seed)
        # repr also tells an int from a float and a tuple from a list
        assert repr(scenario) == repr(generated)


# A scenario file as earlier versions wrote it: their key order, a null
# sector, antennas and grid_step_m left at their defaults.
EARLIER_LAYOUT = """{
  "width_m": 20.0, "height_m": 10.0, "scenario_class": "custom",
  "walls": [{"p1": [5.0, 0.0], "p2": [5.0, 10.0], "attenuation_db": 5.0}],
  "aps": [
    {"id": 0, "position": [2.5, 5.0], "power_db": 80.0, "sector": null},
    {"id": 1, "position": [7.5, 5.0], "antennas": 2, "power_db": 90.0,
     "sector": {"orientation_deg": 180.0, "width_deg": 90.0}}],
  "users": [{"id": 0, "position": [1.0, 1.0]}, {"id": 1, "position": [9.5, 4.0]}]
}"""


def test_scenario_files_of_the_earlier_layout_still_load(tmp_path):
    path = tmp_path / "earlier.json"
    path.write_text(EARLIER_LAYOUT)
    scenario = pipeline.build_scenario(
        pipeline.RunConfig(scenario={"file": str(path)}))
    assert scenario == Scenario(
        width_m=20.0, height_m=10.0,
        walls=(WallSegment((5.0, 0.0), (5.0, 10.0), 5.0),),
        aps=(ApNode(0, (2.5, 5.0), power_db=80.0),
             ApNode(1, (7.5, 5.0), antennas=2, power_db=90.0,
                    sector=Sector(180.0, 90.0))),
        users=(UtNode(0, (1.0, 1.0)), UtNode(1, (9.5, 4.0))))

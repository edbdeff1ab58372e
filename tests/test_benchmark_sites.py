"""The benchmark's traced call sites still exist in the program.

perfbench/spans.py wraps functions at the module attributes their callers
look up. A traced run whose spans lose every call site leaves out their
metrics, and one whose program prints to stdout no longer ends in its
result line; both are refactoring accidents these tests catch early.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from wlanmodel import pipeline, rates
from wlanmodel.oracle import OracleConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
